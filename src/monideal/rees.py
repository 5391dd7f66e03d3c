"""The extended Rees-type semigroup of the closure of an axis ideal, its
height-one monomial primes, and the codimension-one regularity test.

The semigroup S sits in N^{n+1}: each ring variable contributes (e_i, 0)
and each minimal generator beta of the closure ideal contributes
(beta, 1).  All its generators satisfy sigma(a, d) = omega . a - L d >= 0,
and sigma = 0 cuts the one facet of the cone not spanned by coordinate
hyperplanes.  Regularity in codimension one along that facet holds iff
some generator has sigma value exactly one, which happens iff L + 1 lies
in the scaled monoid; both routes are computed and must agree.

``ReesSemigroup`` is a view over the closure its spec keeps: the
functional sigma, the generators and their sigma values are built when
they are read, and the sigma-one test reads the kept weights
omega . beta directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .ilambda import LambdaSpec, decompose, ilambda_generators
from .lattice import ConsistencyError, Frozen, Vec, as_int, as_vec, require_same_dim, unit
from .monoid import almost_quasinormal


class ReesSemigroup(Frozen):
    """Generators and facet data of the semigroup of one LambdaSpec, read
    off the closure the spec keeps.

    ``sigma``, ``generators`` and ``sigmas`` are built on each read.
    ``sigma`` is the functional (omega, -L).  ``sigmas`` holds the sigma
    value of each generator, aligned with ``generators``: omega_i for
    (e_i, 0), omega . beta - L for (beta, 1).  The betas of value 0, of
    weight omega . beta = L, span the facet."""

    __slots__ = ("spec", "ideal")

    def __init__(self, spec: LambdaSpec):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "ideal", ilambda_generators(spec))

    def _args(self):
        return (self.spec,)

    @property
    def sigma(self) -> Vec:
        return self.spec.omega + (-self.spec.L,)

    @property
    def generators(self) -> tuple[Vec, ...]:
        n = self.spec.n
        units = tuple(unit(n + 1, i) for i in range(n))
        return units + tuple(beta + (1,) for beta in self.ideal.generators)

    @property
    def sigmas(self) -> tuple[int, ...]:
        # the weights omega . beta the closure scan kept beside the ideal
        L = self.spec.L
        return self.spec.omega + tuple(w - L for w in self.spec._closure[1])

    def sigma_one(self) -> Vec | None:
        """The first generator, in the order of ``generators``, of sigma
        value one, or None; only that one tuple is built."""
        omega, L = self.spec.omega, self.spec.L
        if 1 in omega:
            return unit(len(omega) + 1, omega.index(1))
        weights = self.spec._closure[1]
        if L + 1 in weights:
            return self.ideal.generators[weights.index(L + 1)] + (1,)
        return None

    def sigma_value(self, point) -> int:
        point = as_vec(point)
        require_same_dim(point, self.sigma)
        return sum(map(mul, point, self.sigma))


@dataclass(frozen=True)
class MonomialPrime:
    """A height-one monomial prime, described by which ring variables it
    contains and which t-degree-one generators (one per ideal generator
    exponent listed)."""

    label: str
    ring_vars: tuple[int, ...]  # 1-based variable indices
    t_generators: tuple[Vec, ...]


def height_one_primes(S: ReesSemigroup) -> tuple[MonomialPrime, ...]:
    """The height-one monomial primes: one per coordinate facet (P_1..P_n
    for the variables, P_{n+1} for the t-degree), plus the sigma facet.

    Computed literally from the facet formulas; in one variable the lists
    degenerate (P_1 then also contains the t-generator) but the formulas
    still apply verbatim.
    """
    spec = S.spec
    n = spec.n
    betas = S.ideal.generators
    primes = []
    for i in range(1, n + 1):
        primes.append(
            MonomialPrime(
                label=f"P_{i}",
                ring_vars=(i,),
                t_generators=tuple(b for b in betas if b[i - 1] >= 1),
            )
        )
    primes.append(
        MonomialPrime(label=f"P_{n + 1}", ring_vars=(), t_generators=betas)
    )
    primes.append(
        MonomialPrime(
            label="P_sigma",
            ring_vars=tuple(range(1, n + 1)),
            t_generators=tuple(b for b, s in zip(betas, S.sigmas[n:]) if s > 0),
        )
    )
    return tuple(primes)


def r1_satisfied(spec: LambdaSpec) -> tuple[bool, Vec | None]:
    """Codimension-one regularity along the sigma facet.

    Semigroup route: the first generator of sigma value one, which
    ``sigma_one`` reads off omega and the closure's kept weights.  Monoid
    route: L + 1 in the scaled monoid.  The two are equivalent.  If
    L + 1 = omega . a for some a in N^n, then a lies in the closure set,
    so some closure generator g <= a has omega . (a - g) <= 1.  If
    a = g, then (g, 1) has sigma value one.  Otherwise a - g is a unit
    vector e_i with omega_i = 1, and (e_i, 0) has sigma value one.
    Conversely, a generator (beta, 1) of sigma value one has
    omega . beta = L + 1, and a generator (e_i, 0) of sigma value one
    puts 1 in M, so L + 1 = lam_i omega_i + 1 is in M too.  Both routes
    are still computed, as a cheap runtime cross-check; disagreement
    raises ConsistencyError rather than returning either answer.
    """
    witness = ReesSemigroup(spec).sigma_one()
    aq = almost_quasinormal(spec)
    if (witness is not None) != aq:
        raise ConsistencyError(
            f"regularity routes disagree for {spec!r}: "
            f"sigma-scan witness {witness}, almost-quasinormal {aq}"
        )
    return witness is not None, witness


def express_on_facet(
    S: ReesSemigroup, point
) -> tuple[tuple[Vec, int], ...] | None:
    """Write a sigma-zero integer point as an integer combination of
    lattice moves inside the facet: differences of multiples of the
    sigma-zero generators (lam_i e_i, 1), plus a nonnegative remainder
    split into sigma-zero generators.

    Returns ((generator, coefficient), ...) with possibly negative
    coefficients on the (lam_i e_i, 1) moves, or None if the remainder
    does not split.  The reconstruction is re-verified exactly.
    """
    spec = S.spec
    n = spec.n
    point = as_vec(point)
    if S.sigma_value(point) != 0:
        raise ValueError(f"point {point} is not on the sigma facet")
    qs = []
    rest = []
    for a_i, lam_i in zip(point[:n], spec.lam):
        q, r = divmod(a_i, lam_i)  # floor division: remainder in [0, lam_i)
        qs.append(q)
        rest.append(r)
    rest = tuple(rest)
    d_rest = point[n] - sum(qs)
    # sigma(rest, d_rest) = 0 and rest >= 0, so d_rest = omega.rest / L >= 0
    if d_rest < 0:
        raise ConsistencyError(f"facet reduction broke sigma on {point}")
    # omega.rest = L d_rest with every omega_i > 0, so d_rest = 0 forces
    # rest = 0.  Each part of a d_rest-part closure split of rest weighs
    # exactly L, so it is a minimal generator of sigma value zero
    parts = decompose(spec, rest, d_rest) if d_rest else ()
    if parts is None:
        return None
    combo = [(unit(n, i, spec.lam[i]) + (1,), q) for i, q in enumerate(qs) if q]
    combo.extend((b + (1,), parts.count(b)) for b in sorted(set(parts), reverse=True))
    total = [0] * (n + 1)
    for gen, c in combo:
        for j in range(n + 1):
            total[j] += c * gen[j]
    if tuple(total) != point:
        raise ConsistencyError(f"facet expression does not reconstruct {point}")
    return tuple(combo)


def grp_facet_check(S: ReesSemigroup, radius: int) -> bool:
    """Verify that the group of the facet semigroup fills the whole facet
    lattice on a sample: every integer point with entries in
    [-radius, radius] and sigma value zero must be expressible through
    express_on_facet.  True when all sampled points pass."""
    radius = as_int(radius, "radius")
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    omega, L = S.spec.omega, S.spec.L
    # for each a at most one d puts (a, d) on the facet, so walking the
    # a's in ascending lex visits the facet points of the cube in order
    for a in itertools.product(range(-radius, radius + 1), repeat=S.spec.n):
        d, r = divmod(sum(w * x for w, x in zip(omega, a)), L)
        if r == 0 and -radius <= d <= radius:
            if express_on_facet(S, a + (d,)) is None:
                return False
    return True
