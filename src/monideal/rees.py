"""The extended Rees-type semigroup of the closure of an axis ideal, its
height-one monomial primes, and the codimension-one regularity test.

The semigroup S sits in N^{n+1}: each ring variable contributes (e_i, 0)
and each minimal generator beta of the closure ideal contributes
(beta, 1).  All its generators satisfy sigma(a, d) = omega . a - L d >= 0,
and sigma = 0 cuts the one facet of the cone not spanned by coordinate
hyperplanes.  Regularity in codimension one along that facet holds iff
some generator has sigma value exactly one, which happens iff L + 1 lies
in the scaled monoid; both routes are computed and must agree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from .ilambda import LambdaSpec, ilambda_generators
from .lattice import ConsistencyError, Frozen, Vec, require_same_dim, split
from .monoid import almost_quasinormal


class ReesSemigroup(Frozen):
    """Generators and facet data of the semigroup of one LambdaSpec.

    ``sigmas`` holds the sigma value of each generator, aligned with
    ``generators``: omega_i for (e_i, 0), omega . beta - L for (beta, 1).
    ``facet_betas`` are the betas whose value is 0."""

    __slots__ = ("spec", "ideal", "generators", "sigma", "sigmas", "facet_betas")

    def __init__(self, spec: LambdaSpec):
        ideal = ilambda_generators(spec)
        betas = ideal.generators
        n, omega, L = spec.n, spec.omega, spec.L
        gens: list[Vec] = []
        for i in range(n):
            e = [0] * (n + 1)
            e[i] = 1
            gens.append(tuple(e))
        for beta in betas:
            gens.append(beta + (1,))
        beta_sigmas = tuple(sum(map(mul, omega, b)) - L for b in betas)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "sigma", omega + (-L,))
        object.__setattr__(self, "sigmas", omega + beta_sigmas)
        facet = tuple(b for b, s in zip(betas, beta_sigmas) if s == 0)
        object.__setattr__(self, "facet_betas", facet)

    def _args(self):
        return (self.spec,)

    def sigma_value(self, point) -> int:
        point = tuple(int(x) for x in point)
        require_same_dim(point, self.sigma)
        return sum(map(mul, point, self.sigma))

    def __repr__(self):
        return f"ReesSemigroup({self.spec!r})"


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

    Semigroup route: scan for a generator with sigma value one.  Monoid
    route: L + 1 in the scaled monoid.  The two are equivalent, and both
    are computed; disagreement raises ConsistencyError rather than
    returning either answer.
    """
    S = ReesSemigroup(spec)
    witness = next((g for g, s in zip(S.generators, S.sigmas) if s == 1), None)
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
    point = tuple(int(x) for x in point)
    require_same_dim(point, S.sigma)
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
    # rest = 0; sums of betas stay on the facet, so only the last part
    # needs a test: it must be a sigma-zero exponent exactly
    parts = ()
    if d_rest:
        facet = frozenset(S.facet_betas)
        parts = split(rest, d_rest, S.facet_betas, lambda v, j: j > 1 or v in facet, {})
    if parts is None:
        return None
    combo: list[tuple[Vec, int]] = []
    for i, q in enumerate(qs):
        if q != 0:
            move = [0] * (n + 1)
            move[i] = spec.lam[i]
            move[n] = 1
            combo.append((tuple(move), q))
    counts: dict[Vec, int] = {}
    for b in parts:
        counts[b + (1,)] = counts.get(b + (1,), 0) + 1
    combo.extend(sorted(counts.items(), reverse=True))
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
