"""Axis ideals and their integral closures, handled combinatorially.

For a vector lam of positive integers, the axis ideal is generated by
x_i^{lam_i}.  Put L = lcm(lam) and omega_i = L / lam_i.  The exponent set
of the closure ideal is cut out by a single inequality,

    { a in N^n : omega . a >= L },

so membership, minimal generators, power decompositions, and the
normality criterion reduce to integer arithmetic; the polyhedral solver
is never needed on this path, which is what makes it an independent
cross-check for the general one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, lcm
from operator import le, mul
from collections.abc import Iterable

from .lattice import (
    Frozen,
    MonomialIdeal,
    Vec,
    as_vec,
    minimal_points,
    parse_vector,
    require_same_dim,
    split,
)

EQUIVALENT = "equivalent"
FORWARD_ONLY = "forward-only"


class LambdaSpec(Frozen):
    """A vector of positive integers with its derived data: L = lcm and
    omega_i = L / lambda_i, plus the closure ideal once
    ilambda_generators has scanned for it and the int bitset of the
    monoid generated by omega, with its conductor, once a monoid
    function has built it.

    gcd(omega) is always 1: a common factor of all L/lam_i would shrink
    the lcm.  The monoid functions rely on that.
    """

    __slots__ = ("lam", "L", "omega", "_closure", "_monoid")

    def __init__(self, lam: Iterable[int]):
        lam = as_vec(lam)
        if not lam:
            raise ValueError("lambda must have at least one entry")
        if any(v < 1 for v in lam):
            raise ValueError(f"lambda entries must be positive, got {lam}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "L", lcm(*lam))
        object.__setattr__(self, "omega", tuple(self.L // v for v in lam))
        object.__setattr__(self, "_closure", None)
        object.__setattr__(self, "_monoid", None)

    def _args(self):
        return (self.lam,)

    @classmethod
    def parse(cls, text: str) -> "LambdaSpec":
        return cls(parse_vector(text))

    @property
    def n(self) -> int:
        return len(self.lam)

    def fits(self, v: Vec, j: int = 1) -> bool:
        """omega . v >= j * L, true of every v that splits into j closure-set
        parts; j = 1 is membership.  The split search's hot test: no dim or
        sign check."""
        return sum(map(mul, self.omega, v)) >= j * self.L

    def __repr__(self):
        return f"LambdaSpec({list(self.lam)!r})"


def j_ideal(spec: LambdaSpec) -> MonomialIdeal:
    """The axis ideal itself: one generator lam_i * e_i per variable."""
    n = spec.n
    gens = []
    for i, v in enumerate(spec.lam):
        g = [0] * n
        g[i] = v
        gens.append(tuple(g))
    return MonomialIdeal(n, gens)


def column_floor(spec: LambdaSpec, j: int):
    """The ``minimal_points`` floor of omega . a >= j * L: on the column
    c = (a_1..a_{n-1}) the least height is max(0, ceil((jL - omega'.c) /
    omega_n)), with omega' the first n - 1 weights, capped at cap."""
    omega, last, need = spec.omega, spec.omega[-1], j * spec.L

    def floor(col: Vec, cap: int) -> int:
        # map stops at the end of col, so this is omega'.c; the floor
        # division is -ceil((jL - omega'.c) / omega_n)
        t = (sum(map(mul, omega, col)) - need) // last
        return 0 if t >= 0 else min(-t, cap)

    return floor


def ilambda_generators(spec: LambdaSpec) -> MonomialIdeal:
    """Minimal generators of the closure ideal: minimal lattice points of
    omega . a >= L.  They all satisfy a <= lam: a point with a_i > lam_i
    strictly dominates the axis point lam_i * e_i, which already lies in
    the set, so the scan over the closed box below lam is exhaustive.

    The scan runs once per spec; later calls return the ideal it kept."""
    if spec._closure is None:
        mins = minimal_points(spec.lam, column_floor(spec, 1))
        object.__setattr__(spec, "_closure", MonomialIdeal.from_antichain(spec.n, mins))
    return spec._closure


def decompose(spec: LambdaSpec, a: Iterable[int], p: int) -> tuple[Vec, ...] | None:
    """Split a into p parts lying in the closure exponent set, or None.

    A split exists iff some minimal generator g fits under a and a - g
    splits into p - 1 parts: surplus in the first part can always be
    pushed into the remaining ones, since the set is up-closed.
    """
    a = as_vec(a)
    require_same_dim(a, spec.lam)
    if p < 1:
        raise ValueError(f"part count must be positive, got {p}")
    if any(x < 0 for x in a):
        return None
    return split(a, p, ilambda_generators(spec).generators, spec.fits)


@dataclass(frozen=True)
class LambdaNormalityVerdict:
    normal: bool
    witness: tuple[int, Vec] | None  # (p, alpha), first in (p, lex) order
    method: str  # "n<=2" | "gcd" | "exhaustive"


def is_normal_lambda(
    spec: LambdaSpec, force_enumeration: bool = False
) -> LambdaNormalityVerdict:
    """Decide normality of the closure ideal of the axis ideal.

    Fast paths: at most two variables, and gcd(lam) > n - 2; both are
    always normal.  Otherwise it suffices to check points of the open box
    a_i < lam_i: the closure ideal is normal iff every such a with
    omega . a >= p * L, 2 <= p < n, splits into p closure-set parts
    (p = 1 needs no check: such an a is its own one-part split).  The
    first failing (p, a), p outermost and a in ascending lex, is the
    witness.  Adding a - b to one part of a split of b <= a splits a, so
    it is a minimal point of omega . a >= p * L, and only those are tested,
    as the staircase yields them: the scan stops at the first failed split.

    The levels run in order, and level p runs only once levels 2..p-1
    have passed.  Then every b with omega . b >= (p - 1) L splits into
    p - 1 parts, by induction on p: outside the open box b peels off some
    lam_i e_i of weight L, and inside it b lies above a tested minimal
    point.  So a splits into p parts iff some closure generator g <= a
    has omega . g <= omega . a - (p - 1) L, and that one test is the
    level test; it is not a split test outside this loop."""
    n = spec.n
    if not force_enumeration:
        if n <= 2:
            return LambdaNormalityVerdict(True, None, "n<=2")
        if gcd(*spec.lam) > n - 2:
            return LambdaNormalityVerdict(True, None, "gcd")
    omega, L = spec.omega, spec.L
    # ascending weight, so the generators light enough to be a first part
    # are a prefix
    weights, gens = zip(
        *sorted((sum(map(mul, omega, g)), g) for g in ilambda_generators(spec).generators)
    )
    bounds = tuple(v - 1 for v in spec.lam)
    for p in range(2, n):
        for a in minimal_points(bounds, column_floor(spec, p)):
            count = bisect_right(weights, sum(map(mul, omega, a)) - (p - 1) * L)
            if not any(all(map(le, g, a)) for g in gens[:count]):
                return LambdaNormalityVerdict(False, (p, a), "exhaustive")
    return LambdaNormalityVerdict(True, None, "exhaustive")


@dataclass(frozen=True)
class CongruenceReduction:
    spec: LambdaSpec
    index: int  # 1-based position that was bumped
    ell: int  # lcm of the other entries
    spec_prime: LambdaSpec
    relation: str  # "equivalent" | "forward-only"


def congruence_reduce(spec: LambdaSpec, i: int) -> CongruenceReduction:
    """Bump lam_i by the lcm of the other entries.

    Normality of the bumped vector always implies normality of the
    original; when lam_i is at least that lcm the two are equivalent,
    and below that threshold only the forward direction is guaranteed.
    """
    if not 1 <= i <= spec.n:
        raise ValueError(f"index must be in 1..{spec.n}, got {i}")
    others = spec.lam[: i - 1] + spec.lam[i:]
    ell = lcm(*others) if others else 1
    bumped = spec.lam[: i - 1] + (spec.lam[i - 1] + ell,) + spec.lam[i:]
    relation = EQUIVALENT if spec.lam[i - 1] >= ell else FORWARD_ONLY
    return CongruenceReduction(spec, i, ell, LambdaSpec(bumped), relation)
