"""Axis ideals and their integral closures, handled combinatorially.

For a vector lam of positive integers, the axis ideal is generated by
x_i^{lam_i}.  Put L = lcm(lam) and omega_i = L / lam_i.  The exponent set
of the closure ideal is cut out by a single inequality,

    { a in N^n : omega . a >= L },

so membership, minimal generators, power decompositions, and the
normality criterion reduce to integer arithmetic; the polyhedral solver
is never needed on this path, which is what makes it an independent
cross-check for the general one.

Minimality is arithmetic too.  A point a with omega . a >= need is a
minimal point of that set iff its slack omega . a - need is below each
omega_i with a_i > 0: a - e_i lies in the set iff the slack is at least
omega_i.  A box 0 <= a <= bounds is down-closed, so the minimal points
of the set within the box are exactly its minimal points that lie in
the box, and ``_minima`` reads them off one column at a time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, lcm
from operator import le, mul, sub
from collections.abc import Iterable, Iterator

from .lattice import (
    Frozen,
    MonomialIdeal,
    Vec,
    as_int,
    as_vec,
    parse_vector,
    require_same_dim,
    unit,
)

EQUIVALENT = "equivalent"
FORWARD_ONLY = "forward-only"


class LambdaSpec(Frozen):
    """A vector of positive integers with its derived data: L = lcm and
    omega_i = L / lambda_i, plus, in ``_closure``, the closure ideal and
    the weight omega . g of each generator, in the ideal's order, once
    ilambda_generators has scanned for them, and the int bitset of the
    monoid generated by omega, with its conductor and its bytes, once a
    monoid function has built it.

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


def j_ideal(spec: LambdaSpec) -> MonomialIdeal:
    """The axis ideal itself: one generator lam_i * e_i per variable."""
    n = spec.n
    return MonomialIdeal(n, [unit(n, i, v) for i, v in enumerate(spec.lam)])


def _minima(omega: Vec, need: int, bounds: Vec) -> Iterator[tuple[Vec, int]]:
    """Each minimal point a of {a : omega . a >= need} inside the box
    0 <= a <= bounds, ascending lex, paired with its weight omega . a.

    A point of the set is minimal iff its slack is below each omega_i
    over its support (see the module docstring).  A column c =
    (a_1..a_{n-1}) holds one candidate, its lowest point in the set, at
    height t = max(0, ceil(r / omega_n)) with r = need - omega' . c: a
    point above it has a - e_n in the set too.  At t > 0 the slack
    t omega_n - r is below omega_n, so only the support of c is tested.
    Along any one coordinate of c the walk stops at the first value with
    r <= 0: the columns past it lie above that column's point of height
    0, which is in the set.

    Only the columns whose candidate lies in the box are walked.  The
    coordinates after a_i take at most reach_i = sum_{k > i} bounds_k
    omega_k off r inside the box, so a head or row whose r is larger
    starts at a_i = ceil((r - reach_i) / omega_i), and is skipped when
    that lies past bounds_i; a row starts at ceil((r - bounds_n omega_n) /
    omega_{n-1}).  Every column walked then has t <= bounds_n.  A skip
    to a_i = c leaves least as it was: r - c omega_i > reach_i - omega_i,
    so every point of the box that extends that head has slack at most
    reach_i - (r - c omega_i) < omega_i, and omega_i never binds.  When
    need <= bounds_n omega_n, as in every closure scan, nothing is
    skipped and each head and row pays one comparison for it.
    """
    if len(bounds) == 1:
        t = max(0, -(-need // omega[0]))
        if t <= bounds[0]:
            yield (t,), t * omega[0]
        return
    *heads, wide, top = bounds
    *head_w, row_w, last_w = omega
    # (head, r, least) for each head with a row to walk: r = need -
    # omega . head, least the least omega_i over its support that can
    # bind (a skip's omega_i cannot), or, while the support is empty, a
    # value above every omega_i and every slack of a point with that
    # support.  Like a row, a head coordinate stops growing once r <= 0
    rows = [((), need, max(omega) + abs(need))]
    # rest: the most that the coordinates after the current one take off
    # r inside the box
    rest = sum(map(mul, bounds, omega))
    for b, w in zip(heads, head_w):
        rest -= b * w
        grown = []
        for head, r, least in rows:
            c = 0
            if r > rest:
                c = -(-(r - rest) // w)
                r -= c * w
            for c in range(c, b + 1):
                grown.append((head + (c,), r, least))
                if r <= 0:
                    break
                r -= w
                if w < least:
                    least = w
        rows = grown
    rest = top * last_w
    for head, r, least in rows:
        x = 0
        if r > rest:
            x = -(-(r - rest) // row_w)
            r -= x * row_w
        for x in range(x, wide + 1):
            if r <= 0:
                if -r < least:
                    yield head + (x, 0), need - r
                break
            t = -(-r // last_w)
            if t * last_w - r < least:
                yield head + (x, t), need - r + t * last_w
            r -= row_w
            if row_w < least:
                least = row_w


def ilambda_generators(spec: LambdaSpec) -> MonomialIdeal:
    """Minimal generators of the closure ideal: minimal lattice points of
    omega . a >= L.  They all satisfy a <= lam: a point with a_i > lam_i
    strictly dominates the axis point lam_i * e_i, which already lies in
    the set, so the scan over the closed box below lam is exhaustive.

    The scan runs once per spec and keeps the ideal, with the weight
    omega . g of each generator g in the ideal's order; later calls
    return the ideal it kept."""
    if spec._closure is None:
        # reversed, the walk's points are in descending lex, the order
        # from_antichain keeps, so the weights stay aligned
        gens, weights = zip(*reversed(list(_minima(spec.omega, spec.L, spec.lam))))
        ideal = MonomialIdeal.from_antichain(spec.n, gens)
        object.__setattr__(spec, "_closure", (ideal, weights))
    return spec._closure[0]


def decompose(spec: LambdaSpec, a: Iterable[int], p: int) -> tuple[Vec, ...] | None:
    """Split a into p parts lying in the closure exponent set, or None.

    A split exists iff some minimal generator g fits under a and a - g
    splits into p - 1 parts: surplus in the first part can always be
    pushed into the remaining ones, since the set is up-closed.  Each
    part but the last is the first generator, in the ideal's order, under
    which the rest splits.  A v that splits into k parts has omega . v >=
    kL: that test prunes the memoized search and alone decides the last.
    """
    a = as_vec(a)
    require_same_dim(a, spec.lam)
    p = as_int(p, "part count")
    if p < 1:
        raise ValueError(f"part count must be positive, got {p}")
    if any(x < 0 for x in a):
        return None
    gens, omega, L = ilambda_generators(spec).generators, spec.omega, spec.L
    memo: dict = {}

    def search(a: Vec, k: int) -> tuple[Vec, ...] | None:
        key = (a, k)
        hit = memo.get(key, memo)
        if hit is not memo:
            return hit
        result = None
        if sum(map(mul, omega, a)) >= k * L:
            if k == 1:
                result = (a,)
            else:
                for g in gens:
                    if all(map(le, g, a)):
                        rest = search(tuple(map(sub, a, g)), k - 1)
                        if rest is not None:
                            result = (g,) + rest
                            break
        memo[key] = result
        return result

    return search(a, p)


@dataclass(frozen=True)
class LambdaNormalityVerdict:
    normal: bool
    witness: tuple[int, Vec] | None  # (p, alpha), first in (p, lex) order
    method: str  # "n<=2" | "gcd" | "exhaustive"


def is_normal_lambda(spec: LambdaSpec) -> LambdaNormalityVerdict:
    """Decide normality of the closure ideal of the axis ideal.

    Fast paths: at most two variables, and gcd(lam) > n - 2; both are
    always normal, and neither runs the level scan below, so it is no
    reference for them.  The tests check each fast path against two
    routes that share no code with it: ``is_normal`` of the Newton
    closure of ``j_ideal(spec)`` and the brute-force
    ``oracles.normality_oracle``, on every tuple of [1,5]^2, every even
    triple of [2,6]^3 and every triple of [1,8]^3 with gcd > 1.

    Otherwise it suffices to check points of the open box
    a_i < lam_i: the closure ideal is normal iff every such a with
    omega . a >= p * L, 2 <= p < n, splits into p closure-set parts
    (p = 1 needs no check: such an a is its own one-part split).  The
    first failing (p, a), p outermost and a in ascending lex, is the
    witness.  Adding a - b to one part of a split of b <= a splits a, so
    it is a minimal point of omega . a >= p * L, and only those are tested,
    in the ascending lex order ``_minima`` yields them with their weights,
    each found by the slack test of the module docstring: the scan stops
    at the first failed split.

    The levels run in order, and level p runs only once levels 2..p-1
    have passed.  Then every b with omega . b >= (p - 1) L splits into
    p - 1 parts, by induction on p: outside the open box b peels off some
    lam_i e_i of weight L, and inside it b lies above a tested minimal
    point.  So a splits into p parts iff some closure generator g <= a
    has omega . g <= omega . a - (p - 1) L, and that one test is the
    level test; it is not a split test outside this loop.

    The generators are sorted by weight once, stably, so equal weights
    keep the ideal's descending lex order.  The test tries first the
    generator that passed the last point, since consecutive minimal
    points are close, and finds the light enough prefix by bisection and
    searches it in weight order only when that fails.  The generator
    tried first must pass the same weight test, one comparison of its
    weight with the cap: a g <= a too heavy to be a first part does not
    split a, and without the test (2, 9, 11) would read normal, though
    (1, 7, 8) fails at p = 2.  Which passing generator is found does not
    matter, so the verdict and witness are those of a search in weight
    order."""
    n = spec.n
    if n <= 2:
        return LambdaNormalityVerdict(True, None, "n<=2")
    if gcd(*spec.lam) > n - 2:
        return LambdaNormalityVerdict(True, None, "gcd")
    omega, L = spec.omega, spec.L
    gens = ilambda_generators(spec).generators
    weights = spec._closure[1]
    # ascending weight, so the generators light enough to be a first part
    # are a prefix; equal weights keep the ideal's order
    order = sorted(range(len(gens)), key=weights.__getitem__)
    gens = [gens[i] for i in order]
    weights = [weights[i] for i in order]
    bounds = tuple(v - 1 for v in spec.lam)
    last = 0  # the generator that passed the last point
    for p in range(2, n):
        for a, w in _minima(omega, p * L, bounds):
            cap = w - (p - 1) * L
            if weights[last] <= cap and all(map(le, gens[last], a)):
                continue
            for last in range(bisect_right(weights, cap)):
                if all(map(le, gens[last], a)):
                    break
            else:
                return LambdaNormalityVerdict(False, (p, a), "exhaustive")
    return LambdaNormalityVerdict(True, None, "exhaustive")


@dataclass(frozen=True)
class CongruenceReduction:
    spec: LambdaSpec
    index: int  # 1-based position that was bumped
    ell: int  # lcm of the other entries
    lam_prime: Vec  # spec.lam with lam_index raised by ell
    relation: str  # "equivalent" | "forward-only"

    @property
    def spec_prime(self) -> LambdaSpec:
        """The spec of the bumped tuple, built on each read."""
        return LambdaSpec(self.lam_prime)


def congruence_reduce(spec: LambdaSpec, i: int) -> CongruenceReduction:
    """Bump lam_i by the lcm of the other entries.

    Normality of the bumped vector always implies normality of the
    original; when lam_i is at least that lcm the two are equivalent,
    and below that threshold only the forward direction is guaranteed.
    """
    i = as_int(i, "index")
    if not 1 <= i <= spec.n:
        raise ValueError(f"index must be in 1..{spec.n}, got {i}")
    others = spec.lam[: i - 1] + spec.lam[i:]
    ell = lcm(*others)
    bumped = spec.lam[: i - 1] + (spec.lam[i - 1] + ell,) + spec.lam[i:]
    relation = EQUIVALENT if spec.lam[i - 1] >= ell else FORWARD_ONLY
    return CongruenceReduction(spec, i, ell, bumped, relation)
