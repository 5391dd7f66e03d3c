"""Integer exponent vectors and monomial ideals as antichains.

A monomial x^a is identified with its exponent vector a in N^n, and a
monomial ideal with the set of exponents of the monomials it contains.
That set is closed upward under the componentwise partial order, so it is
determined by its finitely many minimal points (Dickson's lemma); the
ideal is stored as that antichain, sorted in descending lexicographic
order, which is the canonical order for all printed output.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable
from operator import le, sub

Vec = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Vectors of different lengths were combined."""


class ZeroIdeal(ValueError):
    """No generators were given.  The zero ideal has no generator
    antichain and none of the polyhedral operations apply to it."""


class ConsistencyError(RuntimeError):
    """Two routes that must agree produced different answers, or a
    certificate failed its own re-verification.  Never caught internally."""


def as_vec(coords: Iterable[int]) -> Vec:
    return tuple(map(int, coords))


def require_same_dim(a: tuple, b: tuple) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")


def minimalize(points: Iterable[Vec]) -> tuple[Vec, ...]:
    """Componentwise-minimal elements of a finite set, descending lex.

    The up-closure of the result equals the up-closure of the input, and
    the result is an antichain.  Empty input gives an empty tuple.

    One ascending-lex scan over the distinct points, with domination
    decided by bitsets (the maxima problem of Kung, Luccio and Preparata,
    J. ACM 1975, turned to minima).  Bit k of an int stands for the k-th
    point.  A point q <=_pr p with q != p comes before p in lex order, so
    only earlier indices can dominate: the i-th point starts from the mask
    (1 << i) - 1 of the points before it.  For each coordinate j after
    the first, below[v] has the bits of the points whose j-th entry is
    <= v, and ANDing below[p_j] into p's mask leaves the earlier points
    <= p in every coordinate so far.  The first coordinate needs no
    bitset, since lex order already puts every earlier point at or below
    p there.  p is minimal iff its mask ends at zero.

    Time is O(n N^2 / w) for N distinct points in n variables and machine
    words of w bits.  Memory is the per-value masks, at most N bits for
    each distinct value of each coordinate: small for exponents in a box,
    quadratic in N only when a coordinate takes nearly N distinct values.
    """
    pts = sorted({as_vec(p) for p in points})
    if pts and any(len(p) != len(pts[0]) for p in pts):
        raise DimensionMismatch("points of mixed dimensions")
    belows = []
    for col in list(zip(*pts))[1:]:
        below: dict[int, int] = {}
        for i, c in enumerate(col):
            below[c] = below.get(c, 0) | 1 << i
        acc = 0
        for v in sorted(below):
            acc = below[v] = acc | below[v]
        belows.append(below)
    kept = []
    for i, p in enumerate(pts):
        mask = (1 << i) - 1
        for below, c in zip(belows, p[1:]):
            if not mask:
                break
            mask &= below[c]
        if not mask:
            kept.append(p)
    return tuple(reversed(kept))


def any_below(points: Iterable[Vec], a: Vec) -> bool:
    """Whether some point of ``points`` is componentwise <= a, i.e. the
    monomial ideal they generate contains x^a.  No dimension check: this
    is the inner loop of ideal membership."""
    for q in points:
        for x, y in zip(q, a):
            if x > y:
                break
        else:
            return True
    return False


def minimal_points(bounds: Vec, floor: Callable[[Vec, int], int]) -> list[Vec]:
    """Minimal points, ascending lex, of an up-closed set S restricted to
    the box 0 <= a <= bounds.

    Each column c = (a_1..a_{n-1}) has a cap, the least of least[c - e_i]
    over c_i > 0: from that height up an earlier minimal point lies below
    (the staircase of Miller-Sturmfels, ch. 3).  ``floor(c, cap)`` is
    called once per column whose cap is positive, in ascending lex, and
    must return the least t < cap with c + (t,) in S, or cap if there is
    none; c + (t,) is then a minimal point.  A column with cap 0 holds no
    minimal point and gets no call.  The floor sees only points no
    minimal point found so far lies below, so it may keep state across
    calls (cached cuts, say) and may jump over heights it knows to lie
    outside S.
    """
    *cols, top = as_vec(bounds)
    if not cols:
        t = floor((), top + 1)
        return [(t,)] if t <= top else []
    # least[k] is the least member height of the k-th column in product
    # order.  A row is a run of columns that differ only in their last
    # coordinate.  For a head coordinate i, the columns c - e_i of a whole
    # row lie strides[i] places back, as one slice of least
    *heads, last = cols
    width = last + 1
    strides = [math.prod(b + 1 for b in cols[i + 1 :]) for i in range(len(heads))]
    full = [top + 1] * width
    least: list[int] = []
    mins: list[Vec] = []
    for head in itertools.product(*(range(b + 1) for b in heads)):
        k = len(least)
        slices = [least[k - s : k - s + width] for c, s in zip(head, strides) if c]
        # c - e_last is the column just walked, so its height t bounds the cap
        t = top + 1
        for x, cap in enumerate(map(min, full, *slices) if slices else full):
            if t < cap:
                cap = t
            if not cap:
                # an earlier minimal point lies below the rest of the row
                least += [0] * (width - x)
                break
            t = floor(head + (x,), cap)
            least.append(t)
            if t < cap:
                mins.append(head + (x, t))
    return mins


def split(
    a: Vec, k: int, parts, fits: Callable[[Vec, int], bool], memo: dict
) -> tuple[Vec, ...] | None:
    """Write a as (g_1, .., g_{k-1}, rest), k >= 1, each g_i the first of
    ``parts`` under which the remainder splits, or return None.

    ``fits(v, j)`` must hold for every v that splits into j parts: it
    prunes the search, and at j == 1 it alone decides the rest, tested
    inline with no memo entry.  ``memo`` maps (v, j) to the answer of
    each search; calls with the same parts and fits may share it.
    """
    key = (a, k)
    hit = memo.get(key, memo)
    if hit is not memo:
        return hit
    result = None
    if fits(a, k):
        if k == 1:
            result = (a,)
        else:
            for g in parts:
                if all(map(le, g, a)):
                    v = tuple(map(sub, a, g))
                    # the last part needs only its test, not a search
                    if k == 2:
                        rest = (v,) if fits(v, 1) else None
                    else:
                        rest = split(v, k - 1, parts, fits, memo)
                    if rest is not None:
                        result = (g,) + rest
                        break
    memo[key] = result
    return result


class Frozen:
    """Base of the immutable value classes.  A subclass fills its slots
    through ``object.__setattr__`` and names its constructor arguments in
    ``_args()``; equality, hashing, pickling and copying go through those
    alone, so cache slots left out of ``_args()`` never travel."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy would otherwise restore the slots via __setattr__
        return type(self), self._args()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self):
        return hash(self._args())


class MonomialIdeal(Frozen):
    """A nonzero monomial ideal in a fixed number of variables.

    ``generators`` is the antichain of minimal generator exponents in
    descending lexicographic order; the constructor minimalizes whatever
    it is given, so equal ideals compare equal.
    """

    __slots__ = ("dim", "generators")

    def __init__(self, dim: int, generators: Iterable[Iterable[int]]):
        gens = [as_vec(g) for g in generators]
        if not gens:
            raise ZeroIdeal("a monomial ideal needs at least one generator")
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        for g in gens:
            if len(g) != dim:
                raise DimensionMismatch(
                    f"generator {g} has dimension {len(g)}, expected {dim}"
                )
            if any(c < 0 for c in g):
                raise ValueError(f"generator exponents must be nonnegative: {g}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "generators", minimalize(gens))

    @classmethod
    def from_antichain(cls, dim: int, antichain: Iterable[Vec]) -> "MonomialIdeal":
        """The ideal of a known antichain of nonnegative ``dim``-vectors,
        such as the minimal points ``minimal_points`` returns.  Nothing is
        checked or minimalized; the points are only sorted descending lex."""
        gens = tuple(sorted(antichain, reverse=True))
        if not gens:
            raise ZeroIdeal("a monomial ideal needs at least one generator")
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "dim", dim)
        object.__setattr__(ideal, "generators", gens)
        return ideal

    def _args(self):
        return self.dim, self.generators

    def contains(self, a: Iterable[int]) -> bool:
        """Whether x^a lies in the ideal: some generator divides x^a."""
        a = as_vec(a)
        if len(a) != self.dim:
            raise DimensionMismatch(
                f"point {a} has dimension {len(a)}, expected {self.dim}"
            )
        return any_below(self.generators, a)

    def __repr__(self):
        return f"MonomialIdeal({self.dim}, {list(self.generators)!r})"


def format_vector(v: Iterable[int]) -> str:
    return ",".join(str(int(c)) for c in v)


def parse_vector(text: str) -> Vec:
    """Parse "2,0,1" into (2, 0, 1).  Whitespace around entries is fine."""
    parts = [p.strip() for p in text.strip().split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"malformed vector: {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"malformed vector: {text!r}") from None


def format_ideal(ideal: MonomialIdeal) -> str:
    return ";".join(format_vector(g) for g in ideal.generators)


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse "2,0;1,1;0,2" into an ideal; generators are minimalized."""
    chunks = [c for c in text.strip().split(";") if c.strip()]
    if not chunks:
        raise ZeroIdeal(f"no generators in {text!r}")
    gens = [parse_vector(c) for c in chunks]
    return MonomialIdeal(len(gens[0]), gens)
