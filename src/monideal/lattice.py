"""Integer exponent vectors and monomial ideals as antichains.

A monomial x^a is identified with its exponent vector a in N^n, and a
monomial ideal with the set of exponents of the monomials it contains.
That set is closed upward under the componentwise partial order, so it is
determined by its finitely many minimal points (Dickson's lemma); the
ideal is stored as that antichain, sorted in descending lexicographic
order, which is the canonical order for all printed output.
"""

from __future__ import annotations

from collections.abc import Iterable

Vec = tuple[int, ...]


class DimensionMismatch(ValueError):
    """Vectors of different lengths were combined."""


class ZeroIdeal(ValueError):
    """No generators were given.  The zero ideal has no generator
    antichain and none of the polyhedral operations apply to it."""


class ConsistencyError(RuntimeError):
    """Two routes that must agree produced different answers, or a
    certificate failed its own re-verification.  Never caught internally."""


def as_vec(coords: Iterable) -> Vec:
    """The exponent vector of ``coords``: ints, bools, integer strings and
    numbers equal to an int, like 2.0.  Any other entry raises ValueError,
    nan and inf too, since c // 1 is nan for both; none is truncated."""
    v = tuple(coords)
    if all(type(c) is int for c in v):
        return v
    if any(not isinstance(c, str) and c != c // 1 for c in v):
        raise ValueError(f"exponents must be integers, got {v}")
    return tuple(map(int, v))


def as_int(x, what: str) -> int:
    """One integer taken exactly, through ``as_vec``; any other value
    raises ValueError naming ``what``."""
    try:
        (n,) = as_vec((x,))
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an integer, got {x!r}") from None
    return n


def unit(dim: int, i: int, value: int = 1) -> Vec:
    """The axis vector value * e_i in ``dim`` coordinates, i from 0."""
    return (0,) * i + (value,) + (0,) * (dim - 1 - i)


def require_same_dim(a: tuple, b: tuple) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")


def minimalize(points: Iterable[Vec]) -> tuple[Vec, ...]:
    """Componentwise-minimal elements of a finite set, descending lex.

    The up-closure of the result equals the up-closure of the input, and
    the result is an antichain.  Empty input gives an empty tuple.

    Each point is coerced through ``as_vec``; the distinct points, sorted
    ascending lex, go to ``_minimal_sorted``, the one domination scan.  A
    caller whose points are already distinct int tuples in ascending lex,
    as ``newton.power`` decodes its sums, calls that scan directly.
    """
    pts = sorted({as_vec(p) for p in points})
    if any(len(p) != len(pts[0]) for p in pts):
        raise DimensionMismatch("points of mixed dimensions")
    return _minimal_sorted(pts)


def _minimal_sorted(pts: list[Vec]) -> tuple[Vec, ...]:
    """The minimal elements of ``pts``, distinct int tuples of one length
    in ascending lex, in descending lex.  Nothing is checked.

    One ascending-lex scan, with domination decided by bitsets (the
    maxima problem of Kung, Luccio and Preparata, J. ACM 1975, turned to
    minima).  Bit k of an int stands for the k-th point.  A point
    q <=_pr p with q != p comes before p in lex order, so only earlier
    indices can dominate: the i-th point starts from the mask
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


class Frozen:
    """Base of the immutable value classes.  A subclass fills its slots
    through ``object.__setattr__`` and names its constructor arguments in
    ``_args()``; equality, hashing, pickling, copying and the repr go
    through those alone, so cache slots left out of ``_args()`` never
    travel."""

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

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._args()))})"


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
        given as any iterable, such as the minimal points a closure scan
        yields.  Nothing is checked or minimalized; the points are only
        sorted descending lex."""
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


def format_vector(v: Iterable[int]) -> str:
    return ",".join(map(str, v))


def parse_vector(text: str) -> Vec:
    """Parse "2,0,1" into (2, 0, 1).  Whitespace around entries is fine."""
    try:
        return tuple(int(p) for p in text.split(","))
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
