"""Newton-polyhedron membership with exact rational certificates, and the
integral closure and normality operations built on it.

The Newton polyhedron of an ideal with generator exponents g_1..g_r is
conv(g_1, .., g_r) + R^n_{>=0}.  A point a lies in it iff the system

    sum_k c_k g_k + s = a,   sum_k c_k = 1,   c >= 0,  s >= 0

is feasible, which a phase-1 simplex decides.  It is a revised simplex:
it pivots only the basis inverse with the right-hand side, [d B^-1 |
d B^-1 b], and the duals, all integers over one positive common
denominator d, fraction-free as in Bareiss elimination and lrs, so every
pivot is exact integer arithmetic.  A column's reduced cost comes from
the duals, and only the entering column is formed.  The simplex takes
the point as integers over a common denominator and answers in
integers; ``NewtonPolyhedron.contains`` builds the Fractions of the
certificate from them.  Both answers carry rational certificates that
re-verify in integers, once their denominators are cleared, with no
solver state: a feasible basis yields the convex weights and slack; an
infeasible one yields, through the dual values of the artificial
columns, a functional w >= 0 with w.g >= 1 on every generator but
w.a < 1.

Integral closure is the set of lattice points of the polyhedron; its
minimal generators lie below the componentwise maximum of the input
generators, and one staircase walk up the columns of that box, row by
row, with certificate reuse, finds them.  The walk keeps the staircase
itself and floors each column inline by the cached cuts, whose offsets
it takes once per row.  An ideal is normal when all its powers are
integrally closed; checking powers 1..n-1 suffices in n variables.  The
walk yields each generator as it finds it, so a normality test stops at
the first closure generator outside a power.

The powers need no polyhedron of their own: NP(I^m) = m.NP(I), so the
closure of I^m is the set of lattice points a with a/m in NP(I).  One
NewtonPolyhedron(I) serves every power.  Its LPs run over the r
generators of I at the point a/m, not over the generators of I^m, and
the outside functionals it learns are kept on it: w, stored as
(numerators, denominator), has w.g >= 1 on NP(I), so num.a < m*den puts
a outside the closure of I^m for every m at once.  The first scan seeds
that cache, with no LP, with the lexicographically least point of the
blocker {w >= 0 : w.g >= 1 for every generator g}.  It is a facet of
NP(I) (Fulkerson 1971), and it separates the origin, where every scan's
first column starts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from collections.abc import Iterable, Iterator, Sequence

from . import lattice
from .lattice import (
    ConsistencyError,
    Frozen,
    MonomialIdeal,
    Vec,
    format_vector,
    parse_vector,
    require_same_dim,
)

INSIDE = "inside"
OUTSIDE = "outside"

RatVec = tuple[Fraction, ...]

# the keys each verdict's JSON needs, with the type each value must have
_JSON_FIELDS = {
    INSIDE: (("weights", list), ("slack", str), ("denominator", object)),
    OUTSIDE: (("w", list),),
}

_F0 = Fraction(0)
_F1 = Fraction(1)


def as_rational(x) -> Fraction:
    """x as an exact Fraction: ints, Fractions, floats and strings such
    as "1/2" or " 3 ".  Anything else raises ValueError, "1/0", None, inf
    and nan too.  The one place a value turns into a Fraction."""
    try:
        return Fraction(x)
    except (OverflowError, TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational: {x!r}") from None


def as_rational_point(point: Iterable) -> RatVec:
    """Coerce to a tuple of Fractions through ``as_rational``; entries
    must be rational and nonnegative, else ValueError."""
    point = tuple(point)
    try:
        p = tuple(x if type(x) is Fraction else as_rational(x) for x in point)
    except ValueError:
        raise ValueError(f"query points must be rational, got {point}") from None
    if any(x.numerator < 0 for x in p):
        raise ValueError(f"query points must be nonnegative, got {p}")
    return p


def _scaled(xs: Iterable, q: int) -> list[int]:
    """q * x for each rational x whose denominator divides q, in ints."""
    return [x.numerator * (q // x.denominator) for x in xs]


@dataclass(frozen=True)
class MembershipCertificate:
    """Self-contained evidence for one membership query.

    inside:  ``terms`` pairs generators with positive convex weights,
             ``slack`` is the leftover nonnegative vector, and
             ``denominator`` is the lcm of the weight denominators, so
             scaling the combination by it clears all fractions.
    outside: ``w`` is a nonnegative functional with w.g >= 1 on every
             generator (with equality somewhere) and w.point < 1.
    """

    verdict: str
    point: RatVec
    terms: tuple[tuple[Vec, Fraction], ...] | None = None
    slack: RatVec | None = None
    denominator: int | None = None
    w: RatVec | None = None

    def verify(self, polyhedron: "NewtonPolyhedron") -> bool:
        """Re-check the certificate arithmetically against the polyhedron.

        The check runs in integers: every rational is scaled by an lcm of
        denominators, which keeps signs and turns each equation and
        inequality into one over the integers.  Entries may be Fractions
        or ints."""
        gens = polyhedron.ideal.generators
        n = len(self.point)
        if n != polyhedron.ideal.dim:
            return False
        qp = math.lcm(*(x.denominator for x in self.point))
        if self.verdict == INSIDE:
            if self.terms is None or self.slack is None or self.denominator is None:
                return False
            gen_set = set(gens)
            if any(g not in gen_set for g, _ in self.terms):
                return False
            if len(self.slack) != n:
                return False
            # scaled by q: weights W > 0 summing to q, slack S >= 0, and
            # sum_k W_k g_k + S == P coordinatewise
            dw = math.lcm(*(wt.denominator for _, wt in self.terms))
            q = math.lcm(dw, qp, *(s.denominator for s in self.slack))
            W = _scaled((wt for _, wt in self.terms), q)
            if any(x <= 0 for x in W) or sum(W) != q:
                return False
            S = _scaled(self.slack, q)
            if any(x < 0 for x in S):
                return False
            P = _scaled(self.point, q)
            columns = zip(*(g for g, _ in self.terms))
            if any(sum(map(mul, W, c)) + s != p for c, s, p in zip(columns, S, P)):
                return False
            # dw >= 1, so this also asks denominator >= 1; and dw * wt is
            # then an integer for every weight
            return self.denominator == dw
        if self.verdict == OUTSIDE:
            if self.w is None or len(self.w) != n:
                return False
            # scaled by dw: W >= 0, W.g >= dw on every generator with
            # equality somewhere, and W.(qp point) < dw qp
            dw = math.lcm(*(x.denominator for x in self.w))
            W = _scaled(self.w, dw)
            if any(x < 0 for x in W):
                return False
            if min(sum(map(mul, W, g)) for g in gens) != dw:
                return False
            P = _scaled(self.point, qp)
            return sum(map(mul, W, P)) < dw * qp
        return False

    def to_json_dict(self) -> dict:
        """The certificate as JSON, each rational written by ``str``:
        Fraction prints "3" or "1/2", and ``as_rational`` parses both."""
        if self.verdict == INSIDE:
            return {
                "verdict": INSIDE,
                "weights": [[format_vector(g), str(wt)] for g, wt in self.terms],
                "slack": ",".join(map(str, self.slack)),
                "denominator": self.denominator,
            }
        return {"verdict": OUTSIDE, "w": [str(x) for x in self.w]}

    @classmethod
    def from_json_dict(cls, data: dict, point: Iterable) -> "MembershipCertificate":
        """The certificate of ``point`` that ``to_json_dict`` wrote as
        ``data``.  Data of any other shape raises ValueError."""
        if not isinstance(data, dict) or data.get("verdict") not in (INSIDE, OUTSIDE):
            raise ValueError(f"malformed certificate: {data!r}")
        for key, kind in _JSON_FIELDS[data["verdict"]]:
            if key not in data:
                raise ValueError(f"malformed certificate: no {key!r} in {data!r}")
            if not isinstance(data[key], kind):
                raise ValueError(
                    f"malformed certificate: {key!r} must be a {kind.__name__}"
                )
        pt = tuple(map(as_rational, point))
        if data["verdict"] == OUTSIDE:
            return cls(OUTSIDE, pt, w=tuple(map(as_rational, data["w"])))
        weights, den = data["weights"], data["denominator"]
        if any(not isinstance(t, list) or [*map(type, t)] != [str, str] for t in weights):
            raise ValueError("malformed certificate: weights must be string pairs")
        try:
            (den,) = lattice.as_vec((den,))
        except (TypeError, ValueError):
            raise ValueError(f"malformed certificate: denominator {den!r}") from None
        terms = tuple((parse_vector(g), as_rational(wt)) for g, wt in weights)
        slack = tuple(map(as_rational, data["slack"].split(",")))
        return cls(INSIDE, pt, terms=terms, slack=slack, denominator=den)


def _phase1(gens: Sequence[Vec], b: Sequence[int], q: int):
    """Decide feasibility of the membership system at the point b / q.

    ``b`` holds the point's integer numerators over the common
    denominator q > 0.  Returns ('inside', x, den) with x the integer
    basic solution, the weights and then the slacks, over den; or
    ('outside', u, m) with the normalized separating functional w = u / m.

    A revised simplex (Dantzig and Orchard-Hays 1954) over the columns
    A_k = (g_k, 1) of the convex weights, e_j of the slacks and e_i of
    the n + 1 artificials, which form the starting basis B = I.  Only the
    (n+1) x (n+2) integer matrix [d B^-1 | d B^-1 (b, q)] and the scaled
    duals Y = d c_B B^-1 are pivoted, with one positive common
    denominator d, fraction-free as in Bareiss elimination and lrs.  The
    reduced cost of a structural column is -Y.A_j / d, so Bland's rule
    takes the first weight with Y.(g_k, 1) > 0, else the first slack
    with Y_j > 0, and the entering column is d B^-1 A_j, formed only
    then.  The ratio test compares by cross-multiplying, so the basis
    sequence is that of the same simplex over rationals, and scaling b
    and q by one positive integer leaves it unchanged.  The basic
    solution is then over den = d q.
    """
    n = len(b)
    r = len(gens)
    width = r + n  # structural columns: convex weights, then slacks
    rows = []
    for i, bi in enumerate((*b, q)):
        row = [0] * (n + 2)
        row[i], row[-1] = 1, bi
        rows.append(row)
    Y = [1] * (n + 1)
    basis = list(range(width, width + n + 1))  # the artificials
    d = 1
    # the columns (g_k, 1); a dot product with a row of [d B^-1 | ..]
    # stops before its right-hand side
    cols = [(*g, 1) for g in gens]

    while True:
        # Bland's rule on the prices f = Y.A_j; artificials never re-enter
        for enter, a in enumerate(cols):
            f = sum(map(mul, Y, a))
            if f > 0:
                col = [sum(map(mul, row, a)) for row in rows]
                break
        else:
            for j in range(n):
                if Y[j] > 0:
                    break
            else:
                break
            enter, f = r + j, Y[j]
            col = [row[j] for row in rows]
        leave = None
        for i, a in enumerate(col):
            if a > 0:
                bi = rows[i][-1]
                if leave is None:
                    leave, bl, piv = i, bi, a
                    continue
                # b_i / a < b_l / piv, with both positive
                lhs, rhs = bi * piv, bl * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, bl, piv = i, bi, a
        if leave is None:
            raise ConsistencyError("phase-1 simplex claims an unbounded objective")
        # every other row becomes (row * piv - c * prow) / d, and Y
        # likewise with the entering price f.  Each entry is then a minor
        # of the integer start tableau, so the division is exact (Bareiss)
        prow = rows[leave]
        for i, c in enumerate(col):
            if i == leave:
                continue
            if c:
                rows[i] = [(v * piv - c * p) // d for v, p in zip(rows[i], prow)]
            elif piv != d:
                rows[i] = [v * piv // d for v in rows[i]]
        Y = [(y * piv - f * p) // d for y, p in zip(Y, prow)]
        basis[leave] = enter
        d = piv

    residual = sum(row[-1] for row, k in zip(rows, basis) if k >= width)
    if residual == 0:
        x = [0] * width
        for row, k in zip(rows, basis):
            if k < width:
                x[k] = row[-1]
        return INSIDE, x, d * q

    # infeasible: the duals of the artificial columns are y_i = Y_i / d.
    # The functional w = -y_j / y_n, normalized to min w.g = 1, is
    # u / min(u.g) for u = -Y[:n], since the positive factor d * y_n
    # cancels; min w.g < 1 iff min u.g < Y_n.
    if Y[n] <= 0 or any(Y[j] > 0 for j in range(n)):
        raise ConsistencyError("phase-1 dual has the wrong sign pattern")
    u = [-Y[j] for j in range(n)]
    m = min(sum(map(mul, u, g)) for g in gens)
    if m < Y[n]:
        raise ConsistencyError("separating functional fails on a generator")
    return OUTSIDE, u, m


class NewtonPolyhedron(Frozen):
    """Membership oracle for conv(generators) + R^n_{>=0} of one ideal.

    ``_cuts`` caches valid cuts, (numerators, denominator) pairs w with
    w.g >= 1 on every generator, for the closure scan
    ``_closure_points``; its callers are ``integral_closure``,
    ``is_integrally_closed`` and ``is_normal``.  Only that scan reads it
    or appends to it.  A scan that finds it empty first appends the
    seed, the lex-min point of the blocker, which needs no LP; the unit
    ideal has none.  Every later entry is an outside functional that a
    scan learns.  A scan reads the list at the start of each row of its
    walk and appends each cut it learns, so a cut that another scan of
    the same polyhedron, interleaved with it, learns reaches it from its
    next row on.  Nothing in the library interleaves two scans.
    Pickling or copying starts the list afresh.  The constructor adds no
    seed: a polyhedron that only answers ``contains`` never needs one.
    """

    __slots__ = ("ideal", "_cuts")

    def __init__(self, ideal: MonomialIdeal):
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "_cuts", [])

    def _args(self):
        return (self.ideal,)

    def contains(self, point: Iterable) -> MembershipCertificate:
        """Decide membership of a nonnegative rational point; the returned
        certificate has been re-verified before it is handed out."""
        p = as_rational_point(point)
        if len(p) != self.ideal.dim:
            require_same_dim(p, (0,) * self.ideal.dim)
        gens = self.ideal.generators
        q = math.lcm(*(x.denominator for x in p))
        verdict, x, den = _phase1(gens, _scaled(p, q), q)
        if verdict == INSIDE:
            terms = tuple((g, Fraction(xk, den)) for g, xk in zip(gens, x) if xk > 0)
            denom = math.lcm(*(wt.denominator for _, wt in terms))
            slack = tuple(Fraction(s, den) for s in x[len(gens):])
            cert = MembershipCertificate(
                INSIDE, p, terms=terms, slack=slack, denominator=denom
            )
        else:
            w = tuple(Fraction(uj, den) for uj in x)
            cert = MembershipCertificate(OUTSIDE, p, w=w)
        if not cert.verify(self):
            raise ConsistencyError(f"certificate failed re-verification: {cert}")
        return cert


def _affine_dependence(points: Sequence[RatVec]) -> list[Fraction] | None:
    """A nonzero c with sum c_i p_i = 0 and sum c_i = 0, or None if the
    points are affinely independent.  Deterministic: reduced row echelon
    form, first free column set to one."""
    m = len(points)
    n = len(points[0]) if m else 0
    rows = [[p[j] for p in points] for j in range(n)]
    rows.append([_F1] * m)
    pivot_cols: list[int] = []
    pr = 0
    for col in range(m):
        pivot = None
        for i in range(pr, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = rows[pr][col]
        rows[pr] = [v / inv for v in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * p for v, p in zip(rows[i], rows[pr])]
        pivot_cols.append(col)
        pr += 1
    free = [c for c in range(m) if c not in pivot_cols]
    if not free:
        return None
    f = free[0]
    c = [_F0] * m
    c[f] = _F1
    for i, pc in enumerate(pivot_cols):
        c[pc] = -rows[i][f]
    return c


def affinely_independent(points: Sequence[Iterable]) -> bool:
    """Whether the points, all of one dimension, are affinely
    independent; points of mixed dimensions raise ValueError."""
    pts = [tuple(map(as_rational, p)) for p in points]
    if not pts:
        return True
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("points of mixed dimensions")
    return _affine_dependence(pts) is None


def caratheodory_reduce(
    points: Sequence[Iterable], weights: Sequence
) -> tuple[tuple[RatVec, ...], tuple[Fraction, ...]]:
    """Reduce a convex combination to affinely independent support.

    A standalone utility, checked by acceptance criterion 09; membership
    certificates do not pass through it.  They need no reduction: the
    phase-1 simplex ends on a basic solution, whose positive weights sit
    on affinely independent generators, at most n + 1 of them.

    One dependence is eliminated per round: drop the index maximizing
    c_i/b_i over c_i > 0 (the first free c_i is 1; smallest index on ties)
    and fold its weight into the rest.  The combination value is preserved
    exactly; weights stay positive and sum to one.
    """
    pts = [tuple(map(as_rational, p)) for p in points]
    wts = [*map(as_rational, weights)]
    if not pts or len(pts) != len(wts):
        raise ValueError("need equally many points and weights, at least one")
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("points of mixed dimensions")
    if any(b < 0 for b in wts) or sum(wts) != 1:
        raise ValueError("weights must be nonnegative and sum to one")

    keep = [i for i, b in enumerate(wts) if b > 0]
    pts = [pts[i] for i in keep]
    wts = [wts[i] for i in keep]

    while True:
        c = _affine_dependence(pts)
        if c is None:
            return tuple(pts), tuple(wts)
        istar = None
        for i, ci in enumerate(c):
            if ci > 0 and (istar is None or ci * wts[istar] > c[istar] * wts[i]):
                istar = i  # strict: ties keep the smallest index
        ratio = c[istar] / wts[istar]
        new_pts: list[RatVec] = []
        new_wts: list[Fraction] = []
        for i, (p, b) in enumerate(zip(pts, wts)):
            if i == istar:
                continue
            nb = b - c[i] / ratio
            if nb < 0:
                raise ConsistencyError("dependence elimination went negative")
            if nb > 0:
                new_pts.append(p)
                new_wts.append(nb)
        pts, wts = new_pts, new_wts


def power(ideal: MonomialIdeal, m: int) -> MonomialIdeal:
    """The m-th power: minimalized m-fold sums of generators.  m = 0 gives
    the unit ideal by convention, and m = 1 the ideal itself, whose
    generators are already minimal.

    For m >= 2 each generator is packed into one int, a field of ``shift``
    bits per coordinate with the first coordinate highest, so that one
    int addition adds every coordinate at once (Lamport, CACM 1975).  A
    field of an m-fold sum is at most m * max exponent < 2**shift, so no
    field carries into the next: the sums of the packed generators are
    the packed sums, formed and deduplicated in C, and they sort
    ascending as the vectors sort ascending lex.  The sorted sums are
    decoded with shifts and a mask and go straight to the domination
    scan of ``lattice.minimalize``."""
    m = lattice.as_int(m, "power")
    if m < 0:
        raise ValueError(f"power must be nonnegative, got {m}")
    if m == 0:
        return MonomialIdeal(ideal.dim, [(0,) * ideal.dim])
    if m == 1:
        return ideal
    shift = (m * max(map(max, ideal.generators))).bit_length() or 1
    packed = []
    for g in ideal.generators:
        word = 0
        for c in g:
            word = word << shift | c
        packed.append(word)
    sums = sorted(set(map(sum, itertools.combinations_with_replacement(packed, m))))
    mask = (1 << shift) - 1
    fields = range(shift * (ideal.dim - 1), -1, -shift)
    pts = list(zip(*([s >> f & mask for s in sums] for f in fields)))
    return MonomialIdeal.from_antichain(ideal.dim, lattice._minimal_sorted(pts))


def _blocker_lex_min(gens: Sequence[Vec]) -> tuple[Vec, int] | None:
    """The lexicographically least point w of the blocker
    B = {w >= 0 : w.g >= 1 for every generator g}, as (num, den) with
    w = num / den and gcd(num, den) = 1; None when a generator is zero,
    which leaves B empty.

    Once w_1..w_{k-1} are fixed, w_k is bounded below only by the
    generators whose last nonzero coordinate is k, so it is
    max(0, max_g (1 - sum_{i<k} w_i g_i) / g_k) over them.  One pass
    computes it in integers over a running denominator, in O(r n).

    B lies in R^n_{>=0}, so it has no line, and its lex-min point is a
    vertex.  NP(I) and B are a blocking pair, so the vertices of B are
    the facets w.a >= 1 of NP(I) other than the coordinate ones
    (Fulkerson, "Blocking and anti-blocking pairs of polyhedra", Math.
    Programming 1, 1971; Schrijver, Theory of Linear and Integer
    Programming, 1986, sec. 9.2).  The first nonempty group has
    w_i = 0 below its k, so its largest 1 / g_k is positive and tight:
    min w.g = 1.  On the closure of (x_1^l_1, .., x_n^l_n) the point is
    omega / L, its one compact facet.
    """
    n = len(gens[0])
    groups: list[list[Vec]] = [[] for _ in range(n)]
    for g in gens:
        k = n - 1
        while not g[k]:
            if not k:
                return None
            k -= 1
        groups[k].append(g)
    num, den = [0] * n, 1
    for k, group in enumerate(groups):
        # the largest (den - num.g) / g_k, as p / q with q > 0, if positive
        p, q = 0, 1
        for g in group:
            short = den - sum(map(mul, num, g))
            if short * q > p * g[k]:
                p, q = short, g[k]
        if p:
            # w_k = p / (q den): the denominator takes the factor q
            num = [v * q for v in num]
            num[k] = p
            den *= q
    f = math.gcd(den, *num)
    return tuple(v // f for v in num), den // f


def _closure_points(ideal: MonomialIdeal, poly: NewtonPolyhedron, m: int) -> Iterator[Vec]:
    """The minimal generators of the integral closure of ``ideal``, the
    m-th power (m >= 1) of ``poly.ideal``, in ascending lex, each yielded
    as the scan finds it.  Membership is decided on m.NP(poly.ideal),
    with the LPs over the generators of ``poly.ideal`` and the cuts
    cached on ``poly``, which all powers share.  A caller that stops
    early stops the scan: no LP runs past the last point it took.

    The walk goes up the columns c = (a_1..a_{n-1}) of the box below
    the componentwise maximum of the generators, in ascending lex, row by
    row: a row is a run of columns with one head (a_1..a_{n-2}) that
    differ only in the column coordinate x = a_{n-1}.  Each column has a
    cap, the least of least[c - e_i] over c_i > 0: from that height up
    an earlier minimal point lies below (the staircase of Miller and
    Sturmfels, ch. 3).  For a head coordinate the columns c - e_i of a
    whole row lie one stride back, as one slice of ``least``, and
    c - e_{n-1} is the column just walked.  A column with cap 0 holds no
    minimal point, and neither does the rest of its row, whose caps are
    no larger.  In one variable the walk is one row of one column, at
    x = 0, so there a cut's step never counts.

    A point below a column's cap reaches the membership test only when
    no generator found so far lies below it.  Such a point lies in the
    ideal only if it is one of its generators: any generator below it is
    in the closure and comes earlier in the scan, so it would have been
    found or dominated.  A set lookup therefore replaces the ideal
    membership test.

    A scan that finds ``poly._cuts`` empty seeds it first with
    ``_blocker_lex_min`` of the generators of ``poly.ideal``, re-checked
    in integers: num >= 0 and min num.g == den, else ConsistencyError.
    The seed is a facet of NP(poly.ideal), so every cached cut is one,
    and it rejects the origin, so no scan starts with an LP there.  It
    reads only the generators.

    Each column jumps to its floor by the cached cuts before any LP: a
    cut (num, den) with num_n > 0 lifts the height t to
    ceil((m*den - num'.c) / num_n), and one with num_n = 0 that c
    violates closes the column.  The heights jumped over are exactly
    those a cached cut rejects, so the same LPs run, in the same order,
    as on a climb one height at a time that starts from the same cuts.
    A row takes each cut's offset once, at its start, as (base, step,
    tail) = (m*den - num.head, num_{n-1}, num_n); since num'.c =
    num.head + num_{n-1} x, the short m*den - num'.c of column x is
    base - step*x.  The LP runs at a/m through ``poly.contains``, which
    re-verifies its certificate; an outside verdict adds its functional,
    scaled to integers, as one new cut, to ``poly._cuts`` and to the
    row's offsets, and the column jumps again on that cut.  So a row sees the cuts cached at its start
    and every cut it learns; a cut that another scan of the same
    polyhedron, interleaved with this one, learns applies from the next
    row on.  Nothing in the library interleaves two scans.
    """
    *cols, top = map(max, zip(*ideal.generators))
    gens = set(ideal.generators)
    cuts = poly._cuts
    if not cuts:
        seed = _blocker_lex_min(poly.ideal.generators)
        if seed is not None:
            num, den = seed
            if min(num) < 0 or min(sum(map(mul, num, g)) for g in poly.ideal.generators) != den:
                raise ConsistencyError(f"the lex-min blocker point {seed} fails a generator")
            cuts.append(seed)
    *heads, last = cols or (0,)
    k = len(heads)  # the column coordinate's index in a cut
    width = last + 1
    strides = [math.prod(b + 1 for b in cols[i + 1 :]) for i in range(k)]
    full = [top + 1] * width
    least: list[int] = []
    for head in itertools.product(*(range(b + 1) for b in heads)):
        # every cut's numerators are >= 0; map stops at the end of head
        offsets = [(m * den - sum(map(mul, num, head)), num[k], num[-1]) for num, den in cuts]
        j = len(least)
        slices = [least[j - s : j - s + width] for c, s in zip(head, strides) if c]
        # c - e_{n-1} is the column just walked, so its height t bounds the cap
        t = top + 1
        for x, cap in enumerate(map(min, full, *slices) if slices else full):
            if t < cap:
                cap = t
            if not cap:
                # an earlier minimal point lies below the rest of the row
                least += [0] * (width - x)
                break
            t, new = 0, offsets
            while True:
                for base, step, tail in new:
                    short = base - step * x
                    if tail:
                        lift = -(-short // tail)
                        if lift > t:
                            t = lift
                    elif short > 0:
                        t = cap
                        break
                if t >= cap:
                    t = cap
                    break
                a = head + (x, t) if cols else (t,)
                if a in gens:
                    break
                cert = poly.contains(tuple(Fraction(v, m) for v in a))
                if cert.verdict == INSIDE:
                    break
                den = math.lcm(*(v.denominator for v in cert.w))
                num = tuple(_scaled(cert.w, den))
                cuts.append((num, den))
                new = [(m * den - sum(map(mul, num, head)), num[k], num[-1])]
                offsets += new
            least.append(t)
            if t < cap:
                yield a


def integral_closure(
    ideal: MonomialIdeal, *, power_of: tuple[NewtonPolyhedron, int] | None = None
) -> MonomialIdeal:
    """Minimal generators of the integral closure: the minimal lattice
    points of the Newton polyhedron.

    The scan is confined to the box below the componentwise maximum M of
    the generators: a polyhedron lattice point with a coordinate above M
    keeps slack >= 1 there, so decrementing that coordinate stays inside
    and the point is not minimal.  It walks the whole box; the normality
    tests take the same scan lazily and stop at their witness.

    ``power_of=(P, m)`` declares that ``ideal`` is the m-th power (m >= 1)
    of ``P.ideal``.  Membership is then decided on m.P, with the LPs over
    the generators of ``P.ideal`` and the cuts cached on P, which all
    powers share; the result is the same.
    """
    poly, m = power_of if power_of is not None else (NewtonPolyhedron(ideal), 1)
    if m < 1:
        raise ValueError(f"the scaled polyhedron needs a power m >= 1, got {m}")
    return MonomialIdeal.from_antichain(ideal.dim, _closure_points(ideal, poly, m))


def first_missing_generator(ideal: MonomialIdeal, points: Iterable[Vec]) -> Vec | None:
    """The first of ``points``, the closure generators of ``ideal`` in
    ascending lex, that lies outside ``ideal``, or None.  Nothing past
    that point is read, so a lazy scan stops there.  A closure generator
    lies in the ideal only if it is an ideal generator: any generator
    below it is in the closure, so minimality makes them equal."""
    gens = set(ideal.generators)
    return next((g for g in points if g not in gens), None)


def is_integrally_closed(ideal: MonomialIdeal) -> tuple[bool, Vec | None]:
    """(True, None), or (False, witness) with the witness a closure
    generator outside the ideal, ascending-lex first.  The closure scan
    stops at the witness."""
    scan = _closure_points(ideal, NewtonPolyhedron(ideal), 1)
    witness = first_missing_generator(ideal, scan)
    return witness is None, witness


@dataclass(frozen=True)
class NormalityVerdict:
    normal: bool
    failing_power: int | None = None
    witness: Vec | None = None


def is_normal(ideal: MonomialIdeal) -> NormalityVerdict:
    """Whether every power is integrally closed.  Powers 1..n-1 decide it
    in n variables (one power in one variable).  Every power is scanned
    on the one polyhedron of the ideal, scaled, with one cut cache, and
    the scan of a failing power stops at its first closure generator
    outside the power, the witness: no LP runs past it."""
    poly = NewtonPolyhedron(ideal)
    top = max(1, ideal.dim - 1)
    for m in range(1, top + 1):
        pw = power(ideal, m)
        witness = first_missing_generator(pw, _closure_points(pw, poly, m))
        if witness is not None:
            return NormalityVerdict(False, failing_power=m, witness=witness)
    return NormalityVerdict(True)
