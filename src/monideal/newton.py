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
the duals, and only the entering column is formed.  Fractions appear
only when the answer is read off.  Both answers carry rational
certificates that re-verify in integers, once their denominators are
cleared, with no solver state: a feasible basis yields the convex
weights and slack; an infeasible one yields, through the dual values of
the artificial columns, a functional w >= 0 with w.g >= 1 on every
generator but w.a < 1.

Integral closure is the set of lattice points of the polyhedron; its
minimal generators lie below the componentwise maximum of the input
generators, and one staircase walk up the columns of that box, with
certificate reuse, finds them.  An ideal is normal when all its powers
are integrally closed; checking powers 1..n-1 suffices in n variables.

The powers need no polyhedron of their own: NP(I^m) = m.NP(I), so the
closure of I^m is the set of lattice points a with a/m in NP(I).  One
NewtonPolyhedron(I) serves every power.  Its LPs run over the r
generators of I at the point a/m, not over the generators of I^m, and
the outside functionals it learns are kept on it: w, stored as
(numerators, denominator), has w.g >= 1 on NP(I), so num.a < m*den puts
a outside the closure of I^m for every m at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from collections.abc import Iterable, Sequence

from . import lattice
from .lattice import (
    ConsistencyError,
    Frozen,
    MonomialIdeal,
    Vec,
    format_vector,
    minimal_points,
    parse_vector,
    require_same_dim,
)

INSIDE = "inside"
OUTSIDE = "outside"

RatVec = tuple[Fraction, ...]

_F0 = Fraction(0)
_F1 = Fraction(1)


def as_rational_point(point: Iterable) -> RatVec:
    """Coerce to a tuple of Fractions; entries must be nonnegative."""
    p = tuple(Fraction(x) for x in point)
    if any(x < 0 for x in p):
        raise ValueError(f"query points must be nonnegative, got {p}")
    return p


def _scaled(xs: Iterable, q: int) -> list[int]:
    """q * x for each rational x whose denominator divides q, in ints."""
    return [x.numerator * (q // x.denominator) for x in xs]


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational: {text!r}") from None


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
        Fraction prints "3" or "1/2", and ``Fraction()`` parses both."""
        if self.verdict == INSIDE:
            return {
                "verdict": INSIDE,
                "weights": [[format_vector(g), str(wt)] for g, wt in self.terms],
                "slack": ",".join(map(str, self.slack)),
                "denominator": self.denominator,
            }
        return {"verdict": OUTSIDE, "w": [str(x) for x in self.w]}

    @classmethod
    def from_json_dict(cls, data: dict, point: Iterable = ()) -> "MembershipCertificate":
        pt = tuple(Fraction(x) for x in point)
        if data.get("verdict") == INSIDE:
            terms = tuple(
                (parse_vector(g), parse_rational(wt)) for g, wt in data["weights"]
            )
            slack = tuple(parse_rational(s) for s in data["slack"].split(","))
            return cls(INSIDE, pt, terms=terms, slack=slack,
                       denominator=int(data["denominator"]))
        if data.get("verdict") == OUTSIDE:
            return cls(OUTSIDE, pt, w=tuple(parse_rational(x) for x in data["w"]))
        raise ValueError(f"malformed certificate: {data!r}")


def _phase1(gens: Sequence[Vec], point: RatVec):
    """Decide feasibility of the membership system.

    Returns ('inside', weights, slack) with the basic solution, or
    ('outside', w) with the normalized separating functional.

    A revised simplex (Dantzig and Orchard-Hays 1954) over the columns
    A_k = (g_k, 1) of the convex weights, e_j of the slacks and e_i of
    the n + 1 artificials, which form the starting basis B = I.  Only the
    (n+1) x (n+2) integer matrix [d B^-1 | d B^-1 b] and the scaled duals
    Y = d c_B B^-1 are pivoted, with one positive common denominator d,
    fraction-free as in Bareiss elimination and lrs; b is the point
    scaled by q, the lcm of its denominators.  The reduced cost of a
    structural column is -Y.A_j / d, so Bland's rule takes the first
    weight with Y.(g_k, 1) > 0, else the first slack with Y_j > 0, and
    the entering column is d B^-1 A_j, formed only then.  The ratio test
    compares by cross-multiplying, so the basis sequence is that of the
    same simplex over rationals.  Fractions appear only when the answer
    is read off.
    """
    n = len(point)
    r = len(gens)
    width = r + n  # structural columns: convex weights, then slacks
    q = math.lcm(*(x.denominator for x in point))
    rows = []
    for i, b in enumerate(_scaled(point, q) + [q]):
        row = [0] * (n + 2)
        row[i], row[-1] = 1, b
        rows.append(row)
    Y = [1] * (n + 1)
    basis = list(range(width, width + n + 1))  # the artificials
    d = 1

    while True:
        # Bland's rule on the prices f = Y.A_j; artificials never re-enter
        yn = Y[n]
        for enter, g in enumerate(gens):
            f = sum(map(mul, Y, g)) + yn
            if f > 0:
                col = [sum(map(mul, row, g)) + row[n] for row in rows]
                break
        else:
            j = next((j for j in range(n) if Y[j] > 0), None)
            if j is None:
                break
            enter, f = r + j, Y[j]
            col = [row[j] for row in rows]
        leave = None
        for i, a in enumerate(col):
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # b_i / a < b_l / a_l, with both a positive
                lhs, rhs = rows[i][-1] * col[leave], rows[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ConsistencyError("phase-1 simplex claims an unbounded objective")
        # every other row becomes (row * piv - c * prow) / d, and Y
        # likewise with the entering price f.  Each entry is then a minor
        # of the integer start tableau, so the division is exact (Bareiss)
        prow = rows[leave]
        piv = col[leave]
        for i, c in enumerate(col):
            if i == leave:
                continue
            if c:
                rows[i] = [(v * piv - c * p) // d for v, p in zip(rows[i], prow)]
            else:
                rows[i] = [v * piv // d for v in rows[i]]
        Y = [(y * piv - f * p) // d for y, p in zip(Y, prow)]
        basis[leave] = enter
        d = piv

    residual = sum(row[-1] for row, b in zip(rows, basis) if b >= width)
    if residual == 0:
        x = [_F0] * width
        for row, b in zip(rows, basis):
            if b < width:
                x[b] = Fraction(row[-1], d * q)
        return INSIDE, tuple(x[:r]), tuple(x[r:])

    # infeasible: the duals of the artificial columns are y_i = Y_i / d.
    # The functional w = -y_j / y_n, normalized to min w.g = 1, is
    # u / min(u.g) for u = -Y[:n], since the positive factor d * y_n
    # cancels; min w.g < 1 iff min u.g < Y_n.
    if Y[n] <= 0 or any(Y[j] > 0 for j in range(n)):
        raise ConsistencyError("phase-1 dual has the wrong sign pattern")
    u = [-Y[j] for j in range(n)]
    m = min(sum(uj * gj for uj, gj in zip(u, g)) for g in gens)
    if m < Y[n]:
        raise ConsistencyError("separating functional fails on a generator")
    return OUTSIDE, tuple(Fraction(uj, m) for uj in u), None


class NewtonPolyhedron(Frozen):
    """Membership oracle for conv(generators) + R^n_{>=0} of one ideal.

    ``_cuts`` caches the outside functionals found by ``contains_scaled``
    as (numerators, denominator) pairs; it only ever grows, and pickling
    or copying starts it afresh.
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
        verdict, a, b = _phase1(self.ideal.generators, p)
        if verdict == INSIDE:
            weights, slack = a, b
            terms = tuple(
                (g, wt) for g, wt in zip(self.ideal.generators, weights) if wt > 0
            )
            denom = math.lcm(*(wt.denominator for _, wt in terms))
            cert = MembershipCertificate(
                INSIDE, p, terms=terms, slack=slack, denominator=denom
            )
        else:
            cert = MembershipCertificate(OUTSIDE, p, w=a)
        if not cert.verify(self):
            raise ConsistencyError(f"certificate failed re-verification: {cert}")
        return cert

    def contains_scaled(self, a: Vec, m: int) -> bool:
        """Whether a/m lies in the polyhedron, i.e. whether the lattice
        point a lies in m.NP(I) = NP(I^m).  The cached cuts are tried
        first; only when none separates does an LP run, through
        ``contains`` with its re-verified certificate, and an outside
        verdict adds its functional to the cache."""
        for num, den in self._cuts:
            if sum(map(mul, num, a)) < m * den:
                return False
        cert = self.contains(tuple(Fraction(x, m) for x in a))
        if cert.verdict == INSIDE:
            return True
        den = math.lcm(*(x.denominator for x in cert.w))
        self._cuts.append((tuple(_scaled(cert.w, den)), den))
        return False


def _affine_dependence(points: Sequence[RatVec]) -> list[Fraction] | None:
    """A nonzero c with sum c_i p_i = 0 and sum c_i = 0, or None if the
    points are affinely independent.  Deterministic: reduced row echelon
    form, first free column set to one."""
    m = len(points)
    n = len(points[0]) if m else 0
    rows = [[Fraction(p[j]) for p in points] for j in range(n)]
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
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if not pts:
        return True
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
    pts = [tuple(Fraction(x) for x in p) for p in points]
    wts = [Fraction(x) for x in weights]
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
    generators are already minimal."""
    if m < 0:
        raise ValueError(f"power must be nonnegative, got {m}")
    if m == 0:
        return MonomialIdeal(ideal.dim, [(0,) * ideal.dim])
    if m == 1:
        return ideal
    sums = {
        tuple(map(sum, zip(*combo)))
        for combo in itertools.combinations_with_replacement(ideal.generators, m)
    }
    return MonomialIdeal.from_antichain(ideal.dim, lattice.minimalize(sums))


def integral_closure(
    ideal: MonomialIdeal, *, power_of: tuple[NewtonPolyhedron, int] | None = None
) -> MonomialIdeal:
    """Minimal generators of the integral closure: the minimal lattice
    points of the Newton polyhedron.

    The scan is confined to the box below the componentwise maximum M of
    the generators: a polyhedron lattice point with a coordinate above M
    keeps slack >= 1 there, so decrementing that coordinate stays inside
    and the point is not minimal.

    ``power_of=(P, m)`` declares that ``ideal`` is the m-th power (m >= 1)
    of ``P.ideal``.  Membership is then decided on m.P, with the LPs over
    the generators of ``P.ideal`` and the cuts cached on P, which all
    powers share; the result is the same.

    The scan is ascending lex and the polyhedron is up-closed, so a point
    reaches the membership test only when no generator found so far lies
    below it.  Such a point lies in the ideal only if it is one of its
    generators: any generator below it is in the closure and comes
    earlier in the scan, so it would have been found or dominated.  A set
    lookup therefore replaces the ideal membership test.

    Each column c = (a_1..a_{n-1}) jumps to its floor by the cached cuts
    before any LP: a cut (num, den) with num_n > 0 lifts the height t to
    ceil((m*den - num'.c) / num_n), and one with num_n = 0 that c
    violates closes the column.  The heights jumped over are exactly
    those a cached cut rejects, so the same LPs run, in the same order,
    as on a climb one height at a time.  An outside LP adds one cut,
    which is applied and the column jumps again.
    """
    poly, m = power_of if power_of is not None else (NewtonPolyhedron(ideal), 1)
    if m < 1:
        raise ValueError(f"the scaled polyhedron needs a power m >= 1, got {m}")
    dim = ideal.dim
    bounds = tuple(max(g[j] for g in ideal.generators) for j in range(dim))
    gens = set(ideal.generators)
    cuts = poly._cuts

    def floor(col: Vec, cap: int) -> int:
        t, new = 0, cuts
        while True:
            # every cut's numerators are >= 0; map stops at the end of col
            for num, den in new:
                short = m * den - sum(map(mul, num, col))
                if num[-1]:
                    t = max(t, -(-short // num[-1]))
                elif short > 0:
                    return cap
            if t >= cap:
                return cap
            a = col + (t,)
            if a in gens or poly.contains_scaled(a, m):
                return t
            new = cuts[-1:]  # the one cut the outside LP added

    return MonomialIdeal.from_antichain(dim, minimal_points(bounds, floor))


def first_missing_generator(ideal: MonomialIdeal, closure: MonomialIdeal) -> Vec | None:
    """The ascending-lex first generator of ``closure`` (the integral
    closure of ``ideal``) that lies outside ``ideal``, or None.  A closure
    generator lies in the ideal only if it is an ideal generator: any
    generator below it is in the closure, so minimality makes them equal."""
    gens = set(ideal.generators)
    return min((g for g in closure.generators if g not in gens), default=None)


def is_integrally_closed(ideal: MonomialIdeal) -> tuple[bool, Vec | None]:
    """(True, None), or (False, witness) with the witness a closure
    generator outside the ideal, ascending-lex first."""
    witness = first_missing_generator(ideal, integral_closure(ideal))
    return witness is None, witness


@dataclass(frozen=True)
class NormalityVerdict:
    normal: bool
    failing_power: int | None = None
    witness: Vec | None = None


def is_normal(ideal: MonomialIdeal) -> NormalityVerdict:
    """Whether every power is integrally closed.  Powers 1..n-1 decide it
    in n variables (one power in one variable).  Every power is scanned
    on the one polyhedron of the ideal, scaled, with one cut cache."""
    poly = NewtonPolyhedron(ideal)
    top = max(1, ideal.dim - 1)
    for m in range(1, top + 1):
        pw = power(ideal, m)
        witness = first_missing_generator(pw, integral_closure(pw, power_of=(poly, m)))
        if witness is not None:
            return NormalityVerdict(False, failing_power=m, witness=witness)
    return NormalityVerdict(True)
