"""Shared corpus builders and reference scans for the test suite."""

import itertools
import math
import random
from fractions import Fraction

from monideal import MonomialIdeal, newton
from monideal.oracles import le_pr


def antichains_2d(max_exp):
    """Every antichain in [0, max_exp]^2, i.e. every distinct nonzero
    monomial ideal with generators in that box, as a tuple of points.

    An antichain in the plane pairs strictly increasing x values with
    strictly decreasing y values, so enumerating a subset per coordinate
    hits each one exactly once.
    """
    vals = range(max_exp + 1)
    for k in range(1, max_exp + 2):
        for xs in itertools.combinations(vals, k):
            for ys in itertools.combinations(vals, k):
                yield tuple((x, y) for x, y in zip(xs, sorted(ys, reverse=True)))


def scaled_closure(poly, m):
    """The closure of I^m, I = ``poly.ideal``, scanned on m.NP(I) with the
    cut cache of ``poly``: the scan of ``power_closure``, on a polyhedron
    that the caller keeps across powers and can read."""
    pw = newton.power(poly.ideal, m)
    return MonomialIdeal.from_antichain(pw.dim, newton._closure_points(pw, poly, m))


def random_ideal_corpus(count, seed, max_dim=3, max_exp=4, max_gens=5):
    """Reproducible random nonzero ideals; dimensions 1..max_dim."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(1, max_dim)
        gens = {
            tuple(rng.randint(0, max_exp) for _ in range(dim))
            for _ in range(rng.randint(1, max_gens))
        }
        out.append(MonomialIdeal(dim, gens))
    return out


def pairwise_minimal(points):
    """Reference minimalization: the points no other point lies below,
    descending lex."""
    distinct = set(points)
    return tuple(
        sorted(
            (p for p in distinct if not any(q != p and le_pr(q, p) for q in distinct)),
            reverse=True,
        )
    )


def minimal_points(bounds, floor):
    """The reference staircase: the minimal points, ascending lex, of an
    up-closed set S restricted to the box 0 <= a <= bounds, yielded as
    the walk finds them.

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

    A point is yielded right after the floor call of its column, before
    the next column is asked, so a caller that stops at the first point
    it wants makes no floor call past that point's column.  The Newton
    closure scan walks the same staircase with its floor inline.
    """
    *cols, top = bounds
    if not cols:
        t = floor((), top + 1)
        if t <= top:
            yield (t,)
        return
    # least[k] is the least member height of the k-th column in product
    # order.  A row is a run of columns that differ only in their last
    # coordinate.  For a head coordinate i, the columns c - e_i of a whole
    # row lie strides[i] places back, as one slice of least
    *heads, last = cols
    width = last + 1
    strides = [math.prod(b + 1 for b in cols[i + 1 :]) for i in range(len(heads))]
    full = [top + 1] * width
    least = []
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
                yield head + (x, t)


def climb(member):
    """A ``minimal_points`` floor that climbs the column one height at a
    time, asking ``member`` at each, up to the cap."""

    def floor(col, cap):
        t = 0
        while t < cap and not member(col + (t,)):
            t += 1
        return t

    return floor


def lex_min_blocker(gens):
    """Reference lex-min point of the blocker {w >= 0 : w.g >= 1 for every
    generator g}, in Fractions: each w_k in turn is the least value that
    the generators with no entry past k allow once w_1..w_{k-1} are
    fixed.  Returned as (num, den) in lowest terms, or None when a
    generator is zero."""
    if not all(any(g) for g in gens):
        return None
    w = []
    for k in range(len(gens[0])):
        bounds = [
            (1 - sum(map(Fraction.__mul__, w, g), Fraction(0))) / g[k]
            for g in gens
            if g[k] and not any(g[k + 1 :])
        ]
        w.append(max([Fraction(0), *bounds]))
    den = math.lcm(*(x.denominator for x in w))
    return tuple(int(x * den) for x in w), den
