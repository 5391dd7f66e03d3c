"""Shared corpus builders for the test suite."""

import itertools
import random

from monideal import MonomialIdeal
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


def climb(member):
    """A ``minimal_points`` floor that climbs the column one height at a
    time, asking ``member`` at each, up to the cap."""

    def floor(col, cap):
        t = 0
        while t < cap and not member(col + (t,)):
            t += 1
        return t

    return floor
