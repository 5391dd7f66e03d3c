"""Brute-force routes that cross-check the main algorithms.

Everything here decides membership questions by a different method than
the module it checks: closure via the power criterion instead of the
polyhedral solver, splits via exhaustive search over the whole exponent
set instead of minimal-generator recursion, normality via that search
over the whole open box instead of its minimal points, and window
quasinormality via the literal parts-maximization table over a
brute-force membership table instead of the bitset of the monoid and
the excess gap levels.
The fixture seeder records these outputs so the test suite can pin them.

This module is the one home of the brute-force layer, and no production
module imports it.  Its helpers: the componentwise order ``le_pr``,
``vec_scale`` and ``dot`` on vectors, the ascending-lex box walk
``box_enumerate``, and on the pure-power route ``omega_dot`` and the
membership test ``in_gamma``.  The one exception is
``monoid.membership_table``: the benchmark traces it by that module
path, so it stays in ``monoid`` until the benchmark's span target moves.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator

from .ilambda import LambdaSpec
from .lattice import MonomialIdeal, Vec, as_vec, require_same_dim
from .monoid import membership_table
from .newton import power


def le_pr(a: Vec, b: Vec) -> bool:
    """Componentwise order: a <= b in every coordinate (x^a divides x^b)."""
    require_same_dim(a, b)
    return all(x <= y for x, y in zip(a, b))


def vec_scale(m: int, a: Vec) -> Vec:
    return tuple(m * x for x in a)


def dot(a, b):
    """Inner product; works for int and Fraction entries alike."""
    require_same_dim(a, b)
    return sum(x * y for x, y in zip(a, b))


def box_enumerate(
    bounds: Vec, predicate: Callable[[Vec], bool] | None = None
) -> Iterator[Vec]:
    """Stream the integer points 0 <= a <= bounds in ascending
    lexicographic order, optionally filtered.  The order is part of the
    contract: witness selection downstream relies on it."""
    bounds = as_vec(bounds)
    if any(b < 0 for b in bounds):
        raise ValueError(f"box bounds must be nonnegative, got {bounds}")
    for point in itertools.product(*(range(b + 1) for b in bounds)):
        if predicate is None or predicate(point):
            yield point


def omega_dot(spec: LambdaSpec, a: Iterable[int]) -> int:
    """omega . a, with a dimension check; a may be any iterable."""
    return dot(spec.omega, tuple(a))


def in_gamma(spec: LambdaSpec, a: Iterable[int]) -> bool:
    """Membership of a in the closure exponent set: omega . a >= L."""
    a = as_vec(a)
    if any(x < 0 for x in a):
        return False
    return omega_dot(spec, a) >= spec.L


def power_membership(ideal: MonomialIdeal, a, max_power: int = 8) -> int | None:
    """Smallest m <= max_power with m*a in the exponent set of the m-th
    power, or None.  A found m certifies that a lies in the integral
    closure; None certifies nothing (the criterion may need a larger m)."""
    a = as_vec(a)
    for m in range(1, max_power + 1):
        if power(ideal, m).contains(vec_scale(m, a)):
            return m
    return None


def closure_oracle(ideal: MonomialIdeal, max_power: int = 8) -> MonomialIdeal:
    """Closure generators via the power criterion over the generator box.
    One-directional: every reported generator is genuinely in the closure,
    but points whose smallest certifying power exceeds max_power are
    missed."""
    bounds = tuple(
        max(g[j] for g in ideal.generators) for j in range(ideal.dim)
    )
    powers = [power(ideal, m) for m in range(1, max_power + 1)]
    found = [
        a
        for a in box_enumerate(bounds)
        if any(powers[m - 1].contains(vec_scale(m, a)) for m in range(1, max_power + 1))
    ]
    return MonomialIdeal(ideal.dim, found)


def split_oracle(spec: LambdaSpec, a, p: int) -> bool:
    """Exhaustive split search: does a decompose into p closure-set parts?
    Unlike the production recursion this tries every exponent-set point
    below a as the first part, not just minimal generators."""
    a = as_vec(a)
    if p < 1:
        raise ValueError(f"part count must be positive, got {p}")

    def rec(v: Vec, k: int) -> bool:
        if k == 1:
            return in_gamma(spec, v)
        for part in box_enumerate(v, lambda b: in_gamma(spec, b)):
            if rec(tuple(x - y for x, y in zip(v, part)), k - 1):
                return True
        return False

    return rec(a, p)


def normality_oracle(spec: LambdaSpec) -> tuple[int, Vec] | None:
    """The first (p, a), p from 1 outermost and a in ascending lex over
    the whole open box a < lam, with omega . a >= p * L that split_oracle
    cannot split into p parts, or None.  The normality criterion read
    literally: no fast path and no restriction to minimal points."""
    box = tuple(v - 1 for v in spec.lam)
    for p in range(1, spec.n):
        for a in box_enumerate(box):
            if omega_dot(spec, a) >= p * spec.L and not split_oracle(spec, a, p):
                return p, a
    return None


def max_parts_table(monoid: LambdaSpec, bound: int) -> list[int]:
    """maxParts[s] = largest k such that s is a sum of k monoid elements
    that are each >= L, or 0 if there is no such split (and for s < L).
    This is the literal maximization table; the production window check
    uses the excess reformulation instead."""
    L = monoid.L
    member = membership_table(monoid.omega, bound)
    parts = [t for t in range(L, bound + 1) if member[t]]
    table = [0] * (bound + 1)
    for s in range(L, bound + 1):
        best = 0
        for t in parts:
            if t > s:
                break
            if t == s:
                best = max(best, 1)
            else:
                sub = table[s - t]
                if sub > 0 and sub + 1 > best:
                    best = sub + 1
        table[s] = best
    return table


def window_split_oracle(monoid: LambdaSpec, bound: int) -> tuple[int, int] | None:
    """First (s, p) in [L, bound] with s in the monoid but maxParts(s)
    below p = floor(s/L), or None if the window is clean.  For s >= L,
    maxParts(s) >= 1 iff s is in the monoid: s is its own one-part
    split, and a sum of members is a member."""
    L = monoid.L
    if bound < L:
        return None
    table = max_parts_table(monoid, bound)
    for s in range(L, bound + 1):
        if 0 < table[s] < s // L:
            return s, s // L
    return None
