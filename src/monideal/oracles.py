"""Brute-force routes that cross-check the main algorithms.

Everything here decides membership questions by a different method than
the module it checks: closure via the power criterion instead of the
polyhedral solver, splits via exhaustive search over the whole exponent
set instead of minimal-generator recursion, normality via that search
over the whole open box instead of its minimal points, and window
quasinormality via the literal parts-maximization table over a
brute-force membership table instead of the Apery set and the excess
gap levels.
The fixture seeder records these outputs so the test suite can pin them.
"""

from __future__ import annotations

from .ilambda import LambdaSpec, in_gamma
from .lattice import MonomialIdeal, Vec, as_vec, box_enumerate, vec_scale
from .monoid import membership_table
from .newton import power


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
            if spec.omega_dot(a) >= p * spec.L and not split_oracle(spec, a, p):
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
    below p = floor(s/L), or None if the window is clean."""
    L = monoid.L
    if bound < L:
        return None
    member = membership_table(monoid.omega, bound)
    table = max_parts_table(monoid, bound)
    for s in range(L, bound + 1):
        if member[s] and table[s] < s // L:
            return s, s // L
    return None
