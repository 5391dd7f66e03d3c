"""The additive monoid generated by 1/lam_1, .., 1/lam_n inside Q_{>=0}.

Scaling by L = lcm(lam) turns it into the numerical-semigroup-like
submonoid M of N generated by omega_i = L / lam_i, so every question here
is a coin problem and is answered by dynamic programming over exact
integers; each function takes the LambdaSpec whose omega generates M.
Quasinormality asks that each element s >= L split into floor(s/L)
parts that each stay >= L; this module decides it on a finite window,
which refutes quasinormality definitively but confirms it only on the
window.  The one-element version (does L + 1 split, i.e. lie in M?)
is the almost-quasinormal test that feeds the Rees-algebra criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .ilambda import LambdaSpec

QUASINORMAL_ON_WINDOW = "quasinormal-on-window"
FAILURE = "failure"
VACUOUS = "vacuous"


def membership_table(generators: Sequence[int], bound: int) -> list[bool]:
    """table[s] == s is a nonnegative integer combination of the
    generators, for 0 <= s <= bound."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    gens = sorted({int(g) for g in generators if g > 0})
    table = [False] * (bound + 1)
    table[0] = True
    for s in range(1, bound + 1):
        for g in gens:
            if g > s:
                break
            if table[s - g]:
                table[s] = True
                break
    return table


def in_M(spec: LambdaSpec, s: int) -> bool:
    """Membership of the integer s in the scaled monoid."""
    if s < 0:
        return False
    return membership_table(spec.omega, s)[s]


def almost_quasinormal(spec: LambdaSpec) -> bool:
    """Whether L + 1 lies in the scaled monoid.  This is the one-element
    shadow of quasinormality and the combinatorial side of the
    codimension-one regularity criterion."""
    return in_M(spec, spec.L + 1)


def conductor(spec: LambdaSpec) -> int:
    """Smallest c such that every integer at or above c lies in M.

    The generators omega are coprime, so M is cofinite; the scan stops at
    the first run of min(omega) consecutive members, after which every
    integer is reachable by adding generators.
    """
    omega = spec.omega
    step = min(omega)
    if step == 1:
        return 0
    bound = step * max(omega) + step + 1
    while True:
        table = membership_table(omega, bound)
        run = 0
        for s in range(bound + 1):
            run = run + 1 if table[s] else 0
            if run == step:
                return s - step + 1
        bound *= 2  # coprimality guarantees the run exists


def default_window_bound(spec: LambdaSpec) -> int:
    """The default verification window: max(4nL, 2(L + conductor))."""
    return max(4 * spec.n * spec.L, 2 * (spec.L + conductor(spec)))


@dataclass(frozen=True)
class WindowVerdict:
    status: str  # "quasinormal-on-window" | "failure" | "vacuous"
    witness: tuple[int, int] | None  # (s, p) for the first failure
    bound: int


def quasinormal_window(spec: LambdaSpec, bound: int | None = None) -> WindowVerdict:
    """Check the split condition for every monoid element s in [L, bound]:
    with p = floor(s/L), s must be a sum of p monoid elements each >= L.

    Only the maximal p needs checking, since parts of a p-split can merge
    into any coarser one.  Writing s = p*L + e and each part as L + e_i,
    the split exists iff the excess e is a sum of at most p elements of
    E = {e >= 1 : L + e in M}; a minimum-coin table over E decides every
    s in the window at once.  A failure refutes quasinormality outright;
    a clean window only confirms it up to the bound.
    """
    L = spec.L
    if bound is None:
        bound = default_window_bound(spec)
    if bound < L:
        return WindowVerdict(VACUOUS, None, bound)
    member = membership_table(spec.omega, max(bound, 2 * L - 1))
    coins = [e for e in range(1, L) if member[L + e]]
    INF = bound + 1  # parts needed never exceeds e < L <= bound
    best = [INF] * L
    best[0] = 0
    for e in range(1, L):
        b = INF
        for c in coins:
            if c > e:
                break
            prev = best[e - c]
            if prev + 1 < b:
                b = prev + 1
        best[e] = b
    for s in range(L, bound + 1):
        if member[s]:
            p, e = divmod(s, L)
            if best[e] > p:
                return WindowVerdict(FAILURE, (s, p), bound)
    return WindowVerdict(QUASINORMAL_ON_WINDOW, None, bound)
