"""The additive monoid generated by 1/lam_1, .., 1/lam_n inside Q_{>=0}.

Scaling by L = lcm(lam) turns it into the numerical semigroup M of N
generated by omega_i = L / lam_i; gcd(omega) = 1, so M is cofinite.
Every question here is answered from the Apery set of M with respect to
m = min(omega): ap[r] is the least element of M congruent to r mod m, so
s lies in M iff s >= ap[s % m], and the largest gap is max(ap) - m
(Nijenhuis 1979).  The set is computed once per LambdaSpec, in exact
ints, and kept on it.

Quasinormality asks that each element s >= L split into floor(s/L)
parts that each stay >= L; this module decides it on a finite window,
which refutes quasinormality definitively but confirms it only on the
window.  The one-element version (does L + 1 split, i.e. lie in M?)
is the almost-quasinormal test that feeds the Rees-algebra criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from math import gcd

from .ilambda import LambdaSpec

QUASINORMAL_ON_WINDOW = "quasinormal-on-window"
FAILURE = "failure"
VACUOUS = "vacuous"


def membership_table(generators: Sequence[int], bound: int) -> list[bool]:
    """table[s] == s is a nonnegative integer combination of the
    generators, for 0 <= s <= bound.

    The brute-force reference: a table as long as the bound, filled
    coin by coin.  The production routes use the Apery set instead; this
    one serves the oracles and the tests that cross-check them.  It is
    the one brute-force helper outside ``oracles``: the benchmark traces
    it as ``monideal.monoid.membership_table``, so it stays here until
    that span target moves."""
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


def apery_set(spec: LambdaSpec) -> tuple[int, ...]:
    """ap[r] = the least element of M congruent to r mod m = min(omega),
    for 0 <= r < m.  Computed on the first call and kept on the spec.

    Round-robin (Boecker and Liptak 2007): add the generators one at a
    time; for each, walk every cycle of residues r, r + a, r + 2a, ..
    (mod m) from its least entry, relaxing ap[r + a] with ap[r] + a."""
    if spec._apery is None:
        omega = spec.omega
        m = min(omega)
        # An Apery element is a sum of at most m - 1 generators (a longer
        # sum has a nonempty subsum divisible by m), so n + a below never
        # reaches this marker for a residue not yet reached.
        unreached = m * max(omega) + 1
        ap = [0] + [unreached] * (m - 1)
        for a in set(omega) - {m}:
            d = gcd(a, m)
            for r in range(d):
                n = min(ap[r::d])
                if n == unreached:
                    continue
                for _ in range(m // d - 1):
                    n += a
                    q = n % m
                    if ap[q] < n:
                        n = ap[q]
                    else:
                        ap[q] = n
        object.__setattr__(spec, "_apery", tuple(ap))
    return spec._apery


def in_M(spec: LambdaSpec, s: int) -> bool:
    """Membership of the integer s in the scaled monoid."""
    if s < 0:
        return False
    ap = apery_set(spec)
    return s >= ap[s % len(ap)]


def almost_quasinormal(spec: LambdaSpec) -> bool:
    """Whether L + 1 lies in the scaled monoid.  This is the one-element
    shadow of quasinormality and the combinatorial side of the
    codimension-one regularity criterion."""
    return in_M(spec, spec.L + 1)


def conductor(spec: LambdaSpec) -> int:
    """Smallest c such that every integer at or above c lies in M: one
    more than the largest gap max(ap) - m, or 0 when 1 is a generator."""
    ap = apery_set(spec)
    return max(ap) - len(ap) + 1


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
    E = {1 <= e < L : L + e in M}, with repetition.  Every e in E is one
    such coin, so only the gaps of E need more.  Level p keeps the gaps
    that are no sum of at most p coins: a gap leaves it when e - j lies
    in E for some sum j of at most p - 1 coins, which is one AND of two
    int bitsets per gap per level.  The scan goes p-major, e ascending,
    i.e. in increasing s, and reports the first kept gap with p*L + e in
    M; a gap drops out once p*L + e passes the bound.  After a level
    that removes no gap only the membership checks go on, and they end
    at the conductor, so the cost does not grow with the bound.  A
    failure refutes quasinormality outright; a clean window only
    confirms it up to the bound.
    """
    L = spec.L
    if bound is None:
        bound = default_window_bound(spec)
    if bound < L:
        return WindowVerdict(VACUOUS, None, bound)
    ap = apery_set(spec)
    m = len(ap)
    flags = ["0"] * L  # flags[e] == "1" iff e is in E
    pending = []  # gaps e with no split at the current level, ascending
    for e in range(1, L):
        s = L + e
        if s >= ap[s % m]:
            flags[e] = "1"
        else:
            pending.append(e)
    # bit L-1-c of coins_rev is set iff c is in E, so bit j of
    # coins_rev >> (L-1-e) is set iff e - j is in E
    coins_rev = int("".join(flags), 2)
    reach = int("".join(reversed(flags)), 2) | 1  # sums of at most p-1 coins
    growing = True
    p = 1  # level 1 cannot fail: L + e is not in M for a gap e
    while pending:
        p += 1
        base = p * L
        kept = []
        split = 0  # gaps that are sums of exactly p coins
        for e in pending:
            s = base + e
            if s > bound:
                break  # past the bound at every later level too
            if growing and (coins_rev >> (L - 1 - e)) & reach:
                split |= 1 << e
            elif s >= ap[s % m]:
                return WindowVerdict(FAILURE, (s, p), bound)
            else:
                kept.append(e)
        # reach grows only after the whole level, so it stays the sums of
        # at most p-1 coins while the level is read
        if split:
            reach |= split
        else:
            growing = False  # fixpoint: only the membership checks remain
        pending = kept
    return WindowVerdict(QUASINORMAL_ON_WINDOW, None, bound)
