"""The additive monoid generated by 1/lam_1, .., 1/lam_n inside Q_{>=0}.

Scaling by L = lcm(lam) turns it into the numerical semigroup M of N
generated by omega_i = L / lam_i; gcd(omega) = 1, so M is cofinite.
Membership, the conductor and the default window are answered from the
Apery set of M with respect to m = min(omega): ap[r] is the least
element of M congruent to r mod m, so s lies in M iff s >= ap[s % m],
and the largest gap is max(ap) - m (Nijenhuis 1979).  The set is
computed once per LambdaSpec, in exact ints, and kept on it.  The
window's first level needs all of M below 2L at once, and reads it off
one int bitset instead.

Quasinormality asks that each element s >= L split into floor(s/L)
parts that each stay >= L; this module decides it on a finite window,
which refutes quasinormality definitively but confirms it only on the
window.  The one-element version (does L + 1 split, i.e. lie in M?)
is the almost-quasinormal test that feeds the Rees-algebra criterion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from collections.abc import Sequence
from math import gcd

from .ilambda import LambdaSpec
from .lattice import as_vec

QUASINORMAL_ON_WINDOW = "quasinormal-on-window"
FAILURE = "failure"
VACUOUS = "vacuous"


def membership_table(generators: Sequence[int], bound: int) -> list[bool]:
    """table[s] == s is a nonnegative integer combination of the
    generators, for 0 <= s <= bound.  The generators are taken exactly,
    through ``lattice.as_vec``: 1.5 raises ValueError.

    The brute-force reference: a table as long as the bound, filled
    coin by coin.  The production routes use the Apery set instead; this
    one serves the oracles and the tests that cross-check them.  It is
    the one brute-force helper outside ``oracles``: the benchmark traces
    it as ``monideal.monoid.membership_table``, so it stays here until
    that span target moves."""
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    gens = sorted({g for g in as_vec(generators) if g > 0})
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
    int bitsets per gap per level.  E and its gaps come from one int
    bitset of M below 2L, built by shift-ORs that double the multiple of
    each omega_i; level 2 finds the gaps one at a time, so a window that
    fails at its first gaps never lists the rest.  The Apery set decides
    membership of p*L + e past 2L.  The scan goes p-major, e ascending,
    i.e. in increasing s, and reports the first kept gap with p*L + e in
    M; a gap drops out once p*L + e passes the bound.  A gap kept at
    level p has p*L + e below the conductor, so the last level starts
    within L of the conductor or the bound, whichever is less: the cost
    does not grow with the bound.  A failure refutes quasinormality
    outright; a clean window only confirms it up to the bound.
    """
    L = spec.L
    if bound is None:
        bound = default_window_bound(spec)
    if bound < L:
        return WindowVerdict(VACUOUS, None, bound)
    ap = apery_set(spec)
    m = len(ap)
    # bit s of member is set iff s is in M, for 0 <= s < 2L: {0} closed
    # under each omega_i by doubling, so member gains the multiples
    # w, 2w, .., (2^k - 1)w after k shifts; every member below 2L is a
    # sum of generators whose partial sums all stay below 2L
    top = 2 * L
    mask = (1 << top) - 1
    member = 1
    for w in set(spec.omega):
        while w < top:
            member |= (member << w) & mask
            w += w
    # reach: the sums of at most p-1 coins, with 0; at level 2, the e
    # with L + e in M.  flags[e] == "0" iff e is a gap, and bit L-1-c of
    # coins_rev is set iff L + c is in M, so bit j of coins_rev >> (L-1-e)
    # is set iff e - j is a coin (j = e meets reach's bit e, which a gap
    # never has, so the stray coin 0 splits nothing)
    reach = member >> L
    flags = format(reach, f"0{L}b")[::-1]
    coins_rev = int(flags, 2)
    # the gaps of level 1, ascending, found one at a time: a window that
    # fails at its first gaps never looks at the rest
    pending = map(re.Match.start, re.finditer("0", flags))
    p = 1  # level 1 cannot fail: L + e is not in M for a gap e
    while True:
        p += 1
        base = p * L
        kept = []
        split = 0  # gaps that are sums of exactly p coins
        for e in pending:
            s = base + e
            if s > bound:
                break  # past the bound at every later level too
            if (coins_rev >> (L - 1 - e)) & reach:
                split |= 1 << e
            elif s >= ap[s % m]:
                return WindowVerdict(FAILURE, (s, p), bound)
            else:
                kept.append(e)
        if not kept:
            break
        # reach grows only after the whole level, so it stays the sums of
        # at most p-1 coins while the level is read
        reach |= split
        pending = kept
    return WindowVerdict(QUASINORMAL_ON_WINDOW, None, bound)
