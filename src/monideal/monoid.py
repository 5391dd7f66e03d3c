"""The additive monoid generated by 1/lam_1, .., 1/lam_n inside Q_{>=0}.

Scaling by L = lcm(lam) turns it into the numerical semigroup M of N
generated by omega_i = L / lam_i; gcd(omega) = 1, so M is cofinite.
M is held as one int bitset, computed once per LambdaSpec and kept on
it: bit s is set iff s lies in M, for every s below a top that runs past
the conductor c, and every s >= c lies in M.  Membership, the conductor,
the default window and the window's coins and failure test all read
this one bitset; single bits, as membership and the failure test ask
for them, are read from its bytes at constant cost.

Quasinormality asks that each element s >= L split into floor(s/L)
parts that each stay >= L.  This module checks it on a finite window
[L, bound], and any bound >= max(L, c + L - 1) decides it exactly: the
least failure, if there is one, lies below c + L (proved in
``quasinormal_window``), and the default bound is such a bound.  The
one-element version (does L + 1 split, i.e. lie in M?) is the
almost-quasinormal test that feeds the Rees-algebra criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .ilambda import LambdaSpec
from .lattice import as_int, as_vec

# _REV8[b] is the byte b with its 8 bits in reverse order
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))

QUASINORMAL_ON_WINDOW = "quasinormal-on-window"
FAILURE = "failure"
VACUOUS = "vacuous"


def membership_table(generators: Sequence[int], bound: int) -> list[bool]:
    """table[s] == s is a nonnegative integer combination of the
    generators, for 0 <= s <= bound.  The generators are taken exactly,
    through ``lattice.as_vec``: 1.5 raises ValueError.

    The brute-force reference: a table as long as the bound, filled
    coin by coin.  The production routes read one int bitset of M
    instead; this one serves the oracles and the tests that cross-check
    them.  It is the one brute-force helper outside ``oracles``: the
    benchmark traces it as ``monideal.monoid.membership_table``, so it
    stays here until that span target moves."""
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


def _monoid(spec: LambdaSpec) -> tuple[int, int, bytes]:
    """(member, c, view): bit s of member is set iff s is in M, for
    0 <= s < top, c is the conductor, with c <= top - m for
    m = min(omega), and view is member as little-endian bytes, so that
    bit s is view[s >> 3] >> (s & 7) & 1, one read at constant cost.
    Computed on the first call and kept on the spec.

    {0} is closed under each omega_i by doubling, so member gains the
    multiples w, 2w, .., (2^k - 1)w after k shifts; every member below
    top is a sum of generators whose partial sums all stay below top.
    top starts at 2L, all the window reads, and doubles until its last m
    bits are all set: then every s >= top - m is in M, since m is, and the
    last gap lies below them.  M is cofinite, so the doubling ends."""
    if spec._monoid is None:
        omega = set(spec.omega)
        m = min(omega)
        top = 2 * spec.L
        while True:
            mask = (1 << top) - 1
            member = 1
            for w in omega:
                while w < top:
                    member |= (member << w) & mask
                    w += w
            if member >> (top - m) == (1 << m) - 1:
                break
            top += top
        c = (~member & mask).bit_length()
        view = member.to_bytes((top + 7) // 8, "little")
        object.__setattr__(spec, "_monoid", (member, c, view))
    return spec._monoid


def in_M(spec: LambdaSpec, s: int) -> bool:
    """Membership of the integer s in the scaled monoid.  s is taken
    exactly, through ``lattice.as_int``: 43.0 is 43, and 44.5, nan and
    inf raise ValueError."""
    s = as_int(s, "monoid element")
    _, c, view = _monoid(spec)
    return s >= 0 and (s >= c or bool(view[s >> 3] >> (s & 7) & 1))


def almost_quasinormal(spec: LambdaSpec) -> bool:
    """Whether L + 1 lies in the scaled monoid.  This is the one-element
    shadow of quasinormality and the combinatorial side of the
    codimension-one regularity criterion."""
    return in_M(spec, spec.L + 1)


def conductor(spec: LambdaSpec) -> int:
    """Smallest c such that every integer at or above c lies in M: one
    more than the largest gap, or 0 when 1 is a generator."""
    return _monoid(spec)[1]


def default_window_bound(spec: LambdaSpec) -> int:
    """The default verification window: max(4nL, 2(L + conductor)).  It
    is at least max(L, L + conductor - 1), so the window decides
    quasinormality exactly (see ``quasinormal_window``)."""
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
    that are no sum of at most p coins: a gap e leaves it when e - j is a
    sum of at most p - 1 coins for some coin j.  E and its gaps are read
    off the bitset of M between L and 2L, and each level holds its
    pending gaps as one int bitset.  Past 2L, p*L + e is in M iff it
    reaches the conductor or its bit is set.

    Each level first sweeps its smallest coins over all its gaps at once:
    coin j, ascending, clears every gap with e - j among the sums of at
    most p - 1 coins, one shift and AND of the whole bitset.  The sweep
    stops when no gap is left, when the lowest gap left is below j (no
    larger coin splits it either), or when it has tried as many coins as
    gaps are left, since from there one test per gap costs no more.  The
    gaps left are then tested one at a time, ascending, each against all
    coins with one AND of two int bitsets.  The sweep clears only gaps
    that the per-gap test would split too, so the level keeps the same
    gaps and reports the same first failure: the scan goes p-major, e
    ascending, i.e. in increasing s, and reports the first kept gap with
    p*L + e in M.  A window whose first gap lies below its first coin,
    as a window that fails at its first gaps mostly does, goes straight
    to the per-gap tests.  A gap kept at level p has p*L + e below the
    conductor, so the last level starts within L of the conductor.

    The levels do not read the bound: the search runs to the least
    failure, which lies below c + L (proved below), or to the end of the
    gaps, and the bound decides only whether that failure is reported; a
    failure past the bound gives a clean window.  So the cost neither
    grows nor shrinks with the bound.  A bound below L gives a vacuous
    window.

    Any bound >= max(L, c + L - 1), c the conductor, decides
    quasinormality exactly, and so does the default bound,
    max(4nL, 2(L + c)).  Write R_p for the sums of at most p coins of E,
    so that s = p*L + e splits iff e is in R_p, and let s = p*L + e be
    the least failure.  Then p >= 2: a member L + e has e = 0 or e in E,
    and is its own one-part split.  Take s' = (p-1)*L + e.  At p = 2,
    s' = L + e is not in M, since e is neither 0 nor in E.  At p >= 3,
    s' in M would make s' a smaller failure, since e is not in R_(p-1),
    a subset of R_p.  So s' is not in M, s' < c, and s < c + L.  The
    scan reports the first failure in increasing s, so any bound
    >= c + L - 1 gives the answer of an unbounded window, and a bound
    >= L keeps the window from being vacuous when c = 0.  A clean window
    at such a bound proves quasinormality; a failure refutes it at any
    bound.
    """
    L = spec.L
    bound = default_window_bound(spec) if bound is None else as_int(bound, "bound")
    if bound < L:
        return WindowVerdict(VACUOUS, None, bound)
    member, c, view = _monoid(spec)
    # reach: the sums of at most p-1 coins, with 0; at level 2, the e
    # with L + e in M, so bit e of coins is set iff e is 0 or a coin.
    # coins_rev is coins with its L bits reversed: bit L-1-d is set iff
    # L + d is in M, so bit j of coins_rev >> (L-1-e) is set iff e - j is
    # a coin (j = e meets reach's bit e, which a gap never has, so the
    # stray coin 0 splits nothing, and the sweep skips it)
    reach = coins = (member >> L) & ((1 << L) - 1)
    size = (L + 7) // 8
    coins_rev = int.from_bytes(coins.to_bytes(size, "big").translate(_REV8), "little")
    coins_rev >>= 8 * size - L
    pending = reach ^ ((1 << L) - 1)  # the gaps of level 1, as a bitset
    p = 1  # level 1 cannot fail: L + e is not in M for a gap e
    while pending:
        p += 1
        base = p * L
        # the coin sweep: each coin j, ascending, splits at once every
        # pending gap e with e - j in reach
        rest, tried, untried = pending, 0, coins ^ 1
        while untried:
            low = untried & -untried
            j = low.bit_length() - 1
            if not rest or rest & ((2 << j) - 1) or tried >= rest.bit_count():
                break
            untried ^= low
            rest &= ~(reach << j)
            tried += 1
        kept = 0
        while rest:
            low = rest & -rest
            rest ^= low
            e = low.bit_length() - 1
            if (coins_rev >> (L - 1 - e)) & reach:
                continue
            s = base + e
            if s >= c or view[s >> 3] >> (s & 7) & 1:
                if s > bound:
                    return WindowVerdict(QUASINORMAL_ON_WINDOW, None, bound)
                return WindowVerdict(FAILURE, (s, p), bound)
            kept |= 1 << e
        # reach gains the gaps split at this level (pending is split and
        # kept) only after the whole level, so it stays the sums of at
        # most p-1 coins while the level is read
        reach |= pending ^ kept
        pending = kept
    return WindowVerdict(QUASINORMAL_ON_WINDOW, None, bound)
