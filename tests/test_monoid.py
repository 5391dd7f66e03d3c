import hashlib
import itertools
import json
import math
import random
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from monideal import (
    FAILURE,
    LambdaSpec,
    QUASINORMAL_ON_WINDOW,
    VACUOUS,
    almost_quasinormal,
    conductor,
    default_window_bound,
    in_M,
    is_normal_lambda,
    WindowVerdict,
    quasinormal_window,
)
from monideal.monoid import membership_table
from monideal.oracles import max_parts_table, normality_oracle, window_split_oracle

FIXTURES = Path(__file__).parent / "fixtures"


def mon(*lam):
    return LambdaSpec(lam)


def apery_set(spec):
    """ap[r] = the least element of M congruent to r mod m = min(omega),
    for 0 <= r < m: an independent reference for ``in_M`` and
    ``conductor``, which read an int bitset of M instead.  s is in M iff
    s >= ap[s % m], and the largest gap is max(ap) - m (Nijenhuis 1979).

    Round-robin (Boecker and Liptak 2007): add the generators one at a
    time; for each, walk every cycle of residues r, r + a, r + 2a, ..
    (mod m) from its least entry, relaxing ap[r + a] with ap[r] + a."""
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
    return tuple(ap)


def test_membership_examples():
    table = membership_table((3, 2), 10)
    assert [s for s in range(11) if table[s]] == [0, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert not in_M(mon(2, 3), 1)
    assert in_M(mon(2, 3), 7)
    assert in_M(mon(2, 3), 0)
    assert not in_M(mon(2, 3), -4)
    # the coin check that drives the (2,3,7) story: 43 is not reachable
    assert not in_M(mon(2, 3, 7), 43)
    assert in_M(mon(2, 3, 7), 44)


@pytest.mark.parametrize("s, member", [(43.0, False), ("44", True), (True, False), (44, True)])
def test_membership_takes_exact_elements(s, member):
    assert in_M(mon(2, 3, 7), s) is member


@pytest.mark.parametrize("s", [44.5, float("nan"), float("inf"), "x", None])
def test_membership_refuses_inexact_elements(s):
    """44.5 lies past the conductor 44 of (2,3,7) but is no member."""
    with pytest.raises(ValueError, match=repr(s)):
        in_M(mon(2, 3, 7), s)


def test_membership_table_validation():
    with pytest.raises(ValueError):
        membership_table((2, 3), -1)


@pytest.mark.parametrize("coins", [[1.5, 2], [2, 2.5], [float("nan"), 2], ["x", 3]])
def test_membership_table_refuses_inexact_coins(coins):
    """A coin that is no integer raises: 1.5 is not truncated to the coin 1."""
    with pytest.raises(ValueError):
        membership_table(coins, 4)


@pytest.mark.parametrize("coins", [[2.0, 3], ["2", 3], [True, 2]])
def test_membership_table_takes_exact_coins(coins):
    exact = [int(c) for c in coins]
    assert membership_table(coins, 9) == membership_table(exact, 9)


def test_membership_shift_invariance():
    rng = random.Random(5)
    for lam in ((2, 3), (2, 3, 7), (4, 6), (5, 3, 2)):
        m = mon(*lam)
        table = membership_table(m.omega, 200)
        for s in range(150):
            if table[s]:
                for w in m.omega:
                    assert table[s + w], (lam, s, w)


def test_almost_quasinormal_examples():
    assert almost_quasinormal(mon(2, 3))  # 7 = 3 + 2 + 2
    assert almost_quasinormal(mon(2, 2))  # omega = (1, 1)
    assert almost_quasinormal(mon(1, 7))
    assert almost_quasinormal(mon(2, 3, 5))  # 31 = 15 + 10 + 6
    assert not almost_quasinormal(mon(2, 3, 7))
    assert not almost_quasinormal(mon(2, 5, 7))  # 71 not in <35, 14, 10>


def test_conductor_examples():
    assert conductor(mon(2, 3)) == 2  # <3,2>: gap only at 1
    assert conductor(mon(2, 3, 7)) == 44  # <21,14,6>: last gap at 43
    assert conductor(mon(1, 9)) == 0  # omega contains 1
    assert conductor(mon(5, 3, 2)) == 30  # <6,10,15>: last gap at 29
    # the three large_lambda tuples, whose bitsets stop at top = 2L
    assert conductor(mon(13, 17, 19)) == 7608
    assert conductor(mon(17, 19, 23)) == 13708
    assert conductor(mon(7, 9, 11, 13)) == 23228
    # L = 510510: the bitset's top doubles twice, from 2L to 8L
    assert conductor(mon(2, 3, 5, 7, 11, 13, 17)) == 2346894


def sorted_tuples(*sweeps):
    """Every sorted tuple of each n x k sweep: n entries from 1 to k."""
    for n, k in sweeps:
        yield from itertools.combinations_with_replacement(range(1, k + 1), n)


SMALL_SWEEPS = ((3, 24), (4, 14), (5, 9))


def test_conductor_digest_of_small_sweeps():
    """The conductor of every sorted tuple of 3x24, 4x14 and 5x9, pinned
    by digest.  A sweep CSV never shows it: there the default bound is
    always 4nL.  153 of the 6267 tuples have c > 2L - m, so the bitset
    of M must double its top past 2L before its last m bits are all set."""
    lines = []
    past_2l = 0
    for lam in sorted_tuples(*SMALL_SWEEPS):
        spec = LambdaSpec(lam)
        c = conductor(spec)
        lines.append(f"{lam}:{c}\n")
        past_2l += c > 2 * spec.L - min(spec.omega)
    assert (len(lines), past_2l) == (6267, 153)
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "1f1a80aea91f894cb11f5773e6dc1c9a942f13768cb65b6dc923bfc35022cb7d"


def test_conductor_is_tight():
    for lam in ((2, 3), (2, 3, 7), (5, 3, 2), (4, 6), (5, 7)):
        m = mon(*lam)
        c = conductor(m)
        table = membership_table(m.omega, c + 50)
        for s in range(c, c + 50 + 1):
            assert table[s], (lam, s)
        if c > 0:
            assert not table[c - 1], lam


def test_apery_round_robin_restarts_from_a_smaller_entry():
    """omega = (21, 14, 9), m = 9: the walk of 14 reaches 84 at residue 3,
    where 21 already sits, and must go on from 21; carrying 84 on misreads
    ap[8] and ap[4] as 98 and 112 (not 35 and 49) and 14 values of in_M."""
    spec = mon(6, 9, 14)
    assert (spec.L, spec.omega) == (126, (21, 14, 9))
    ap = apery_set(spec)
    assert (ap[8], ap[4]) == (35, 49)
    table = membership_table(spec.omega, 3 * spec.L)
    assert [in_M(spec, s) for s in range(3 * spec.L + 1)] == table
    c = conductor(spec)
    assert all(table[c:]) and not table[c - 1]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4), st.data())
def test_apery_routes_match_brute_force_routes(lam, data):
    """in_M, conductor and the gap-level window against the bound-sized
    coin table and the literal parts-maximization oracle."""
    spec = LambdaSpec(lam)
    table = membership_table(spec.omega, 3 * spec.L)
    assert [in_M(spec, s) for s in range(3 * spec.L + 1)] == table
    c = conductor(spec)
    table = membership_table(spec.omega, c + min(spec.omega))
    assert all(table[c:])
    assert c == 0 or not table[c - 1]
    bound = data.draw(st.integers(0, min(default_window_bound(spec), 700)))
    got = quasinormal_window(spec, bound)
    expect = window_split_oracle(spec, bound)
    if bound < spec.L:
        assert got.status == VACUOUS and expect is None
    elif expect is None:
        assert got.status == QUASINORMAL_ON_WINDOW
    else:
        assert got.status == FAILURE and got.witness == expect


def test_conductor_beyond_the_reach_of_a_table_scan():
    """The doubling table scan needed 52M cells here; the bitset of M
    doubles its top once, to 4L = 499928 bits."""
    spec = mon(13, 23, 22, 19)
    c = conductor(spec)
    assert c == 347640
    table = membership_table(spec.omega, c + min(spec.omega))
    assert all(table[c:]) and not table[c - 1]


# the Apery reference and the range of c + m calls grow with L, so L
# stays at most 10**5 to keep the property fast
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 30), min_size=1, max_size=5).filter(lambda lam: math.lcm(*lam) <= 10**5))
@example((13, 17, 19))
@example((6, 9, 14))
@example((2, 3, 4, 5, 7))  # c = 872 > 2L - m: the bitset's top doubles
def test_bitset_routes_match_apery_reference(lam):
    """in_M and conductor against the round-robin Apery set, at L where a
    bound-sized coin table would be too slow: c = max(ap) - m + 1, and
    s is in M iff s >= ap[s % m], on all of [0, c + m]."""
    spec = LambdaSpec(lam)
    ap = apery_set(spec)
    m = len(ap)
    c = conductor(spec)
    assert c == max(ap) - m + 1
    assert [in_M(spec, s) for s in range(c + m + 1)] == [s >= ap[s % m] for s in range(c + m + 1)]


def test_default_window_decides_quasinormality():
    """Any bound >= max(L, c + L - 1) gives the answer of an unbounded
    window, since the least failure s = pL + e has (p-1)L + e outside M
    and so s < c + L; the default bound is such a bound.  On the 6267
    tuples of 3x24, 4x14 and 5x9 (526 of them with c = 0), the default,
    least and unbounded windows give one status and witness, and each of
    the 1203 failures obeys the proof's bound.  The bound only filters
    that answer: below L the window is vacuous, and a failure (s, p) is
    reported by the window at s and by none below it."""
    tuples = failures = 0
    for lam in sorted_tuples(*SMALL_SWEEPS):
        spec = LambdaSpec(lam)
        L, c = spec.L, conductor(spec)
        assert quasinormal_window(spec, L - 1).status == VACUOUS, lam
        verdicts = {
            (v.status, v.witness)
            for v in (quasinormal_window(spec, b) for b in (None, max(L, c + L - 1), 10**30))
        }
        assert len(verdicts) == 1, lam
        ((status, witness),) = verdicts
        assert status != VACUOUS, lam
        tuples += 1
        if witness is not None:
            failures += 1
            s, p = witness
            assert s < c + L and not in_M(spec, s - L), lam
            assert quasinormal_window(spec, s - 1).status == QUASINORMAL_ON_WINDOW, lam
            assert quasinormal_window(spec, s).witness == (s, p), lam
    assert (tuples, failures) == (6267, 1203)


def test_window_split_oracle_decides_at_the_least_exact_bound():
    """The brute-force oracle at bound max(L, c + L - 1) against the
    default window, on the 369 sorted tuples of 2x12, 3x9 and 4x6."""
    for lam in sorted_tuples((2, 12), (3, 9), (4, 6)):
        spec = LambdaSpec(lam)
        bound = max(spec.L, conductor(spec) + spec.L - 1)
        assert window_split_oracle(spec, bound) == quasinormal_window(spec).witness, lam


def test_quasinormality_does_not_imply_normality():
    """(5,6,16), the tuple of 3x24 with the least L among those that are
    quasinormal but not normal, L = 240 and c = 258, on both routes:
    its closure fails to be normal at p = 2, and its default window and
    the oracle at bound c + L - 1 = 497 both find no failure."""
    spec = mon(5, 6, 16)
    assert (spec.L, conductor(spec)) == (240, 258)
    assert is_normal_lambda(spec).witness == (2, (4, 5, 6))
    assert normality_oracle(spec) == (2, (4, 5, 6))
    assert quasinormal_window(spec) == WindowVerdict(QUASINORMAL_ON_WINDOW, None, 2880)
    assert window_split_oracle(spec, 497) is None


def test_window_cost_does_not_grow_with_the_bound():
    """A bound-sized table for these bounds would never fit in memory."""
    huge = 10**12
    assert quasinormal_window(mon(2, 3, 7), huge) == WindowVerdict(FAILURE, (85, 2), huge)
    assert quasinormal_window(mon(17, 19, 23), huge) == WindowVerdict(
        QUASINORMAL_ON_WINDOW, None, huge
    )


def test_default_window_bound_formula():
    assert default_window_bound(mon(2, 3, 7)) == max(4 * 3 * 42, 2 * (42 + 44))
    assert default_window_bound(mon(1, 1)) == 8


def test_window_examples():
    m = mon(2, 3, 7)
    verdict = quasinormal_window(m)
    assert verdict.status == FAILURE
    assert verdict.bound == 504
    fixture = json.loads((FIXTURES / "lambda_2_3_7.json").read_text())
    s, p = verdict.witness
    assert {"s": s, "p": p} == fixture["window"]["witness"]
    # shorter window: no failure yet (84 = 42 + 42 still splits)
    assert quasinormal_window(m, 84).status == QUASINORMAL_ON_WINDOW
    assert quasinormal_window(m, 41).status == VACUOUS
    assert quasinormal_window(mon(2, 2), 20).status == QUASINORMAL_ON_WINDOW
    assert quasinormal_window(mon(1,), 10).status == QUASINORMAL_ON_WINDOW


def test_window_failure_witness_is_in_monoid_and_unsplittable():
    m = mon(2, 3, 7)
    s, p = quasinormal_window(m).witness
    assert in_M(m, s)
    assert p == s // m.L
    assert max_parts_table(m, s)[s] < p


def test_window_agrees_with_parts_maximization_oracle():
    """The gap levels must give the same verdict and witness as the
    literal maximization table, which is computed very differently.
    On (3,4,7,11), L = 924, the gap 1 survives level 2 (1849 is not in
    M) and the gap 2 fails at 1850: at bound 1849 the search stops on
    that failure and reports the window clean, since 1850 > 1849, and at
    1850 it reports the failure.  The three tuples with L = 2310 turn on single
    coins at level 2: a gap list that took one coin e with L + e = ap[r]
    for a gap changes each verdict or witness."""
    cases = [
        (lam, min(default_window_bound(mon(*lam)), 700))
        for lam in ((2, 3, 7), (2, 3, 5), (3, 4, 5), (2, 2, 3), (5, 3, 2), (2, 5, 7))
    ]
    cases += [((3, 4, 7, 11), 1849), ((3, 4, 7, 11), 1850)]
    cases += [(lam, 2 * 2310 + 500) for lam in ((3, 10, 11, 14), (5, 6, 11, 14))]
    cases += [((6, 7, 10, 11), 2 * 2310 + 500)]
    for lam, bound in cases:
        m = mon(*lam)
        got = quasinormal_window(m, bound)
        expect = window_split_oracle(m, bound)
        if expect is None:
            assert got.status == QUASINORMAL_ON_WINDOW, lam
        else:
            assert got.status == FAILURE and got.witness == expect, lam
    m = mon(3, 4, 7, 11)
    assert quasinormal_window(m, 1849).status == QUASINORMAL_ON_WINDOW
    assert quasinormal_window(m, 1850).witness == (1850, 2)


def residue_window(spec, bound=None):
    """The ``quasinormal_window`` that built its level-1 gaps from the
    Apery set, one residue class mod m at a time, and listed them all
    before level 2, kept here as its reference."""
    L = spec.L
    if bound is None:
        bound = default_window_bound(spec)
    if bound < L:
        return WindowVerdict(VACUOUS, None, bound)
    ap = apery_set(spec)
    m = len(ap)
    # residue r gives the gaps e congruent to r - L mod m and below ap[r] - L
    pending = []
    for r in range(m):
        pending += range((r - L - 1) % m + 1, min(ap[r] - L, L), m)
    pending.sort()
    flags = bytearray(b"0" + b"1" * (L - 1))  # flags[e] == ord("1") iff e is in E
    for e in pending:
        flags[e] = ord("0")
    coins_rev = int(flags, 2)
    reach = int(flags[::-1], 2) | 1
    p = 1
    while pending:
        p += 1
        base = p * L
        kept = []
        split = 0
        for e in pending:
            s = base + e
            if s > bound:
                break
            if (coins_rev >> (L - 1 - e)) & reach:
                split |= 1 << e
            elif s >= ap[s % m]:
                return WindowVerdict(FAILURE, (s, p), bound)
            else:
                kept.append(e)
        reach |= split
        pending = kept
    return WindowVerdict(QUASINORMAL_ON_WINDOW, None, bound)


LARGE_LAMBDA_WINDOWS = {
    (13, 17, 19): WindowVerdict(FAILURE, (8405, 2), 50388),
    (17, 19, 23): WindowVerdict(QUASINORMAL_ON_WINDOW, None, 89148),
    (7, 9, 11, 13): WindowVerdict(FAILURE, (18020, 2), 144144),
}


@settings(max_examples=150, deadline=None)
@given(
    # the reference costs about gaps x L bit operations per level, so L
    # stays at most 10**5 to keep the property fast
    st.lists(st.integers(1, 30), min_size=1, max_size=5).filter(lambda lam: math.lcm(*lam) <= 10**5),
    st.integers(0, 10**5),
)
@example((3, 4, 7, 11), 1)  # bound 1849: the gap 1 reaches level 3
@example((3, 4, 7, 11), 2)  # bound 1850: the gap 2 fails at level 2
# each way the coin sweep of a level stops
@example((2, 3, 11), 0)  # no gap is left
@example((17, 19, 23), 0)  # 4 coins leave 1 gap: as many coins as gaps
@example((7, 9, 11, 13), 0)  # the lowest gap, 1, lies below the first coin
@example((13, 17, 19), 0)  # the lowest gap, 2, lies below coin 3, after coin 1
@example((6, 8, 11, 17), 0)  # a gap reaches level 3, where the sweep clears it
def test_window_matches_residue_window_reference(lam, k):
    """The bitset window against the per-residue one it replaced, at
    the bounds where a level starts, ends or never stops: the same
    status, witness and bound."""
    spec = LambdaSpec(lam)
    L = spec.L
    for bound in (None, L - 1, L, L + 1, 2 * L + k % L, 3 * L, 10**30):
        assert quasinormal_window(spec, bound) == residue_window(spec, bound), (lam, bound)


@pytest.mark.parametrize("lam", LARGE_LAMBDA_WINDOWS)
def test_large_lambda_windows_do_not_depend_on_the_order(lam):
    """The window depends only on the multiset of omega, so every order
    of a benchmark tuple gives one verdict, witness and bound."""
    verdicts = {quasinormal_window(LambdaSpec(perm)) for perm in itertools.permutations(lam)}
    assert verdicts == {LARGE_LAMBDA_WINDOWS[lam]}


def test_missing_almost_quasinormality_always_surfaces_in_default_window():
    """If L+1 is unreachable, some k*L+1 is reachable past the conductor
    and cannot split into k parts, and the default bound covers it."""
    for lam in itertools.product(range(1, 7), repeat=3):
        m = mon(*lam)
        if not almost_quasinormal(m):
            assert quasinormal_window(m).status == FAILURE, lam


def test_window_pass_points_really_split():
    m = mon(2, 3, 7)
    table = max_parts_table(m, 84)
    for s in range(m.L, 85):
        if in_M(m, s):
            assert table[s] >= s // m.L, s


def test_normal_lambda_implies_clean_default_window():
    cubes = itertools.chain(
        itertools.product(range(1, 9), repeat=3),
        itertools.product(range(1, 6), repeat=4),
    )
    for lam in cubes:
        spec = LambdaSpec(lam)
        if is_normal_lambda(spec).normal:
            assert quasinormal_window(spec).status == QUASINORMAL_ON_WINDOW, lam
