import itertools
import json
import math
import random
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
    membership_table,
    WindowVerdict,
    quasinormal_window,
)
from monideal.monoid import apery_set
from monideal.oracles import max_parts_table, window_split_oracle

FIXTURES = Path(__file__).parent / "fixtures"


def mon(*lam):
    return LambdaSpec(lam)


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
    """The doubling table scan needed 52M cells here; the Apery set has
    min(omega) = 5434 entries."""
    spec = mon(13, 23, 22, 19)
    c = conductor(spec)
    assert c == 347640
    table = membership_table(spec.omega, c + min(spec.omega))
    assert all(table[c:]) and not table[c - 1]


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
    M): at bound 1849 level 3 starts and the window is clean, and at
    1850 the gap 2 fails.  The three tuples with L = 2310 turn on single
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
    # a clean window costs about gaps x L bit operations per level, so L
    # stays at most 10**5 to keep the property fast
    st.lists(st.integers(1, 30), min_size=1, max_size=5).filter(lambda lam: math.lcm(*lam) <= 10**5),
    st.integers(0, 10**5),
)
@example((3, 4, 7, 11), 1)  # bound 1849: the gap 1 reaches level 3
@example((3, 4, 7, 11), 2)  # bound 1850: the gap 2 fails at level 2
@example((13, 17, 19), 0)
@example((17, 19, 23), 0)
@example((7, 9, 11, 13), 0)
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
