"""Acceptance suite: the eleven release criteria, one test each.

Every comparison is exact; there are no numerical tolerances anywhere in
this module.  Each criterion prints one summary line on success (visible
with ``pytest -s``); a failure carries the offending case in the
assertion message.  Random corpora are seeded and therefore stable.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from monideal import (
    FAILURE,
    LambdaSpec,
    MonomialIdeal,
    NewtonPolyhedron,
    QUASINORMAL_ON_WINDOW,
    ReesSemigroup,
    affinely_independent,
    almost_quasinormal,
    caratheodory_reduce,
    grp_facet_check,
    ilambda_generators,
    integral_closure,
    is_integrally_closed,
    is_normal,
    is_normal_lambda,
    j_ideal,
    membership_table,
    power,
    quasinormal_window,
    r1_satisfied,
)
from monideal.cli import sweep_csv
from monideal.oracles import box_enumerate, closure_oracle

from conftest import antichains_2d, random_ideal_corpus

FIXTURES = Path(__file__).parent / "fixtures"
SEED = 20260814


def report(num: int, summary: str) -> None:
    print(f"\n[acceptance] criterion {num:2d}: PASS  {summary}")


def closure_corpus():
    ideals = [MonomialIdeal(2, chain) for chain in antichains_2d(3)]
    ideals += random_ideal_corpus(200, seed=SEED, max_dim=3, max_exp=4)
    return ideals


def generator_box(ideal):
    return tuple(max(g[j] for g in ideal.generators) for j in range(ideal.dim))


def test_criterion_01_closure_matches_power_oracle():
    """integral_closure equals the power-criterion oracle wherever the
    oracle certifies membership, and inside certificates re-verify."""
    ideals = closure_corpus()
    assert len(ideals) == 69 + 200
    gaps = 0
    for ideal in ideals:
        closed = integral_closure(ideal)
        oracle = closure_oracle(ideal, max_power=8)
        complete = True
        for a in box_enumerate(generator_box(ideal)):
            if oracle.contains(a):
                assert closed.contains(a), (ideal, a)
            elif closed.contains(a):
                complete = False  # oracle missed: smallest power exceeds 8
        if complete:
            assert closed == oracle, ideal
        else:
            gaps += 1
    # explicit certificate re-verification over every box point of the
    # exhaustive two-variable corpus (contains() also self-verifies on
    # every call and raises ConsistencyError, so this is belt and braces)
    for chain in antichains_2d(3):
        ideal = MonomialIdeal(2, chain)
        poly = NewtonPolyhedron(ideal)
        for a in box_enumerate(generator_box(ideal)):
            assert poly.contains(a).verify(poly), (ideal, a)
    report(1, f"269 ideals, oracle gaps on {gaps} (allowed), zero mismatches")


def test_criterion_02_closure_idempotent_and_contains_ideal():
    for ideal in closure_corpus():
        closed = integral_closure(ideal)
        assert all(closed.contains(g) for g in ideal.generators), ideal
        assert integral_closure(closed) == closed, ideal
    report(2, "closure is idempotent and contains its ideal on all 269")


def test_criterion_03_two_variable_closed_ideals_are_normal():
    checked = 0
    closed_count = 0
    for chain in antichains_2d(4):
        ideal = MonomialIdeal(2, chain)
        checked += 1
        if is_integrally_closed(ideal)[0]:
            closed_count += 1
            assert is_normal(ideal).normal, ideal
            # substance behind the report: higher powers stay closed too
            if closed_count % 5 == 0:
                for m in (2, 3):
                    assert is_integrally_closed(power(ideal, m))[0], (ideal, m)
    assert checked == 251
    report(3, f"{closed_count} closed ideals out of {checked}, all normal")


def test_criterion_04_gcd_fast_path_matches_forced_enumeration():
    import math

    count = 0
    for lam in itertools.product(range(1, 9), repeat=3):
        if math.gcd(*lam) > 1:
            count += 1
            spec = LambdaSpec(lam)
            fast = is_normal_lambda(spec)
            forced = is_normal_lambda(spec, force_enumeration=True)
            assert fast.normal and forced.normal, lam
            assert fast.method in ("gcd", "n<=2")
            assert forced.method == "exhaustive"
    report(4, f"{count} tuples with gcd > 1, fast path = forced enumeration")


def test_criterion_05_lambda_route_agrees_with_closure_route():
    for lam in itertools.product(range(1, 7), repeat=3):
        spec = LambdaSpec(lam)
        direct = is_normal_lambda(spec).normal
        polyhedral = is_normal(ilambda_generators(spec)).normal
        assert direct == polyhedral, lam
    rng = random.Random(SEED)
    sample = rng.sample(
        list(itertools.combinations_with_replacement(range(1, 6), 4)), 8
    )
    for lam in sample:
        spec = LambdaSpec(lam)
        direct = is_normal_lambda(spec).normal
        polyhedral = is_normal(ilambda_generators(spec)).normal
        assert direct == polyhedral, lam
    report(5, f"216 triples + {len(sample)} sampled 4-tuples, routes agree")


def test_criterion_06_implication_chain_and_r1_on_sweep():
    rows = 0
    for lam in itertools.combinations_with_replacement(range(1, 9), 3):
        rows += 1
        spec = LambdaSpec(lam)
        normal = is_normal_lambda(spec).normal
        window = quasinormal_window(spec)  # default bound
        aq = almost_quasinormal(spec)
        r1, _ = r1_satisfied(spec)  # sigma scan, cross-checked internally
        if normal:
            assert window.status == QUASINORMAL_ON_WINDOW, lam
        if window.status == QUASINORMAL_ON_WINDOW:
            assert aq, lam
        else:
            assert window.status == FAILURE, lam
        assert r1 == aq, lam
    assert rows == 120
    report(6, "normal => clean window => almost_qn and r1 == almost_qn, 120 rows")


def test_criterion_07_frozen_fixture_for_2_3_7():
    fixture = json.loads((FIXTURES / "lambda_2_3_7.json").read_text())
    spec = LambdaSpec(tuple(fixture["lambda"]))
    assert spec.lam == (2, 3, 7)
    assert spec.L == fixture["L"] and list(spec.omega) == fixture["omega"]

    # the hand-checkable coin fact: 43 is not a combination of 21, 14, 6
    table = membership_table(spec.omega, fixture["monoid_target"])
    assert table[fixture["monoid_target"]] == fixture["target_in_monoid"] == False  # noqa: E712

    assert almost_quasinormal(spec) == fixture["almost_quasinormal"] == False  # noqa: E712

    verdict = is_normal_lambda(spec)
    assert verdict.normal == fixture["normal"] == False  # noqa: E712
    p, alpha = verdict.witness
    assert {"p": p, "alpha": ",".join(map(str, alpha))} == fixture["witness"]

    window = quasinormal_window(spec)
    assert window.bound == fixture["window"]["bound"]
    assert window.status == fixture["window"]["status"] == "failure"
    s, q = window.witness
    assert {"s": s, "p": q} == fixture["window"]["witness"]

    r1, witness = r1_satisfied(spec)
    assert r1 == fixture["r1"] == False and witness is None  # noqa: E712
    report(7, "lambda=(2,3,7) fixture reproduced: witness, window, r1, coin fact")


def test_criterion_08_congruence_relation():
    from monideal import congruence_reduce

    equivalent = forward = 0
    for lam in itertools.product(range(1, 7), repeat=3):
        spec = LambdaSpec(lam)
        before = is_normal_lambda(spec).normal
        for i in (1, 2, 3):
            red = congruence_reduce(spec, i)
            after = is_normal_lambda(red.spec_prime).normal
            if red.relation == "equivalent":
                equivalent += 1
                assert before == after, (lam, i)
            else:
                forward += 1
                assert before or not after, (lam, i)  # after => before
    report(8, f"{equivalent} equivalent and {forward} forward-only bumps hold")


def test_criterion_09_caratheodory_reductions():
    rng = random.Random(SEED)
    for trial in range(500):
        dim = rng.randint(2, 4)
        count = rng.randint(1, dim + 5)
        pts = [
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))
            for _ in range(count)
        ]
        raw = [rng.randint(0, 5) for _ in range(count)]
        if sum(raw) == 0:
            raw[rng.randrange(count)] = 1
        total = sum(raw)
        wts = [Fraction(r, total) for r in raw]
        target = [sum(w * p[j] for p, w in zip(pts, wts)) for j in range(dim)]
        out_pts, out_wts = caratheodory_reduce(pts, wts)
        assert len(out_pts) <= dim + 1, trial
        assert affinely_independent(out_pts), trial
        assert sum(out_wts) == 1 and all(w > 0 for w in out_wts), trial
        assert set(out_pts) <= set(pts), trial
        for j in range(dim):
            assert sum(w * p[j] for p, w in zip(out_pts, out_wts)) == target[j], trial
    report(9, "500 random convex combinations reduce exactly, dims 2-4")


def test_criterion_10_facet_group_identity_at_radius_4():
    for lam in itertools.product(range(1, 7), repeat=3):
        S = ReesSemigroup(LambdaSpec(lam))
        assert grp_facet_check(S, 4), lam
    report(10, "grp identity holds at radius 4 for all 216 triples")


def test_criterion_11_sweep_is_deterministic_across_workers():
    one = sweep_csv(3, 4, None, workers=1)
    three = sweep_csv(3, 4, None, workers=3)
    assert one.encode() == three.encode()
    assert one.startswith("lambda,gcd,normal,witness,almost_qn,r1,")
    report(11, "20-row sweep byte-identical with 1 and 3 workers")
