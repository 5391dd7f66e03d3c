import itertools
import json
import random
from math import gcd
from pathlib import Path

import pytest

from monideal import (
    EQUIVALENT,
    FORWARD_ONLY,
    LambdaSpec,
    box_enumerate,
    congruence_reduce,
    decompose,
    format_ideal,
    ilambda_generators,
    in_gamma,
    integral_closure,
    is_normal_lambda,
    j_ideal,
    parse_ideal,
)
from monideal.oracles import normality_oracle, omega_dot, split_oracle

FIXTURES = Path(__file__).parent / "fixtures"


def test_derived_data_examples():
    spec = LambdaSpec((2, 3, 7))
    assert (spec.L, spec.omega, gcd(*spec.omega)) == (42, (21, 14, 6), 1)
    assert LambdaSpec((2, 2)).omega == (1, 1)
    assert LambdaSpec((4, 6)).omega == (3, 2)
    assert LambdaSpec((5,)).omega == (1,)
    assert LambdaSpec.parse("2,3,7").lam == (2, 3, 7)
    assert omega_dot(spec, iter((1, 2, 6))) == omega_dot(spec, (1, 2, 6)) == 85


def test_spec_validation():
    for bad in ((), (0,), (2, -3)):
        with pytest.raises(ValueError):
            LambdaSpec(bad)
    with pytest.raises(ValueError):
        LambdaSpec.parse("2,x")


def test_omega_gcd_is_always_one():
    """A common factor of every L/lambda_i would divide out of the lcm."""
    for lam in itertools.product(range(1, 9), repeat=3):
        assert gcd(*LambdaSpec(lam).omega) == 1


def test_axis_ideal_generators():
    assert format_ideal(j_ideal(LambdaSpec((2, 3)))) == "2,0;0,3"
    assert format_ideal(j_ideal(LambdaSpec((4,)))) == "4"


def test_closure_generators_examples():
    assert format_ideal(ilambda_generators(LambdaSpec((2, 3)))) == "2,0;1,2;0,3"
    assert format_ideal(ilambda_generators(LambdaSpec((1, 1)))) == "1,0;0,1"
    assert format_ideal(ilambda_generators(LambdaSpec((3,)))) == "3"
    fixture = json.loads((FIXTURES / "lambda_2_3_7.json").read_text())
    assert (
        format_ideal(ilambda_generators(LambdaSpec((2, 3, 7))))
        == fixture["ilambda_generators"]
    )


def test_closure_generators_agree_with_polyhedral_route():
    specs = [LambdaSpec(lam) for lam in itertools.product(range(1, 5), repeat=2)]
    specs += [LambdaSpec(lam) for lam in itertools.product(range(1, 4), repeat=3)]
    specs.append(LambdaSpec((2, 3, 7)))
    for spec in specs:
        assert ilambda_generators(spec) == integral_closure(j_ideal(spec)), spec


def test_exponent_set_membership_matches_ideal():
    for lam in ((2, 3), (2, 3, 7), (4, 4), (1, 5)):
        spec = LambdaSpec(lam)
        ideal = ilambda_generators(spec)
        for a in box_enumerate(tuple(v + 1 for v in lam)):
            assert in_gamma(spec, a) == ideal.contains(a), (lam, a)
        assert not in_gamma(spec, (-1,) + (0,) * (spec.n - 1))


def test_decompose_examples():
    spec = LambdaSpec((2, 3))
    assert decompose(spec, (1, 2), 1) == ((1, 2),)
    assert decompose(spec, (1, 1), 1) is None  # omega.(1,1) = 5 < 6
    two = LambdaSpec((2, 2))
    parts = decompose(two, (2, 2), 2)
    assert parts is not None and len(parts) == 2
    assert decompose(two, (2, 1), 2) is None  # value 3 < 2L = 4


def test_decompose_returns_verified_parts():
    rng = random.Random(31)
    for lam in ((2, 3), (2, 3, 5), (2, 3, 7), (3, 4, 5)):
        spec = LambdaSpec(lam)
        for _ in range(30):
            a = tuple(rng.randint(0, 2 * v) for v in lam)
            p = rng.randint(1, 3)
            parts = decompose(spec, a, p)
            if parts is not None:
                assert len(parts) == p
                assert all(in_gamma(spec, part) for part in parts)
                assert tuple(map(sum, zip(*parts))) == a


def test_decompose_agrees_with_exhaustive_split_search():
    # p = 3 on (2, 3, 7) recurses three levels deep and meets points
    # with omega . a >= 3L that do not split
    cases = (
        ((2, 3), (1, 2)),
        ((2, 2, 2), (1, 2)),
        ((2, 3, 5), (1, 2)),
        ((2, 3, 7), (1, 2, 3)),
    )
    for lam, ps in cases:
        spec = LambdaSpec(lam)
        for p in ps:
            for a in box_enumerate(tuple(min(2 * v, 8) for v in lam)):
                found = decompose(spec, a, p) is not None
                assert found == split_oracle(spec, a, p), (lam, a, p)


def test_decompose_validation():
    spec = LambdaSpec((2, 3))
    with pytest.raises(ValueError):
        decompose(spec, (1, 1), 0)
    with pytest.raises(Exception):
        decompose(spec, (1, 1, 1), 1)


def test_normality_fast_paths_and_witness():
    assert is_normal_lambda(LambdaSpec((2, 3))).method == "n<=2"
    assert is_normal_lambda(LambdaSpec((3, 3, 3))).method == "gcd"
    verdict = is_normal_lambda(LambdaSpec((2, 3, 7)))
    assert not verdict.normal
    assert verdict.method == "exhaustive"
    fixture = json.loads((FIXTURES / "lambda_2_3_7.json").read_text())
    p, alpha = verdict.witness
    assert {"p": p, "alpha": ",".join(map(str, alpha))} == fixture["witness"]


def test_normality_witness_fails_to_split_and_is_first():
    tuples = itertools.chain(
        itertools.combinations_with_replacement(range(2, 10), 3),
        itertools.combinations_with_replacement(range(2, 6), 4),
    )
    for lam in tuples:
        spec = LambdaSpec(lam)
        witness = normality_oracle(spec)
        assert is_normal_lambda(spec, force_enumeration=True).witness == witness, lam
        assert is_normal_lambda(spec).normal == (witness is None), lam
        if witness is not None:
            assert decompose(spec, witness[1], witness[0]) is None, lam


def test_forced_enumeration_agrees_with_fast_paths():
    for lam in itertools.product(range(1, 6), repeat=2):
        assert is_normal_lambda(LambdaSpec(lam), force_enumeration=True).normal
    for lam in itertools.product(range(2, 7, 2), repeat=3):
        spec = LambdaSpec(lam)
        fast = is_normal_lambda(spec)
        forced = is_normal_lambda(spec, force_enumeration=True)
        assert fast.method == "gcd" and forced.method == "exhaustive"
        assert fast.normal == forced.normal == True  # noqa: E712


def test_congruence_examples():
    red = congruence_reduce(LambdaSpec((2, 3, 7)), 3)
    assert (red.ell, red.spec_prime.lam, red.relation) == (6, (2, 3, 13), EQUIVALENT)
    red = congruence_reduce(LambdaSpec((2, 3, 7)), 1)
    assert (red.ell, red.spec_prime.lam, red.relation) == (21, (23, 3, 7), FORWARD_ONLY)
    red = congruence_reduce(LambdaSpec((2, 2)), 1)
    assert (red.ell, red.spec_prime.lam, red.relation) == (2, (4, 2), EQUIVALENT)
    red = congruence_reduce(LambdaSpec((4,)), 1)
    assert (red.ell, red.spec_prime.lam) == (1, (5,))
    with pytest.raises(ValueError):
        congruence_reduce(LambdaSpec((2, 3)), 0)
    with pytest.raises(ValueError):
        congruence_reduce(LambdaSpec((2, 3)), 3)


def test_congruence_verdict_relation_on_small_cube():
    for lam in itertools.product(range(1, 4), repeat=3):
        spec = LambdaSpec(lam)
        before = is_normal_lambda(spec).normal
        for i in (1, 2, 3):
            red = congruence_reduce(spec, i)
            after = is_normal_lambda(red.spec_prime).normal
            if red.relation == EQUIVALENT:
                assert before == after, (lam, i)
            else:
                assert not after or before, (lam, i)  # after => before
