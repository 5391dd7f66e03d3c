import itertools
from math import gcd

import pytest
from hypothesis import given, strategies as st

from monideal import (
    ConsistencyError,
    LambdaSpec,
    ReesSemigroup,
    almost_quasinormal,
    express_on_facet,
    grp_facet_check,
    height_one_primes,
    ilambda_generators,
    r1_satisfied,
)
from monideal import rees
from monideal.oracles import omega_dot


def test_semigroup_generators_and_facet_form():
    S = ReesSemigroup(LambdaSpec((2, 2)))
    assert S.generators == ((1, 0, 0), (0, 1, 0), (2, 0, 1), (1, 1, 1), (0, 2, 1))
    assert S.sigma == (1, 1, -2)
    assert gcd(*S.sigma) == 1
    S = ReesSemigroup(LambdaSpec((2, 3)))
    assert S.sigma == (3, 2, -6)
    assert [S.sigma_value(g) for g in S.generators] == [3, 2, 0, 1, 0]


def test_sigma_nonnegative_on_generators():
    for lam in itertools.product(range(1, 6), repeat=2):
        S = ReesSemigroup(LambdaSpec(lam))
        assert all(S.sigma_value(g) >= 0 for g in S.generators), lam


def test_sigma_zero_generator_from_unit_entry():
    # lam = (1, 3): the generator (1,0) of the closure ideal gives the
    # sigma-zero semigroup generator (1, 0, 1)
    S = ReesSemigroup(LambdaSpec((1, 3)))
    assert (1, 0, 1) in S.generators
    assert S.sigma_value((1, 0, 1)) == 0


def test_height_one_primes_two_variables():
    S = ReesSemigroup(LambdaSpec((2, 2)))
    primes = {p.label: p for p in height_one_primes(S)}
    assert set(primes) == {"P_1", "P_2", "P_3", "P_sigma"}
    assert primes["P_1"].ring_vars == (1,)
    assert primes["P_1"].t_generators == ((2, 0), (1, 1))
    assert primes["P_2"].t_generators == ((1, 1), (0, 2))
    assert primes["P_3"].ring_vars == ()
    assert primes["P_3"].t_generators == ((2, 0), (1, 1), (0, 2))
    assert primes["P_sigma"].ring_vars == (1, 2)
    assert primes["P_sigma"].t_generators == ()


def test_height_one_primes_sigma_facet_collects_positive_values():
    S = ReesSemigroup(LambdaSpec((2, 3)))
    primes = {p.label: p for p in height_one_primes(S)}
    assert primes["P_sigma"].t_generators == ((1, 2),)  # sigma value 1
    spec = S.spec
    for prime in height_one_primes(S):
        if prime.label == "P_sigma":
            for b in prime.t_generators:
                assert omega_dot(spec, b) > spec.L


def test_height_one_primes_one_variable_degenerates():
    # the formulas applied verbatim: beta = (k) has beta_1 >= 1, so P_1
    # contains the t-generator as well as x_1
    S = ReesSemigroup(LambdaSpec((3,)))
    primes = {p.label: p for p in height_one_primes(S)}
    assert primes["P_1"].ring_vars == (1,)
    assert primes["P_1"].t_generators == ((3,),)
    assert primes["P_2"].ring_vars == ()
    assert primes["P_2"].t_generators == ((3,),)
    assert primes["P_sigma"].t_generators == ()


def test_r1_examples():
    ok, witness = r1_satisfied(LambdaSpec((2, 3, 5)))
    assert ok and witness == (1, 1, 1, 1)
    ok, witness = r1_satisfied(LambdaSpec((2, 3, 7)))
    assert not ok and witness is None
    ok, witness = r1_satisfied(LambdaSpec((1, 1)))
    assert ok and witness == (1, 0, 0)  # a unit lambda entry gives sigma = 1


def test_r1_witness_has_sigma_value_one():
    for lam in ((2, 3, 5), (2, 2), (1, 4), (3, 4, 5)):
        spec = LambdaSpec(lam)
        ok, witness = r1_satisfied(spec)
        if ok:
            assert ReesSemigroup(spec).sigma_value(witness) == 1, lam


def sigma_scan_witness(S):
    """The reference sigma-one scan: the first generator, in generator
    order, whose sigma_value is 1."""
    for gen in S.generators:
        if S.sigma_value(gen) == 1:
            return gen
    return None


lam_tuples = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(1, 24 // n + 1), min_size=n, max_size=n)
)


@given(lam_tuples)
def test_stored_sigmas_match_sigma_value(lam):
    """The sigma values stored per generator are the ones sigma_value
    computes, and the facet, the P_sigma generators and the r1 witness
    read from them are what the omega.beta route gives."""
    spec = LambdaSpec(lam)
    S = ReesSemigroup(spec)
    assert S.sigmas == tuple(S.sigma_value(g) for g in S.generators)
    betas = S.ideal.generators
    facet = tuple(b for b in betas if omega_dot(spec, b) == spec.L)
    assert tuple(b for b, s in zip(betas, S.sigmas[spec.n :]) if s == 0) == facet
    primes = {p.label: p for p in height_one_primes(S)}
    assert primes["P_sigma"].t_generators == tuple(b for b in betas if b not in facet)
    witness = sigma_scan_witness(S)
    assert r1_satisfied(spec) == (witness is not None, witness)


def eager_semigroup(spec):
    """The reference semigroup, built in full from the closure generators
    with sigma computed by omega_dot: the units (e_i, 0), then (beta, 1)
    for each beta in the ideal's order, and their sigma values."""
    n, L = spec.n, spec.L
    units = [tuple(int(j == i) for j in range(n + 1)) for i in range(n)]
    gens = tuple(units) + tuple(b + (1,) for b in ilambda_generators(spec).generators)
    sigmas = tuple(omega_dot(spec, g[:n]) - L * g[n] for g in gens)
    return gens, sigmas


def test_semigroup_view_matches_an_eager_build():
    """The view's generators, sigma values, height-one primes and r1
    witness equal those of the semigroup built in full.  The witness is
    the first sigma-one generator in generator order, which depends on
    the coordinate order, so the sorted 4-tuples run reversed too."""
    sorted4 = list(itertools.combinations_with_replacement(range(1, 7), 4))
    corpus = itertools.chain(
        itertools.product(range(1, 9), repeat=2),
        itertools.product(range(1, 7), repeat=3),
        sorted4,
        (lam[::-1] for lam in sorted4),
    )
    for lam in corpus:
        spec = LambdaSpec(lam)
        S = ReesSemigroup(spec)
        gens, sigmas = eager_semigroup(spec)
        assert S.generators == gens and S.sigmas == sigmas, lam
        n, betas = spec.n, S.ideal.generators
        expected = [tuple(b for b in betas if b[i] >= 1) for i in range(n)]
        expected += [betas, tuple(b for b, s in zip(betas, sigmas[n:]) if s > 0)]
        assert [p.t_generators for p in height_one_primes(S)] == expected, lam
        witness = next((g for g, s in zip(gens, sigmas) if s == 1), None)
        assert S.sigma_one() == witness, lam
        assert r1_satisfied(spec) == (witness is not None, witness), lam


def test_r1_equals_almost_quasinormality_everywhere():
    """r1_satisfied cross-checks internally and raises on mismatch, so a
    clean pass over the cube is the route-agreement statement."""
    for lam in itertools.product(range(1, 7), repeat=3):
        spec = LambdaSpec(lam)
        ok, _ = r1_satisfied(spec)
        assert ok == almost_quasinormal(spec), lam


def test_r1_raises_when_its_routes_disagree(monkeypatch):
    """A monoid route that contradicts the semigroup route is raised, not
    resolved: (2, 3) has the sigma-one generator (1, 1, 1) and is almost
    quasinormal, and (2, 3, 7) has neither."""
    for lam in ((2, 3), (2, 3, 7)):
        spec = LambdaSpec(lam)
        answer = almost_quasinormal(spec)
        monkeypatch.setattr(rees, "almost_quasinormal", lambda spec: not answer)
        with pytest.raises(ConsistencyError, match="regularity routes disagree"):
            r1_satisfied(spec)


def test_express_on_facet_reconstructs_its_split(monkeypatch):
    """On (2, 2) the facet point (1, 1, 1) leaves the remainder (1, 1) for
    a one-part split.  A split that does not add up to it is refused, and
    a remainder that does not split gives None, so the facet check of a
    cube holding the point fails."""
    S = ReesSemigroup(LambdaSpec((2, 2)))
    assert express_on_facet(S, (1, 1, 1)) == (((1, 1, 1), 1),)
    assert grp_facet_check(S, 1)
    monkeypatch.setattr(rees, "decompose", lambda spec, a, p: ((2, 0),))
    with pytest.raises(ConsistencyError, match="does not reconstruct"):
        express_on_facet(S, (1, 1, 1))
    monkeypatch.setattr(rees, "decompose", lambda spec, a, p: None)
    assert express_on_facet(S, (1, 1, 1)) is None
    assert express_on_facet(S, (2, 0, 1)) == (((2, 0, 1), 1),)
    assert not grp_facet_check(S, 1)


def test_express_on_facet_round_trips():
    S = ReesSemigroup(LambdaSpec((2, 3)))
    for point in ((0, 0, 0), (2, 0, 1), (-2, 3, 0), (4, -3, 1)):
        if S.sigma_value(point) != 0:
            continue
        combo = express_on_facet(S, point)
        assert combo is not None
        total = [0] * 3
        for gen, c in combo:
            assert S.sigma_value(gen) == 0
            for j in range(3):
                total[j] += c * gen[j]
        assert tuple(total) == point


def test_express_on_facet_rejects_off_facet_points():
    S = ReesSemigroup(LambdaSpec((2, 3)))
    with pytest.raises(ValueError):
        express_on_facet(S, (1, 0, 0))


def test_facet_group_identity_small_examples():
    assert grp_facet_check(ReesSemigroup(LambdaSpec((2, 2))), 3)
    assert grp_facet_check(ReesSemigroup(LambdaSpec((2, 3))), 3)
    assert grp_facet_check(ReesSemigroup(LambdaSpec((2, 3, 7))), 2)
    assert grp_facet_check(ReesSemigroup(LambdaSpec((1,))), 4)
    with pytest.raises(ValueError):
        grp_facet_check(ReesSemigroup(LambdaSpec((2, 2))), -1)


def test_facet_check_samples_exactly_the_facet_points_of_the_cube(monkeypatch):
    seen = []
    real = rees.express_on_facet

    def record(S, point):
        seen.append(point)
        return real(S, point)

    monkeypatch.setattr(rees, "express_on_facet", record)
    for lam in ((1,), (2, 3), (4, 6), (2, 3, 7), (2, 2, 3, 3)):
        S = ReesSemigroup(LambdaSpec(lam))
        for radius in range(4):
            seen.clear()
            assert grp_facet_check(S, radius), (lam, radius)
            cube = itertools.product(range(-radius, radius + 1), repeat=len(lam) + 1)
            assert seen == [p for p in cube if S.sigma_value(p) == 0], (lam, radius)
