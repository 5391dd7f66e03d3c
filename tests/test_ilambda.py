import bisect
import hashlib
import itertools
import json
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from monideal import (
    EQUIVALENT,
    FORWARD_ONLY,
    LambdaNormalityVerdict,
    LambdaSpec,
    ReesSemigroup,
    congruence_reduce,
    decompose,
    express_on_facet,
    format_ideal,
    grp_facet_check,
    ilambda_generators,
    integral_closure,
    is_normal,
    is_normal_lambda,
    j_ideal,
    parse_ideal,
)
from monideal import ilambda
from monideal.ilambda import _minima
from monideal.oracles import (
    box_enumerate,
    in_gamma,
    normality_oracle,
    omega_dot,
    split_oracle,
)

from conftest import climb, minimal_points

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
    # a point with a negative entry lies in no up-closed set of N^n
    assert decompose(spec, (-1, 9), 1) is None


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


def test_split_oracle_needs_a_positive_part_count():
    with pytest.raises(ValueError, match="part count must be positive, got 0"):
        split_oracle(LambdaSpec((2, 3)), (1, 1), 0)


@given(st.data())
def test_split_matches_brute_force_over_part_multisets(data):
    """``decompose`` splits a into k parts iff some k closure generators
    sum to a point below a; its parts are k - 1 closure generators and a
    rest in the closure set, and they sum to a."""
    lam = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    spec = LambdaSpec(lam)
    gens = ilambda_generators(spec).generators
    k = data.draw(st.integers(1, 4))
    # a sum of k generators, sometimes moved off it, so both answers occur
    picks = data.draw(st.lists(st.sampled_from(gens), min_size=k, max_size=k))
    i = data.draw(st.integers(0, len(lam) - 1))
    shift = data.draw(st.sampled_from((0, 1, -1)))
    a = tuple(max(0, sum(c) + shift * (j == i)) for j, c in enumerate(zip(*picks)))
    found = decompose(spec, a, k)
    brute = any(
        all(map(operator.le, map(sum, zip(*combo)), a))
        for combo in itertools.combinations_with_replacement(gens, k)
    )
    assert (found is not None) == brute
    if found is not None:
        assert len(found) == k and all(g in gens for g in found[:-1])
        assert omega_dot(spec, found[-1]) >= spec.L
        assert tuple(map(sum, zip(*found))) == a


def test_split_examples():
    # lambda = (2, 2): omega = (1, 1), L = 2, generators (2,0), (1,1), (0,2)
    spec = LambdaSpec((2, 2))
    assert decompose(spec, (1, 1), 2) is None
    # the first generator in the ideal's order under which the rest splits
    assert decompose(spec, (2, 2), 2) == ((2, 0), (0, 2))
    assert decompose(spec, (3, 1), 2) == ((2, 0), (1, 1))
    assert decompose(spec, (1, 1), 1) == ((1, 1),)
    # lambda = (2, 3, 4): omega = (6, 4, 3), L = 12.  The first generator
    # under (1, 3, 2), (1, 2, 0), weighs 14 > L, leaves a rest of weight
    # 10 < L and is backed out of
    spec = LambdaSpec((2, 3, 4))
    gens = ilambda_generators(spec).generators
    assert next(g for g in gens if all(map(operator.le, g, (1, 3, 2)))) == (1, 2, 0)
    assert decompose(spec, (1, 3, 2), 2) == ((1, 0, 2), (0, 3, 0))


def recursive_split(a, k, parts, fits, memo):
    """The split search that recursed down to a one-part split, over
    ``parts`` and pruned by ``fits(v, j)``, kept here as the reference of
    ``decompose``'s inline last-part test."""
    key = (a, k)
    if key in memo:
        return memo[key]
    result = None
    if fits(a, k):
        if k == 1:
            result = (a,)
        else:
            for g in parts:
                if all(x <= y for x, y in zip(g, a)):
                    v = tuple(y - x for x, y in zip(g, a))
                    rest = recursive_split(v, k - 1, parts, fits, memo)
                    if rest is not None:
                        result = (g,) + rest
                        break
    memo[key] = result
    return result


@given(st.data())
def test_split_matches_recursive_reference(data):
    """At k = 2 and 3, ``decompose`` finds the reference's first-fit split
    over the closure generators pruned by ``omega_dot``, or none.  On a
    facet point, of weight kL, it finds the exact first-fit split over the
    facet betas, the generators of weight L, and ``express_on_facet``
    writes the point through the facet split of its rest modulo lam."""
    lam = data.draw(st.lists(st.integers(1, 7), min_size=2, max_size=4))
    spec = LambdaSpec(lam)
    L, gens = spec.L, ilambda_generators(spec).generators
    k = data.draw(st.sampled_from((2, 3)))
    if data.draw(st.sampled_from(("lambda", "rees"))) == "lambda":
        fits = lambda v, j: omega_dot(spec, v) >= j * L  # noqa: E731
        for _ in range(data.draw(st.integers(1, 6))):
            # a sum of k parts, sometimes moved up one, or a point of the box
            if data.draw(st.booleans()):
                picks = data.draw(st.lists(st.sampled_from(gens), min_size=k, max_size=k))
                shift = data.draw(st.sampled_from([0] + [1 << i for i in range(spec.n)]))
                a = tuple(sum(c) + (shift >> i & 1) for i, c in enumerate(zip(*picks)))
            else:
                a = tuple(data.draw(st.integers(0, k * x)) for x in lam)
            assert decompose(spec, a, k) == recursive_split(a, k, gens, fits, {})
        return
    facet = tuple(g for g in gens if omega_dot(spec, g) == L)
    exact = lambda v, j: j > 1 or v in facet  # noqa: E731
    moves = set(j_ideal(spec).generators)
    S = ReesSemigroup(spec)
    for _ in range(data.draw(st.integers(1, 6))):
        # a sum of k facet betas, so (a, k) lies on the sigma facet
        picks = data.draw(st.lists(st.sampled_from(facet), min_size=k, max_size=k))
        a = tuple(map(sum, zip(*picks)))
        assert decompose(spec, a, k) == recursive_split(a, k, facet, exact, {})
        rest = tuple(x % v for x, v in zip(a, lam))
        d = omega_dot(spec, rest) // L
        parts = recursive_split(rest, d, facet, exact, {}) if d else ()
        combo = express_on_facet(S, a + (k,))
        if parts is None:
            assert combo is None
        else:
            # the (lam_i e_i, 1) moves carry the quotient of a by lam, and
            # no part of the rest reaches lam_i e_i
            got = [(g, c) for g, c in combo if g[:-1] not in moves]
            assert got == sorted(Counter(b + (1,) for b in parts).items(), reverse=True)


@given(st.data())
def test_minima_are_the_minimal_points_of_the_climb(data):
    """The walk yields, with their weights, the points ``minimal_points``
    finds by climbing over ``omega_dot``, for every level j = 1..n, in the
    closed box below lam or the open one, whose bounds may be zero."""
    n = data.draw(st.integers(1, 5))
    lam = data.draw(st.lists(st.integers(1, 12 // n + 1), min_size=n, max_size=n))
    spec = LambdaSpec(lam)
    shrink = data.draw(st.sampled_from((0, 1)))
    bounds = tuple(v - shrink for v in lam)
    for j in range(1, n + 1):
        walked = list(_minima(spec.omega, j * spec.L, bounds))
        floor = climb(lambda a: omega_dot(spec, a) >= j * spec.L)
        assert [a for a, _ in walked] == list(minimal_points(bounds, floor)), j
        assert all(w == omega_dot(spec, a) for a, w in walked), j


@given(
    st.lists(st.integers(1, 9), min_size=1, max_size=4).flatmap(
        lambda omega: st.tuples(
            st.just(tuple(omega)),
            st.integers(-5, 20),
            st.lists(st.integers(0, 4), min_size=len(omega), max_size=len(omega)),
        )
    )
)
@example(((9, 1), 2, [1, 0]))  # (1, 0) is minimal with slack 7 > omega_2 + need
@example(((1, 2), 9, [4, 2]))  # the row cannot reach 9 inside the box
@example(((1, 2), 6, [4, 2]))  # the row starts at x = 2
@example(((1, 1, 1), 7, [4, 1, 1]))  # no head reaches 7 inside the box
@example(((1, 1, 1), 5, [4, 1, 1]))  # the heads start at 3, the first row at 1
@example(((2, 3, 1, 5), 20, [3, 2, 4, 1]))  # heads start at (3, 2), the row at 3
def test_minima_of_any_weights_and_threshold(case):
    """The walk holds for any positive weights and any threshold, also
    one below a weight or at most zero, which no closure scan asks for."""
    omega, need, bounds = case
    floor = climb(lambda a: sum(map(operator.mul, omega, a)) >= need)
    walked = list(_minima(omega, need, tuple(bounds)))
    assert [a for a, _ in walked] == list(minimal_points(tuple(bounds), floor))
    assert all(w == sum(map(operator.mul, omega, a)) for a, w in walked)


def test_minima_head_skip_starts_at_the_first_head_that_reaches(monkeypatch):
    """Only heads from a_1 = 99999 on can reach need inside the box, so
    the head loop starts there: not at 0, which walks 10^5 heads, and
    not one below, whose row the row skip would leave empty.  The
    starts are read off the ``range`` calls, head loop first."""
    ranges = []

    def recorded(*args):
        ranges.append(args)
        return range(*args)

    monkeypatch.setattr(ilambda, "range", recorded, raising=False)
    walked = list(_minima((2, 1, 1), 2 * 10**5 - 1, (10**5, 1, 1)))
    assert ranges == [(99999, 10**5 + 1), (0, 2), (0, 2)]
    assert walked == [
        ((99999, 0, 1), 199999),
        ((99999, 1, 0), 199999),
        ((10**5, 0, 0), 2 * 10**5),
    ]


def level_floor(spec, p):
    """The ``minimal_points`` floor of omega . a >= pL in closed form: on
    the column c the least height is max(0, ceil((pL - omega'.c) /
    omega_n)), capped."""
    omega, need = spec.omega, p * spec.L

    def floor(col, cap):
        t = (omega_dot(spec, col + (0,)) - need) // omega[-1]
        return 0 if t >= 0 else min(-t, cap)

    return floor


def reference_normality_scan(spec):
    """The first (p, a), p = 2..n-1 and a a minimal point of the open box
    in ``minimal_points`` order, that ``decompose`` cannot split into p
    parts, or None: ``is_normal_lambda``'s scan with the full split search
    in place of its level test."""
    bounds = tuple(v - 1 for v in spec.lam)
    for p in range(2, spec.n):
        for a in minimal_points(bounds, level_floor(spec, p)):
            if decompose(spec, a, p) is None:
                return p, a
    return None


# entry caps that keep each scan small: the box has prod(lam) points
LAMBDA_CAPS = {3: 16, 4: 9, 5: 6, 6: 5}


@settings(deadline=None)
@given(
    st.integers(3, 6).flatmap(
        lambda n: st.lists(st.integers(1, LAMBDA_CAPS[n]), min_size=n, max_size=n)
    )
)
@example([2, 3, 7])
@example([3, 4, 7])  # a point whose one first part is the heaviest light enough
@example([4, 6, 9, 10])
@example([7, 9, 11, 13])
@example([3, 5, 130])
@example([2, 3, 5, 2**40])
def test_level_test_agrees_with_split_search(lam):
    """``is_normal_lambda``'s level test gives the verdict and witness of
    the full split search.  It answers differently on some points no
    scan reaches: (7, 9, 11, 13) at (5, 7, 9, 9), p = 3.  On the tuples
    a fast path takes, the split search checks the fast path's verdict."""
    spec = LambdaSpec(lam)
    witness = reference_normality_scan(spec)
    verdict = is_normal_lambda(spec)
    assert (verdict.normal, verdict.witness) == (witness is None, witness)


def plain_level_scan(spec):
    """``is_normal_lambda``'s level test with every generator tried in
    weight order at every point, before it tried the generator that
    passed the last point first: the first failing (p, a), or None."""
    omega, L = spec.omega, spec.L
    weights, gens = zip(
        *sorted((omega_dot(spec, g), g) for g in ilambda_generators(spec).generators)
    )
    bounds = tuple(v - 1 for v in spec.lam)
    for p in range(2, spec.n):
        for a in minimal_points(bounds, level_floor(spec, p)):
            count = bisect.bisect_right(weights, omega_dot(spec, a) - (p - 1) * L)
            if not any(all(map(operator.le, g, a)) for g in gens[:count]):
                return p, a
    return None


def test_last_passing_generator_is_tried_only_when_light_enough():
    """(2, 9, 11): the generator that passed the last point also lies
    below (1, 7, 8), but is too heavy to be its first part, so a retry
    without the weight guard would read the tuple as normal."""
    verdict = is_normal_lambda(LambdaSpec((2, 9, 11)))
    assert (verdict.normal, verdict.witness) == (False, (2, (1, 7, 8)))
    assert plain_level_scan(LambdaSpec((2, 9, 11))) == (2, (1, 7, 8))


def test_level_test_agrees_with_plain_level_scan():
    """The first-try order, and the ideal's order among generators of
    equal weight, change no verdict or witness, on every sorted tuple of
    3x14, 4x9 and 5x5 and on each one reversed, where the last
    coordinate, and with it the scan order, differs.  On the tuples a fast
    path takes, the plain scan checks the fast path's verdict."""
    for lam in itertools.chain(
        itertools.combinations_with_replacement(range(1, 15), 3),
        itertools.combinations_with_replacement(range(1, 10), 4),
        itertools.combinations_with_replacement(range(1, 6), 5),
    ):
        for order in (lam, lam[::-1]):
            spec = LambdaSpec(order)
            witness = plain_level_scan(spec)
            verdict = is_normal_lambda(spec)
            assert (verdict.normal, verdict.witness) == (witness is None, witness), order


@pytest.mark.parametrize("lift", [0, 48])
@pytest.mark.parametrize(
    "lam", [(2, 3, 7), (4, 6, 9, 10), (7, 9, 11, 13), (3, 5, 130), (2, 3, 5, 2**40)]
)
def test_split_test_agrees_with_decompose(lam, lift):
    """The split test behind ``is_normal_lambda``'s levels: once levels
    2..p-1 have passed, a splits into p parts iff some closure generator
    g <= a has omega . g <= omega . a - (p - 1) L.  Checked against
    ``decompose`` for every p from 2 to n that the scan reaches or would
    reach next, on points below lam whose last coordinate takes 6 values
    spread over 0..lam_n - 1 and is then raised by ``lift``: lift 48 puts
    it past lam_n on the small tuples, where the induction peels off
    lam_n e_n.  (3, 5, 130) and (2, 3, 5, 2**40) have weights wider than
    one byte."""
    spec = LambdaSpec(lam)
    L = spec.L
    gens = ilambda_generators(spec).generators
    verdict = is_normal_lambda(spec)
    last_level = spec.n if verdict.normal else verdict.witness[0]
    box = tuple(min(v - 1, 12) for v in lam[:-1]) + (5,)
    for p in range(2, last_level + 1):
        for a in box_enumerate(box):
            a = a[:-1] + (a[-1] * (lam[-1] - 1) // 5 + lift,)
            budget = omega_dot(spec, a) - (p - 1) * L
            splits = any(
                all(map(operator.le, g, a)) and omega_dot(spec, g) <= budget
                for g in gens
            )
            assert splits == (decompose(spec, a, p) is not None), (lam, a, p)


def test_decompose_validation():
    spec = LambdaSpec((2, 3))
    with pytest.raises(ValueError):
        decompose(spec, (1, 1), 0)
    with pytest.raises(Exception):
        decompose(spec, (1, 1, 1), 1)
    # the part count is taken exactly, like an exponent
    for p, v in ((2.0, 2), ("2", 2), (Fraction(4, 2), 2), (True, 1)):
        assert decompose(spec, (2, 3), p) == decompose(spec, (2, 3), v)
    for p in (2.5, Fraction(5, 2), "x", math.nan, math.inf, None):
        with pytest.raises(ValueError) as info:
            decompose(spec, (2, 3), p)
        assert str(info.value) == f"part count must be an integer, got {p!r}"


def split_corpus():
    """``decompose`` at p = 1..4 on boxes reaching one below zero,
    ``express_on_facet`` on every facet point of a box around the open
    box, and ``grp_facet_check`` at radius 2 on every sorted tuple of
    small ones, one repr per answer."""
    lines = []
    for lam in ((2, 2), (2, 3), (3, 4), (2, 2, 3), (2, 3, 4), (2, 3, 7), (3, 4, 5, 6)):
        spec = LambdaSpec(lam)
        S = ReesSemigroup(spec)
        box = [range(-1, min(2 * v, 7) + 1) for v in lam]
        for p in range(1, 5):
            for a in itertools.product(*box):
                lines.append(repr((lam, p, a, decompose(spec, a, p))))
        for a in itertools.product(*(range(-v, 2 * v) for v in lam)):
            d, r = divmod(omega_dot(spec, a), spec.L)
            if r == 0:
                lines.append(repr((lam, a, d, express_on_facet(S, a + (d,)))))
    for n, top in ((1, 12), (2, 12), (3, 6), (4, 4)):
        for lam in itertools.combinations_with_replacement(range(1, top + 1), n):
            S = ReesSemigroup(LambdaSpec(lam))
            lines.append(repr((lam, grp_facet_check(S, 2))))
    return lines


def test_split_corpus_is_pinned():
    """The split answers on ``split_corpus``, pinned when ``decompose``
    and the Rees facet split still ran as two searches."""
    lines = split_corpus()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        29398,
        "87a7104d84741723135b58d3eae63f747f91ca9c43a64af3c48e078f2f09fe4f",
    )


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
        verdict = is_normal_lambda(spec)
        assert (verdict.normal, verdict.witness) == (witness is None, witness), lam
        if witness is not None:
            assert decompose(spec, witness[1], witness[0]) is None, lam


def test_forced_enumeration_agrees_with_fast_paths():
    """Each fast path's verdict, normal, is forced through two routes
    that share no code with it: ``is_normal`` of the Newton closure of
    the axis ideal, and the brute-force ``normality_oracle``."""
    cases = [
        *((lam, "n<=2") for lam in itertools.product(range(1, 6), repeat=2)),
        *((lam, "gcd") for lam in itertools.product(range(2, 7, 2), repeat=3)),
    ]
    for lam, method in cases:
        spec = LambdaSpec(lam)
        assert is_normal_lambda(spec) == LambdaNormalityVerdict(True, None, method), lam
        assert is_normal(integral_closure(j_ideal(spec))).normal, lam
        assert normality_oracle(spec) is None, lam


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


@given(st.lists(st.integers(1, 30), min_size=1, max_size=4))
def test_congruence_spec_prime_is_the_spec_of_lam_prime(lam):
    """``congruence_reduce`` keeps only the bumped tuple; ``spec_prime``
    builds its spec, at every index."""
    spec = LambdaSpec(lam)
    for i in range(1, spec.n + 1):
        red = congruence_reduce(spec, i)
        assert red.spec_prime == LambdaSpec(red.lam_prime)
        assert red.spec_prime.lam == red.lam_prime


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
