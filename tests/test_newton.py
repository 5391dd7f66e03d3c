import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

from monideal import newton
from monideal import (
    INSIDE,
    OUTSIDE,
    LambdaSpec,
    MembershipCertificate,
    MonomialIdeal,
    NewtonPolyhedron,
    NormalityVerdict,
    affinely_independent,
    caratheodory_reduce,
    format_ideal,
    ilambda_generators,
    integral_closure,
    is_integrally_closed,
    is_normal,
    is_normal_lambda,
    parse_ideal,
    power,
)
from monideal.lattice import ConsistencyError
from monideal.oracles import box_enumerate, closure_oracle, dot, le_pr, power_membership

from conftest import lex_min_blocker, pairwise_minimal, random_ideal_corpus

FIXTURES = Path(__file__).parent / "fixtures"


def test_inside_certificate_matches_worked_example():
    ideal = parse_ideal("2,0;0,2")
    cert = NewtonPolyhedron(ideal).contains((1, 1))
    assert cert.verdict == INSIDE
    assert dict(cert.terms) == {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
    assert cert.slack == (0, 0)
    assert cert.denominator == 2
    assert cert.verify(NewtonPolyhedron(ideal))


def test_outside_certificate_separates():
    ideal = parse_ideal("2,0;0,2")
    cert = NewtonPolyhedron(ideal).contains((1, 0))
    assert cert.verdict == OUTSIDE
    assert all(x >= 0 for x in cert.w)
    values = [sum(w * g for w, g in zip(cert.w, gen)) for gen in ideal.generators]
    assert min(values) == 1
    assert sum(w * p for w, p in zip(cert.w, cert.point)) < 1
    assert cert.verify(NewtonPolyhedron(ideal))


def test_outside_certificate_single_generator():
    ideal = parse_ideal("1,0")
    cert = NewtonPolyhedron(ideal).contains((0, 3))
    assert cert.verdict == OUTSIDE
    assert cert.verify(NewtonPolyhedron(ideal))


def test_membership_of_rational_points():
    ideal = parse_ideal("2,0;0,2")
    on_facet = NewtonPolyhedron(ideal).contains((Fraction(1, 2), Fraction(3, 2)))
    assert on_facet.verdict == INSIDE
    outside = NewtonPolyhedron(ideal).contains((Fraction(1, 2), Fraction(1, 2)))
    assert outside.verdict == OUTSIDE


def test_membership_rejects_bad_points():
    ideal = parse_ideal("2,0;0,2")
    with pytest.raises(ValueError):
        NewtonPolyhedron(ideal).contains((-1, 0))
    with pytest.raises(ValueError):
        NewtonPolyhedron(ideal).contains((1, 1, 1))


class _SubFraction(Fraction):
    pass


def test_as_rational_point_coerces_to_exact_fractions():
    """Entries that are exactly Fractions pass through; every other entry,
    a Fraction subclass included, goes through ``newton.as_rational``."""
    entries = (2, True, Fraction(3, 4), _SubFraction(5, 6), "1/2", " 3 ", 0.5)
    for point in (entries, (x for x in entries)):
        p = newton.as_rational_point(point)
        assert p == tuple(Fraction(x) for x in entries)
        assert all(type(x) is Fraction for x in p)
    for bad in (-1, Fraction(-1, 2), "-1/3"):
        message = f"query points must be nonnegative, got {(Fraction(1), Fraction(bad))}"
        with pytest.raises(ValueError) as info:
            newton.as_rational_point((1, bad))
        assert str(info.value) == message
    # Fraction raises OverflowError on an infinity, and nan is no rational
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError) as info:
            newton.as_rational_point((1, bad))
        assert str(info.value) == f"query points must be rational, got {(1, bad)}"
    poly = NewtonPolyhedron(parse_ideal("2,0;0,2"))
    for ones in (((1, 1), (Fraction(1), Fraction(1)), ("1", "1")),
                 ((1, 0), (Fraction(1), Fraction(0)), ("1", "0"))):
        certs = [poly.contains(point) for point in ones]
        assert certs[0] == certs[1] == certs[2]


OUTSIDE_JSON = {"verdict": "outside", "w": ["1/2", "1/2"]}

# each call puts x, one half where it is rational, into one rational entry
RATIONAL_CALLS = {
    "NewtonPolyhedron.contains":
        lambda x: NewtonPolyhedron(parse_ideal("2,0;0,2")).contains((x, 1)),
    "from_json_dict point": lambda x: MembershipCertificate.from_json_dict(
        OUTSIDE_JSON, (x, 1)),
    "from_json_dict w": lambda x: MembershipCertificate.from_json_dict(
        {"verdict": "outside", "w": [x, "1/2"]}, (1, 1)),
    "caratheodory_reduce point":
        lambda x: caratheodory_reduce([(0, 0), (x, 0), (1, 0)], [Fraction(1, 3)] * 3),
    "caratheodory_reduce weight":
        lambda x: caratheodory_reduce([(0, 0), (1, 0)], [x, Fraction(1, 2)]),
    "affinely_independent": lambda x: affinely_independent([(0, 0), (x, 0), (1, 0)]),
}


@pytest.mark.parametrize("call", RATIONAL_CALLS.values(), ids=RATIONAL_CALLS)
def test_rationals_are_taken_exactly_or_refused(call):
    """Every entry point takes its rationals through ``newton.as_rational``:
    one half answers alike however it is written, and a value that is no
    rational raises ValueError."""
    assert repr(call(Fraction(1, 2))) == repr(call("1/2")) == repr(call(0.5))
    for x in ("1/0", None, math.inf, math.nan):
        with pytest.raises(ValueError, match="rational"):
            call(x)


def test_certificate_json_round_trip():
    ideal = parse_ideal("2,0;0,2")
    for point in ((1, 1), (1, 0)):
        cert = NewtonPolyhedron(ideal).contains(point)
        data = cert.to_json_dict()
        back = MembershipCertificate.from_json_dict(data, point=point)
        assert back.to_json_dict() == data
        assert back.verify(NewtonPolyhedron(ideal))
    inside = NewtonPolyhedron(ideal).contains((1, 1)).to_json_dict()
    assert inside == {
        "verdict": "inside",
        "weights": [["2,0", "1/2"], ["0,2", "1/2"]],
        "slack": "0,0",
        "denominator": 2,
    }


INSIDE_JSON = {"verdict": "inside", "weights": [["2,0", "1/2"], ["0,2", "1/2"]],
               "slack": "0,0", "denominator": 2}


def without(key):
    return {k: v for k, v in INSIDE_JSON.items() if k != key}


@pytest.mark.parametrize(
    "data, message",
    [
        (5, "malformed certificate: 5"),
        ({"verdict": "maybe"}, "malformed certificate: {'verdict': 'maybe'}"),
        (without("weights"), "malformed certificate: no 'weights' in"),
        (without("slack"), "malformed certificate: no 'slack' in"),
        (without("denominator"), "malformed certificate: no 'denominator' in"),
        ({"verdict": "outside"}, "malformed certificate: no 'w' in"),
        ({**INSIDE_JSON, "weights": "2,0"},
         "malformed certificate: 'weights' must be a list"),
        ({**INSIDE_JSON, "weights": [["2,0"]]},
         "malformed certificate: weights must be string pairs"),
        ({**INSIDE_JSON, "slack": [0, 0]},
         "malformed certificate: 'slack' must be a str"),
        ({**INSIDE_JSON, "denominator": 2.5}, "malformed certificate: denominator 2.5"),
        ({"verdict": "outside", "w": 5}, "malformed certificate: 'w' must be a list"),
        ({"verdict": "outside", "w": [None, "1"]}, "malformed rational: None"),
    ],
)
def test_certificate_json_of_another_shape_is_refused(data, message):
    with pytest.raises(ValueError) as info:
        MembershipCertificate.from_json_dict(data, (1, 1))
    assert str(info.value).startswith(message)


def test_certificate_verification_rejects_tampering():
    ideal = parse_ideal("2,0;0,2")
    poly = NewtonPolyhedron(ideal)
    good = NewtonPolyhedron(ideal).contains((1, 1))
    bad_weight = MembershipCertificate(
        INSIDE,
        good.point,
        terms=((good.terms[0][0], Fraction(1)),),
        slack=good.slack,
        denominator=1,
    )
    assert not bad_weight.verify(poly)
    bad_denominator = MembershipCertificate(
        INSIDE, good.point, terms=good.terms, slack=good.slack, denominator=4
    )
    assert not bad_denominator.verify(poly)
    for slack in (good.slack + (Fraction(0),), good.slack[:-1]):
        wrong_length = MembershipCertificate(
            INSIDE,
            good.point,
            terms=good.terms,
            slack=slack,
            denominator=good.denominator,
        )
        assert not wrong_length.verify(poly)
    out = NewtonPolyhedron(ideal).contains((1, 0))
    too_small = MembershipCertificate(
        OUTSIDE, out.point, w=tuple(x / 2 for x in out.w)
    )
    assert not too_small.verify(poly)
    half = (Fraction(1, 2), Fraction(1, 2))
    on_the_hyperplane = MembershipCertificate(OUTSIDE, (Fraction(1), Fraction(1)), w=half)
    assert not on_the_hyperplane.verify(poly)  # w.point == 1 is not < 1
    negative_slack = MembershipCertificate(
        INSIDE,
        (Fraction(1), Fraction(1)),
        terms=(((2, 0), Fraction(1)),),
        slack=(Fraction(-1), Fraction(1)),
        denominator=1,
    )
    assert not negative_slack.verify(poly)
    short_weights = MembershipCertificate(  # the equation holds, but sum 1/2
        INSIDE,
        (Fraction(1), Fraction(1)),
        terms=(((2, 0), Fraction(1, 2)),),
        slack=(Fraction(0), Fraction(1)),
        denominator=2,
    )
    assert not short_weights.verify(poly)
    # slack in thirds under weights in halves: the scaling must clear both
    thirds = dict(
        terms=tuple(zip(((2, 0), (0, 2)), half)),
        slack=(Fraction(1, 3), Fraction(0)),
        denominator=2,
    )
    assert MembershipCertificate(INSIDE, (Fraction(4, 3), Fraction(1)), **thirds).verify(poly)
    assert not MembershipCertificate(INSIDE, (Fraction(1), Fraction(1)), **thirds).verify(poly)
    int_weights = MembershipCertificate(
        INSIDE, (Fraction(3), Fraction(1)), terms=(((2, 0), 1),), slack=(1, 1), denominator=1
    )
    assert int_weights.verify(poly)
    wrong_dimension = MembershipCertificate(
        INSIDE,
        good.point + (Fraction(0),),
        terms=good.terms,
        slack=good.slack + (Fraction(0),),
        denominator=good.denominator,
    )
    assert not wrong_dimension.verify(poly)
    for missing in ("terms", "slack", "denominator"):
        assert not dataclasses.replace(good, **{missing: None}).verify(poly)
    not_a_generator = MembershipCertificate(  # (1,1) satisfies the equation
        INSIDE,
        (Fraction(1), Fraction(1)),
        terms=(((1, 1), Fraction(1)),),
        slack=(Fraction(0), Fraction(0)),
        denominator=1,
    )
    assert not not_a_generator.verify(poly)
    for w in (None, out.w[:1], out.w + (Fraction(0),)):
        assert not dataclasses.replace(out, w=w).verify(poly)
    assert not dataclasses.replace(good, verdict="unknown").verify(poly)
    for cert in (on_the_hyperplane, negative_slack, short_weights, int_weights):
        assert cert.verify(poly) == fraction_verify(cert, poly)


def fraction_verify(cert, polyhedron):
    """The Fraction-arithmetic ``MembershipCertificate.verify`` that the
    integer one replaced, kept here as its reference."""
    gens = polyhedron.ideal.generators
    if len(cert.point) != polyhedron.ideal.dim:
        return False
    if cert.verdict == INSIDE:
        if cert.terms is None or cert.slack is None or cert.denominator is None:
            return False
        gen_set = set(gens)
        weights = [wt for _, wt in cert.terms]
        if any(g not in gen_set for g, _ in cert.terms):
            return False
        if any(wt <= 0 for wt in weights) or sum(weights) != 1:
            return False
        if len(cert.slack) != len(cert.point) or any(s < 0 for s in cert.slack):
            return False
        for j in range(len(cert.point)):
            lhs = sum(wt * g[j] for g, wt in cert.terms) + cert.slack[j]
            if lhs != cert.point[j]:
                return False
        d = cert.denominator
        if d < 1 or d != math.lcm(*(wt.denominator for wt in weights)):
            return False
        return all((d * wt).denominator == 1 for wt in weights)
    if cert.verdict == OUTSIDE:
        if cert.w is None or len(cert.w) != len(cert.point):
            return False
        if any(x < 0 for x in cert.w):
            return False
        values = [dot(cert.w, g) for g in gens]
        if any(v < 1 for v in values) or min(values) != 1:
            return False
        return dot(cert.w, cert.point) < 1
    return False


def _nudged(values, i, delta):
    return values[:i] + (values[i] + delta,) + values[i + 1 :]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_verify_matches_fraction_reference(data):
    """Certificates from ``contains``, with one field nudged by +-1/k or
    left alone, verify in integers exactly when they verify by the
    Fraction reference."""
    dim = data.draw(st.integers(2, 4))
    vec = st.lists(st.integers(0, 6), min_size=dim, max_size=dim).map(tuple)
    ideal = MonomialIdeal(dim, data.draw(st.lists(vec, min_size=1, max_size=6)))
    poly = NewtonPolyhedron(ideal)
    g, h = (data.draw(st.sampled_from(ideal.generators)) for _ in range(2))
    t = Fraction(data.draw(st.integers(0, 4)), 4)
    # scale 5/8..11/8, listed so that shrinking does not favour one verdict
    s = Fraction(data.draw(st.sampled_from((9, 6, 11, 5, 8, 10, 7))), 8)
    cert = poly.contains(tuple(s * (t * x + (1 - t) * y) for x, y in zip(g, h)))
    assert fraction_verify(cert, poly)
    fields = ["weight", "slack", "denominator"] if cert.verdict == INSIDE else ["w"]
    fields += ["point", "none"]
    field = data.draw(st.sampled_from(fields))
    delta = data.draw(st.sampled_from((-1, 1))) * Fraction(1, data.draw(st.integers(1, 5)))
    if field == "point":
        i = data.draw(st.integers(0, dim - 1))
        cert = dataclasses.replace(cert, point=_nudged(cert.point, i, delta))
    elif field == "weight":
        i = data.draw(st.integers(0, len(cert.terms) - 1))
        gen, wt = cert.terms[i]
        terms = cert.terms[:i] + ((gen, wt + delta),) + cert.terms[i + 1 :]
        cert = dataclasses.replace(cert, terms=terms)
    elif field == "slack":
        i = data.draw(st.integers(0, dim - 1))
        cert = dataclasses.replace(cert, slack=_nudged(cert.slack, i, delta))
    elif field == "denominator":
        cert = dataclasses.replace(cert, denominator=cert.denominator + delta)
    elif field == "w":
        i = data.draw(st.integers(0, dim - 1))
        cert = dataclasses.replace(cert, w=_nudged(cert.w, i, delta))
    expected = fraction_verify(cert, poly)
    event(f"{cert.verdict} {field} {expected}")
    assert cert.verify(poly) == expected


def test_inside_denominator_certifies_power_membership():
    """Scaling an inside certificate by its denominator clears every
    fraction, so d*a must lie in the exponent set of the d-th power."""
    for ideal in random_ideal_corpus(20, seed=411):
        for a in box_enumerate(tuple(3 for _ in range(ideal.dim))):
            cert = NewtonPolyhedron(ideal).contains(a)
            if cert.verdict == INSIDE:
                d = cert.denominator
                assert power(ideal, d).contains(tuple(d * x for x in a))
                assert power_membership(ideal, a, max_power=d) is not None


def test_membership_scales_to_powers():
    """a in NP(I) iff m*a in NP(I^m), for rational a too."""
    rng = random.Random(77)
    for ideal in random_ideal_corpus(10, seed=78, max_dim=3, max_exp=3):
        for m in (2, 3):
            pw = power(ideal, m)
            for _ in range(6):
                a = tuple(
                    Fraction(rng.randint(0, 12), rng.randint(1, 4))
                    for _ in range(ideal.dim)
                )
                lhs = NewtonPolyhedron(ideal).contains(a).verdict
                rhs = NewtonPolyhedron(pw).contains(tuple(m * x for x in a)).verdict
                assert lhs == rhs, (ideal, m, a)


def test_caratheodory_keeps_independent_input():
    pts = [(0, 0), (2, 0)]
    wts = [Fraction(1, 4), Fraction(3, 4)]
    out_pts, out_wts = caratheodory_reduce(pts, wts)
    assert out_pts == ((0, 0), (2, 0))
    assert out_wts == (Fraction(1, 4), Fraction(3, 4))


def test_caratheodory_reduces_line_points():
    pts = [(0,), (1,), (3,), (4,)]
    wts = [Fraction(1, 4)] * 4
    out_pts, out_wts = caratheodory_reduce(pts, wts)
    assert len(out_pts) <= 2
    assert sum(out_wts) == 1
    assert sum(w * p[0] for p, w in zip(out_pts, out_wts)) == 2
    assert affinely_independent(out_pts)
    assert set(out_pts) <= set((Fraction(x),) for x in (0, 1, 3, 4))


def test_caratheodory_reduces_square_corners():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    wts = [Fraction(1, 4)] * 4
    out_pts, out_wts = caratheodory_reduce(pts, wts)
    assert len(out_pts) <= 3
    assert affinely_independent(out_pts)
    for j in range(2):
        assert sum(w * p[j] for p, w in zip(out_pts, out_wts)) == Fraction(1, 2)


def test_caratheodory_drops_zero_weights():
    out_pts, out_wts = caratheodory_reduce(
        [(0, 0), (5, 5), (1, 0)], [Fraction(1, 2), Fraction(0), Fraction(1, 2)]
    )
    assert (Fraction(5), Fraction(5)) not in out_pts
    assert all(w > 0 for w in out_wts)


def test_caratheodory_validates_input():
    with pytest.raises(ValueError):
        caratheodory_reduce([], [])
    with pytest.raises(ValueError):
        caratheodory_reduce([(0, 0)], [Fraction(1, 2)])
    with pytest.raises(ValueError):
        caratheodory_reduce([(0, 0), (1, 1)], [Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError):
        caratheodory_reduce([(0, 0), (1,)], [Fraction(1, 2), Fraction(1, 2)])


@pytest.mark.parametrize("points", [[(0, 0), (1, 0, 5)], [(0, 0, 0), (1, 0)]])
def test_affinely_independent_refuses_mixed_dimensions(points):
    with pytest.raises(ValueError, match="points of mixed dimensions"):
        affinely_independent(points)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_caratheodory_random_combinations(data):
    dim = data.draw(st.integers(2, 4))
    count = data.draw(st.integers(1, dim + 4))
    pts = [
        tuple(
            Fraction(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 3)))
            for _ in range(dim)
        )
        for _ in range(count)
    ]
    raw = [data.draw(st.integers(1, 9)) for _ in range(count)]
    total = sum(raw)
    wts = [Fraction(r, total) for r in raw]
    target = [sum(w * p[j] for p, w in zip(pts, wts)) for j in range(dim)]
    out_pts, out_wts = caratheodory_reduce(pts, wts)
    assert len(out_pts) <= dim + 1
    assert affinely_independent(out_pts)
    assert sum(out_wts) == 1 and all(w > 0 for w in out_wts)
    assert set(out_pts) <= set(pts)
    for j in range(dim):
        assert sum(w * p[j] for p, w in zip(out_pts, out_wts)) == target[j]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_inside_certificate_support_is_affinely_independent(data):
    """Phase 1 ends on a basic solution, so the generators carrying
    positive weight are affinely independent, at most n + 1 of them,
    without any Caratheodory reduction."""
    dim = data.draw(st.integers(2, 5))
    vec = st.lists(st.integers(0, 6), min_size=dim, max_size=dim).map(tuple)
    ideal = MonomialIdeal(dim, data.draw(st.lists(vec, min_size=1, max_size=8)))
    raw = [data.draw(st.integers(0, 4)) for _ in ideal.generators]
    if not any(raw):
        raw[0] = 1
    slack = [Fraction(data.draw(st.integers(0, 3)), 2) for _ in range(dim)]
    point = tuple(
        sum(Fraction(r, sum(raw)) * g[j] for r, g in zip(raw, ideal.generators))
        + slack[j]
        for j in range(dim)
    )
    cert = NewtonPolyhedron(ideal).contains(point)
    assert cert.verdict == INSIDE
    support = [g for g, _ in cert.terms]
    assert len(support) <= dim + 1
    assert affinely_independent(support)


def test_certificates_match_pinned_fixture():
    """210 queries whose certificates were written by the simplex over a
    Fraction tableau that the integer simplex replaced: generator points,
    facet points where the ratio test ties, the zero point, exponents up
    to 10**6 and point denominators up to 10**6.  The integer simplex
    takes the same pivots, so every certificate must match byte for
    byte."""
    entries = json.loads((FIXTURES / "lp_certificates.json").read_text())
    assert len(entries) >= 200
    for entry in entries:
        poly = NewtonPolyhedron(parse_ideal(entry["ideal"]))
        cert = poly.contains(Fraction(x) for x in entry["point"])
        assert json.dumps(cert.to_json_dict()) == json.dumps(entry["certificate"]), entry


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_tableau_certificates_verify(data):
    """Certificates from the integer simplex re-verify, in integers once
    their denominators are cleared, on points near the boundary, with
    exponents and point denominators up to 10**6; no ConsistencyError is
    raised.  On small integer points an inside verdict is forced whenever
    the power criterion certifies one."""
    dim = data.draw(st.integers(2, 5))
    top = data.draw(st.sampled_from((6, 10**6)))
    vec = st.lists(st.integers(0, top), min_size=dim, max_size=dim).map(tuple)
    ideal = MonomialIdeal(dim, data.draw(st.lists(vec, min_size=1, max_size=7)))
    poly = NewtonPolyhedron(ideal)
    if top == 6 and data.draw(st.booleans()):
        a = tuple(data.draw(st.lists(st.integers(0, 7), min_size=dim, max_size=dim)))
        cert = poly.contains(a)
        assert cert.verify(poly)
        if power_membership(ideal, a, max_power=4) is not None:
            assert cert.verdict == INSIDE, (ideal, a)
        return
    big = st.integers(1, 10**6)
    raw = [data.draw(st.integers(0, 10**6)) for _ in ideal.generators]
    if not any(raw):
        raw[0] = 1
    slack = [Fraction(data.draw(st.integers(0, top)), data.draw(big)) for _ in range(dim)]
    den = data.draw(big)
    scale = Fraction(data.draw(st.integers(3 * den // 4, 3 * den // 2)), den)
    point = tuple(
        scale * (sum(Fraction(r, sum(raw)) * g[j] for r, g in zip(raw, ideal.generators))
                 + slack[j])
        for j in range(dim)
    )
    cert = poly.contains(point)
    event(cert.verdict)
    assert cert.point == point
    assert cert.verify(poly)


def tableau_pivot(rows, obj, basis, leave, enter, d):
    """One fraction-free pivot of the full tableau; returns the new common
    denominator.  Every row but ``leave``, and the objective row, becomes
    (row * piv - row[enter] * prow) / d."""
    prow = rows[leave]
    piv = prow[enter]
    for i, row in enumerate(rows):
        if i != leave:
            f = row[enter]
            rows[i] = [(v * piv - f * p) // d for v, p in zip(row, prow)]
    f = obj[enter]
    obj[:] = [(v * piv - f * p) // d for v, p in zip(obj, prow)]
    basis[leave] = enter
    return piv


def tableau_phase1(gens, point):
    """The phase-1 simplex over the full integer tableau, with columns for
    the weights, slacks and artificials and an objective row, that the
    revised simplex in ``newton._phase1`` replaced, kept here as its
    reference.  It takes a point of Fractions and returns ('inside',
    weights, slack) or ('outside', w, None) in Fractions."""
    n = len(point)
    r = len(gens)
    width = r + n
    nrows = n + 1
    q = math.lcm(*(x.denominator for x in point))

    rows = []
    for j in range(n):
        row = [g[j] for g in gens]
        row += [1 if k == j else 0 for k in range(n)]
        row += [1 if i == j else 0 for i in range(nrows)]
        row.append(point[j].numerator * (q // point[j].denominator))
        rows.append(row)
    last = [1] * r + [0] * n
    last += [1 if i == n else 0 for i in range(nrows)]
    last.append(q)
    rows.append(last)

    obj = [-s for s in map(sum, itertools.islice(zip(*rows), width))]
    obj += [0] * (nrows + 1)
    basis = [width + i for i in range(nrows)]
    d = 1

    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(nrows):
            a = rows[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs, rhs = rows[i][-1] * rows[leave][enter], rows[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ConsistencyError("phase-1 simplex claims an unbounded objective")
        d = tableau_pivot(rows, obj, basis, leave, enter, d)

    residual = sum(rows[i][-1] for i in range(nrows) if basis[i] >= width)
    if residual == 0:
        x = [Fraction(0)] * width
        for i, b in enumerate(basis):
            if b < width:
                x[b] = Fraction(rows[i][-1], d * q)
        return INSIDE, tuple(x[:r]), tuple(x[r:])

    Y = [d - obj[width + i] for i in range(nrows)]
    if Y[n] <= 0 or any(Y[j] > 0 for j in range(n)):
        raise ConsistencyError("phase-1 dual has the wrong sign pattern")
    u = [-Y[j] for j in range(n)]
    m = min(sum(uj * gj for uj, gj in zip(u, g)) for g in gens)
    if m < Y[n]:
        raise ConsistencyError("separating functional fails on a generator")
    return OUTSIDE, tuple(Fraction(uj, m) for uj in u), None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_revised_simplex_matches_tableau_reference(data):
    """The revised simplex takes the full tableau's pivots, so its integers
    give exactly the reference's verdict and weights, slack or
    functional, also with the point's numerators and common denominator
    both tripled: on generator points, on facet points (convex
    combinations of generators, where the ratio test ties), on the zero
    point, on those scaled, and on random points, with exponents and
    point denominators up to 10**6 in 1 to 5 variables."""
    dim = data.draw(st.integers(1, 5))
    top = data.draw(st.sampled_from((6, 10**6)))
    vec = st.lists(st.integers(0, top), min_size=dim, max_size=dim).map(tuple)
    gens = MonomialIdeal(dim, data.draw(st.lists(vec, min_size=1, max_size=7))).generators
    big = st.integers(1, 10**6)
    kind = data.draw(st.sampled_from(("scaled", "random", "facet", "generator", "zero")))
    if kind == "generator":
        point = data.draw(st.sampled_from(gens))
    elif kind == "zero":
        point = (0,) * dim
    elif kind == "random":
        point = [Fraction(data.draw(st.integers(0, 2 * top)), data.draw(big)) for _ in gens[0]]
    else:
        raw = [data.draw(st.integers(0, 3)) for _ in gens]
        if not any(raw):
            raw[0] = 1
        point = [sum(Fraction(w, sum(raw)) * g[j] for w, g in zip(raw, gens)) for j in range(dim)]
        if kind == "scaled":
            den = data.draw(big)
            s = Fraction(data.draw(st.integers(3 * den // 4, 3 * den // 2)), den)
            point = [s * x for x in point]
    point = newton.as_rational_point(point)
    expected = tableau_phase1(gens, point)
    event(f"{kind} {expected[0]}")
    q = math.lcm(*(x.denominator for x in point))
    b = [x.numerator * (q // x.denominator) for x in point]
    # scaling b and q by a positive integer keeps the basis sequence, so
    # the integers change and the rationals they stand for do not
    for k in (1, 3):
        verdict, x, den = newton._phase1(gens, [k * v for v in b], k * q)
        if verdict == INSIDE:
            x = [Fraction(v, den) for v in x]
            got = (INSIDE, tuple(x[: len(gens)]), tuple(x[len(gens):]))
        else:
            got = (OUTSIDE, tuple(Fraction(v, den) for v in x), None)
        assert got == expected


def test_power_examples():
    ideal = parse_ideal("2,0;0,2")
    assert format_ideal(power(ideal, 2)) == "4,0;2,2;0,4"
    assert power(ideal, 1) == ideal
    assert power(ideal, 0) == MonomialIdeal(2, [(0, 0)])
    with pytest.raises(ValueError):
        power(ideal, -1)


def test_power_of_two_generator_ideal_has_binomial_many_generators():
    ideal = parse_ideal("3,0;0,2")
    for m in range(1, 5):
        assert len(power(ideal, m).generators) == m + 1


ideals_up_to_4 = st.integers(1, 4).flatmap(
    lambda dim: st.lists(
        st.tuples(*[st.integers(0, 5)] * dim), min_size=1, max_size=6
    ).map(lambda gens: MonomialIdeal(dim, gens))
)


def power_reference(ideal, m):
    """Every m-fold sum of generators (the empty sum at m = 0), added as
    tuples and filtered pairwise to the ones no other sum lies below."""
    sums = [
        tuple(sum(g[j] for g in combo) for j in range(ideal.dim))
        for combo in itertools.combinations_with_replacement(ideal.generators, m)
    ]
    return pairwise_minimal(sums)


@given(ideals_up_to_4, st.integers(0, 3))
def test_power_matches_brute_force(ideal, m):
    assert power(ideal, m).generators == power_reference(ideal, m)
    assert power(ideal, 1) == ideal


wide_ideals = st.integers(1, 5).flatmap(
    lambda dim: st.lists(
        st.tuples(*[st.integers(0, 3) | st.integers(0, 2**70)] * dim),
        min_size=1,
        max_size=5,
    ).map(lambda gens: MonomialIdeal(dim, gens))
)


@settings(max_examples=150, deadline=None)
@given(wide_ideals, st.integers(0, 5))
@example(MonomialIdeal(3, [(0, 0, 0)]), 5)
@example(MonomialIdeal(1, [(7,)]), 5)
@example(MonomialIdeal(1, [(2**70,)]), 3)
@example(MonomialIdeal(3, [(8, 0, 0), (0, 8, 1), (3, 5, 8)]), 2)
@example(MonomialIdeal(2, [(2**68, 0), (0, 2**68), (2**67, 1)]), 4)
@example(MonomialIdeal(5, [(2**70, 0, 1, 0, 3), (0, 1, 2**70, 2, 0), (1, 1, 1, 1, 1)]), 5)
def test_power_packs_sums_without_carries(ideal, m):
    """``power`` adds packed generators, a field per coordinate.  The
    fields hold m * max exponent, and the examples put that exactly on a
    power of two (16 and 2**70), take the unit ideal, whose fields are
    all zero, and one variable, whose sums have one field."""
    assert power(ideal, m).generators == power_reference(ideal, m)


def test_closure_matches_committed_fixture():
    entries = json.loads((FIXTURES / "closure_examples.json").read_text())
    assert entries, "fixture file is empty; run: monideal seed-fixtures --out tests/fixtures"
    for entry in entries:
        ideal = parse_ideal(entry["gens"])
        assert format_ideal(integral_closure(ideal)) == entry["closure"]


def test_closure_agrees_with_power_oracle_on_random_ideals():
    for ideal in random_ideal_corpus(25, seed=1207):
        closed = integral_closure(ideal)
        oracle = closure_oracle(ideal)
        bounds = tuple(max(g[j] for g in ideal.generators) for j in range(ideal.dim))
        complete = True
        for a in box_enumerate(bounds):
            if oracle.contains(a):
                assert closed.contains(a), (ideal, a)
            elif closed.contains(a):
                complete = False  # oracle missed: needs a power beyond 8
        if complete:
            assert closed == oracle, ideal


def test_closure_is_idempotent_and_contains_ideal():
    for ideal in random_ideal_corpus(25, seed=5150):
        closed = integral_closure(ideal)
        assert all(closed.contains(g) for g in ideal.generators)
        assert integral_closure(closed) == closed


def test_closure_of_closed_ideal_is_itself():
    ideal = parse_ideal("2,0;1,1;0,2")
    assert integral_closure(ideal) == ideal
    assert is_integrally_closed(ideal) == (True, None)


def test_points_beyond_generator_box_reduce_inward():
    """A polyhedron lattice point with a coordinate above the generator
    maximum stays inside after decrementing that coordinate."""
    for ideal in random_ideal_corpus(10, seed=99, max_dim=2, max_exp=3):
        bounds = tuple(max(g[j] for g in ideal.generators) for j in range(ideal.dim))
        poly = NewtonPolyhedron(ideal)
        for a in box_enumerate(tuple(b + 2 for b in bounds)):
            for j in range(ideal.dim):
                if a[j] > bounds[j] and poly.contains(a).verdict == INSIDE:
                    lowered = a[:j] + (a[j] - 1,) + a[j + 1 :]
                    assert poly.contains(lowered).verdict == INSIDE


def test_closed_witness_lies_in_closure_but_not_ideal():
    ideal = parse_ideal("2,0;0,2")
    closed, witness = is_integrally_closed(ideal)
    assert not closed
    assert witness == (1, 1)
    assert integral_closure(ideal).contains(witness)
    assert not ideal.contains(witness)


@pytest.mark.parametrize(
    "lam, verdict",
    [
        ((6, 6, 6, 6), NormalityVerdict(True)),
        ((3, 3, 3, 3, 3), NormalityVerdict(True)),
        ((4, 5, 6, 7), NormalityVerdict(False, failing_power=2, witness=(0, 3, 5, 4))),
    ],
)
def test_is_normal_on_large_closures_agrees_with_lambda_route(lam, verdict):
    """Criterion 05 past the triples: closures with 84, 35 and 61
    generators, whose powers have hundreds of generators."""
    spec = LambdaSpec(lam)
    assert is_normal(ilambda_generators(spec)) == verdict
    assert is_normal_lambda(spec).normal == verdict.normal


def test_is_normal_agrees_with_lambda_route_in_five_variables():
    """Criterion 05 in five variables: on all 56 sorted 5-tuples of
    [1, 4]^5, and on every sorted 5-tuple of [1, 5]^5 that the lambda
    route refutes, the two routes give the same verdict, and at a failure
    the same failing power and witness."""
    for lam in itertools.combinations_with_replacement(range(1, 6), 5):
        spec = LambdaSpec(lam)
        lv = is_normal_lambda(spec)
        if lv.normal and 5 in lam:
            continue  # the normal closures with an exponent 5 cost seconds
        verdict = is_normal(ilambda_generators(spec))
        expected = (lv.normal, *(lv.witness or (None, None)))
        assert (verdict.normal, verdict.failing_power, verdict.witness) == expected, lam


def test_is_normal_agrees_with_lambda_route_on_every_sorted_four_tuple():
    """Criterion 05 in four variables: the two routes agree on all 126
    sorted 4-tuples of [1, 6]^4, so the lambda route's level p = 3 is
    checked on each normal tuple it scans."""
    for lam in itertools.combinations_with_replacement(range(1, 7), 4):
        spec = LambdaSpec(lam)
        normal = is_normal_lambda(spec).normal
        assert is_normal(ilambda_generators(spec)).normal == normal, lam


def test_normality_powers_route():
    assert is_normal(parse_ideal("2,0;1,1;0,2")).normal
    assert is_normal(parse_ideal("1,0")).normal
    verdict = is_normal(parse_ideal("2,0,0;1,2,0;1,1,2;1,0,4;0,3,0;0,2,3;0,1,5;0,0,7"))
    assert not verdict.normal
    assert verdict.failing_power == 2
    assert verdict.witness is not None


def test_normal_ideal_powers_stay_closed():
    ideal = parse_ideal("2,0;1,1;0,2")
    for m in (1, 2, 3):
        assert is_integrally_closed(power(ideal, m))[0]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scaled_polyhedron_matches_each_power_polyhedron(data):
    """The closure of I^m scanned on m.NP(I) equals the closure scanned on
    NP(I^m), and is_normal on the one scaled polyhedron gives the verdict
    of the loop over is_integrally_closed(power(I, m))."""
    dim = data.draw(st.integers(2, 4))
    vec = st.lists(st.integers(0, 5), min_size=dim, max_size=dim).map(tuple)
    ideal = MonomialIdeal(dim, data.draw(st.lists(vec, min_size=1, max_size=5)))
    m = data.draw(st.sampled_from([1, 2, 3]))
    pw = power(ideal, m)
    scaled = integral_closure(pw, power_of=(NewtonPolyhedron(ideal), m))
    assert scaled == integral_closure(pw)

    expected = NormalityVerdict(True)
    for k in range(1, max(1, dim - 1) + 1):
        closed, witness = is_integrally_closed(power(ideal, k))
        if not closed:
            expected = NormalityVerdict(False, failing_power=k, witness=witness)
            break
    assert is_normal(ideal) == expected


def eager_witness(ideal, m, poly):
    """The full closure of I^m, scanned to its end, then the least of its
    generators outside I^m: the route before the scan stopped early."""
    pw = power(ideal, m)
    closed = integral_closure(pw, power_of=(poly, m))
    return min((g for g in closed.generators if g not in pw.generators), default=None)


@st.composite
def scan_ideals(draw):
    """Ideals in 2 to 4 variables with entries up to 8 - n, large enough
    that many are not normal."""
    dim = draw(st.integers(2, 4))
    vec = st.lists(st.integers(0, 8 - dim), min_size=dim, max_size=dim).map(tuple)
    return MonomialIdeal(dim, draw(st.lists(vec, min_size=1, max_size=6)))


@settings(max_examples=100, deadline=None)
@given(scan_ideals())
def test_early_stop_matches_the_eager_scan(ideal):
    """``is_normal`` and ``is_integrally_closed`` stop their scans at the
    witness, and give what the eager scan gives: the same verdict, power
    and witness."""
    poly = NewtonPolyhedron(ideal)
    expected = NormalityVerdict(True)
    for m in range(1, max(1, ideal.dim - 1) + 1):
        witness = eager_witness(ideal, m, poly)
        if witness is not None:
            expected = NormalityVerdict(False, failing_power=m, witness=witness)
            break
    event(f"normal: {expected.normal}")
    assert is_normal(ideal) == expected
    witness = eager_witness(ideal, 1, NewtonPolyhedron(ideal))
    assert is_integrally_closed(ideal) == (witness is None, witness)


def lp_points(run):
    """Run ``run()`` and list every LP point a/m of its scans as (m, a),
    m the power last passed to ``power`` (1 before any)."""
    asked, current = [], [1]
    contains, pw = NewtonPolyhedron.contains, newton.power

    def recorded_power(ideal, m):
        current[0] = m
        return pw(ideal, m)

    def recorded_contains(self, point):
        m = current[0]
        asked.append((m, tuple(int(x * m) for x in point)))
        return contains(self, point)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton, "power", recorded_power)
        mp.setattr(newton.NewtonPolyhedron, "contains", recorded_contains)
        return run(), asked


@settings(max_examples=100, deadline=None)
@given(scan_ideals())
# the witness (1,1,2) of (xz^3, y^3) has the LP point (1,2,1) after it in
# its row a_1 = 1: the walk yields the witness before asking that column
@example(parse_ideal("1,0,3;0,3,0"))
def test_no_lp_runs_past_the_witness(ideal):
    """On the power that fails, no LP point a/m has a lex-after the
    witness: the scan stops there.  The same holds for the one scan of
    ``is_integrally_closed``."""
    verdict, asked = lp_points(lambda: is_normal(ideal))
    event(f"normal: {verdict.normal}")
    if not verdict.normal:
        m = verdict.failing_power
        assert all(a <= verdict.witness for k, a in asked if k == m)
    (closed, witness), asked = lp_points(lambda: is_integrally_closed(ideal))
    if not closed:
        assert all(a <= witness for _, a in asked)


def test_integrally_closed_skips_the_lps_past_its_witness():
    """The full closure scan of (x^4 z^2, y^4 z^4) runs 5 LPs, the last
    2 past the witness (1,3,4); ``is_integrally_closed`` runs the first 3
    and stops.  The seeded cut z >= 2 lifts the first column to (0,0,2),
    so no LP runs at the origin."""
    ideal = parse_ideal("4,0,2;0,4,4")
    closure, full = lp_points(lambda: integral_closure(ideal))
    verdict, lazy = lp_points(lambda: is_integrally_closed(ideal))
    assert verdict == (False, (1, 3, 4))
    assert min(g for g in closure.generators if g not in ideal.generators) == (1, 3, 4)
    assert full == [(1, a) for a in ((0, 0, 2), (0, 4, 2), (1, 3, 4), (2, 2, 3), (3, 1, 3))]
    assert lazy == full[:3]
    assert all(a > (1, 3, 4) for _, a in full[3:])


def test_is_normal_runs_every_lp_on_the_base_ideal(monkeypatch):
    """All three powers of this normal ideal are scanned on NP(I) with one
    cut cache, seeded with the facet a_2 + a_4 >= 1: 4 LPs of 4 columns each,
    16 columns in all, at the points a/m below.  Scanning each power on
    its own unseeded polyhedron took 12 LPs and 152 columns."""
    ideal = parse_ideal("1,1,0,0;1,0,0,2;0,1,1,0;0,0,2,1")
    columns = []
    contains = NewtonPolyhedron.contains

    def counted(self, point):
        assert self.ideal == ideal
        columns.append(len(self.ideal.generators))
        return contains(self, point)

    monkeypatch.setattr(newton.NewtonPolyhedron, "contains", counted)
    verdict, asked = lp_points(lambda: is_normal(ideal))
    assert verdict.normal
    assert columns == [len(ideal.generators)] * 4
    assert asked == [(1, (0, 0, 0, 1)), (1, (1, 0, 0, 1)), (2, (1, 2, 0, 0)), (3, (1, 2, 2, 1))]


def test_cuts_learnt_at_one_power_serve_the_next(monkeypatch):
    """Scanning I = (x^2, y^3) is seeded with the one cut 3a + 2b < 6,
    the lex-min point (1/2, 1/3) of the blocker, and learns none.  Read
    as 3a + 2b < 2*6 it rejects every outside point of I^2, so the scan
    of the second power runs LPs only at its inside points (3,2) and
    (1,5)."""
    ideal = parse_ideal("2,0;0,3")
    poly = NewtonPolyhedron(ideal)
    assert integral_closure(ideal, power_of=(poly, 1)) == integral_closure(ideal)
    assert poly._cuts == [((3, 2), 6)]
    points = []
    contains = NewtonPolyhedron.contains

    def counted(self, point):
        cert = contains(self, point)
        points.append((point, cert.verdict))
        return cert

    monkeypatch.setattr(newton.NewtonPolyhedron, "contains", counted)
    closed = integral_closure(power(ideal, 2), power_of=(poly, 2))
    assert format_ideal(closed) == "4,0;3,2;2,3;1,5;0,6"
    half = Fraction(1, 2)
    assert points == [((half, 5 * half), INSIDE), ((3 * half, 1), INSIDE)]
    assert poly._cuts == [((3, 2), 6)]
    with pytest.raises(ValueError):
        integral_closure(ideal, power_of=(poly, 0))


def rank(rows):
    """The rank of integer rows, by Fraction elimination."""
    rows = [list(map(Fraction, r)) for r in rows]
    done = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(done, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        for i in range(done + 1, len(rows)):
            f = rows[i][col] / rows[done][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[done])]
        done += 1
    return done


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=6)
))
# the unit ideal; a zero entry; not m-primary; num_n = 0; four variables
@example([(0, 0, 0), (1, 2, 0)])
@example([(1, 0, 0)])
@example([(0, 2, 0), (0, 0, 3)])
@example([(1, 2, 0), (0, 6, 0)])
@example([(1, 1, 0, 0), (1, 0, 0, 2), (0, 1, 1, 0), (0, 0, 2, 1)])
def test_seed_is_the_lex_min_vertex_of_the_blocker(gens):
    """The seed is a valid cut in lowest terms, tight on some generator.
    It is a vertex of the blocker B = {w >= 0 : w.g >= 1}: the tight
    generators and the unit vectors e_i with num_i = 0 have rank n.  It
    equals the Fraction reference of the lex-min rule, and only the unit
    ideal gets none."""
    ideal = MonomialIdeal(len(gens[0]), gens)
    seed = newton._blocker_lex_min(ideal.generators)
    assert seed == lex_min_blocker(ideal.generators)
    if seed is None:
        assert ideal.generators == ((0,) * ideal.dim,)
        return
    num, den = seed
    assert den > 0 and min(num) >= 0 and math.gcd(den, *num) == 1
    assert min(dot(num, g) for g in ideal.generators) == den
    tight = [g for g in ideal.generators if dot(num, g) == den]
    units = [tuple(int(i == j) for j in range(ideal.dim)) for i, v in enumerate(num) if not v]
    assert rank(tight + units) == ideal.dim


def test_pure_power_closures_are_seeded_with_their_facet():
    """On the closure of (x_1^l_1, .., x_n^l_n), for every tuple of [1,6]^3
    and [1,4]^4, the seed is omega / L, the one compact facet, in lowest
    terms since gcd(omega) = 1.  ``is_normal`` then runs no LP when the
    closure is normal and one, at its witness, when it is not."""
    tuples = [
        *itertools.product(range(1, 7), repeat=3),
        *itertools.product(range(1, 5), repeat=4),
    ]
    normal = 0
    for lam in tuples:
        spec = LambdaSpec(lam)
        closure = ilambda_generators(spec)
        assert newton._blocker_lex_min(closure.generators) == (spec.omega, spec.L)
        verdict, asked = lp_points(lambda: is_normal(closure))
        assert asked == ([] if verdict.normal else [(verdict.failing_power, verdict.witness)])
        normal += verdict.normal
    assert 0 < normal < len(tuples)


def test_a_seed_that_fails_a_generator_is_refused(monkeypatch):
    """The scan re-checks the seed in integers before it caches it."""
    ideal = parse_ideal("2,0;0,3")
    for bad in (((3, 1), 6), ((-1, 3), 2), ((3, 2), 5)):
        monkeypatch.setattr(newton, "_blocker_lex_min", lambda gens: bad)
        with pytest.raises(ConsistencyError):
            integral_closure(ideal)
        with pytest.raises(ConsistencyError):
            is_normal(ideal)


def test_unit_ideal_gets_no_seed_and_still_scans():
    unit = MonomialIdeal(3, [(0, 0, 0)])
    poly = NewtonPolyhedron(unit)
    assert newton._blocker_lex_min(unit.generators) is None
    closure, asked = lp_points(lambda: integral_closure(unit, power_of=(poly, 1)))
    assert closure == unit and asked == [] and poly._cuts == []
    assert is_normal(unit) == NormalityVerdict(True)
    assert is_integrally_closed(unit) == (True, None)
