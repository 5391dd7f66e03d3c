import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

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
    box_enumerate,
    caratheodory_reduce,
    format_ideal,
    ilambda_generators,
    integral_closure,
    is_integrally_closed,
    is_normal,
    is_normal_lambda,
    le_pr,
    parse_ideal,
    power,
)
from monideal.lattice import ConsistencyError
from monideal.oracles import closure_oracle, dot, power_membership

from conftest import pairwise_minimal, random_ideal_corpus

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
    reference.  Same return values."""
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
    """The revised simplex takes the full tableau's pivots, so it returns
    exactly the reference's verdict and weights, slack or functional: on
    generator points, on facet points (convex combinations of
    generators, where the ratio test ties), on the zero point, on those
    scaled, and on random points, with exponents and point denominators
    up to 10**6 in 1 to 5 variables."""
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
    assert newton._phase1(gens, point) == expected


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


@given(ideals_up_to_4, st.integers(0, 3))
def test_power_matches_brute_force(ideal, m):
    """Every m-fold sum of generators (the empty sum at m = 0), filtered
    pairwise to the ones no other sum lies below."""
    sums = [
        tuple(sum(g[j] for g in combo) for j in range(ideal.dim))
        for combo in itertools.combinations_with_replacement(ideal.generators, m)
    ]
    assert power(ideal, m).generators == pairwise_minimal(sums)
    assert power(ideal, 1) == ideal


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


def test_is_normal_runs_every_lp_on_the_base_ideal(monkeypatch):
    """All three powers of this normal ideal are scanned on NP(I) with one
    cut cache: 5 LPs of 4 columns each, 20 columns in all.  Scanning each
    power on its own polyhedron took 12 LPs and 152 columns."""
    ideal = parse_ideal("1,1,0,0;1,0,0,2;0,1,1,0;0,0,2,1")
    columns = []
    contains = NewtonPolyhedron.contains

    def counted(self, point):
        assert self.ideal == ideal
        columns.append(len(self.ideal.generators))
        return contains(self, point)

    monkeypatch.setattr(newton.NewtonPolyhedron, "contains", counted)
    assert is_normal(ideal).normal
    assert columns == [len(ideal.generators)] * 5


def test_cuts_learnt_at_one_power_serve_the_next(monkeypatch):
    """Scanning I = (x^2, y^3) learns the one cut 3a + 2b < 6.  Read as
    3a + 2b < 2*6 it rejects every outside point of I^2, so the scan of
    the second power runs LPs only at its inside points (3,2) and (1,5)."""
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
