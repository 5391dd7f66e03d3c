import copy
import itertools
import math
import pickle
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, strategies as st

from monideal import (
    DimensionMismatch,
    LambdaSpec,
    MonomialIdeal,
    NewtonPolyhedron,
    ReesSemigroup,
    ZeroIdeal,
    conductor,
    format_ideal,
    format_vector,
    minimalize,
    parse_ideal,
    parse_vector,
)
from monideal.ilambda import congruence_reduce, decompose, ilambda_generators
from monideal.lattice import any_below
from monideal.newton import INSIDE, integral_closure, power
from monideal.monoid import quasinormal_window
from monideal.rees import express_on_facet, grp_facet_check
from monideal.oracles import box_enumerate, le_pr

from conftest import climb, lex_min_blocker, minimal_points, pairwise_minimal

small_vec = st.lists(st.integers(0, 6), min_size=1, max_size=4).map(tuple)
vec3 = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


def test_componentwise_order_examples():
    assert le_pr((1, 2), (2, 2))
    assert not le_pr((2, 1), (1, 2))
    assert le_pr((0, 0), (0, 0))


def test_componentwise_order_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        le_pr((1,), (1, 2))


@given(vec3, vec3)
def test_componentwise_order_is_a_partial_order(a, b):
    assert le_pr(a, a)
    if le_pr(a, b) and le_pr(b, a):
        assert a == b


def test_minimalize_examples():
    assert minimalize([(2, 0), (1, 1), (2, 1)]) == ((2, 0), (1, 1))
    assert minimalize([]) == ()
    assert minimalize([(3, 5)]) == ((3, 5),)
    # duplicates collapse
    assert minimalize([(1, 1), (1, 1)]) == ((1, 1),)


def test_minimalize_output_is_descending_lex():
    out = minimalize([(0, 2), (2, 0), (1, 1)])
    assert out == ((2, 0), (1, 1), (0, 2))
    assert list(out) == sorted(out, reverse=True)


@given(st.lists(vec3, max_size=12))
def test_minimalize_yields_an_antichain_and_is_idempotent(points):
    out = minimalize(points)
    assert minimalize(out) == out
    for a, b in itertools.combinations(out, 2):
        assert not le_pr(a, b) and not le_pr(b, a)


@given(st.lists(vec3, min_size=1, max_size=10))
def test_minimalize_preserves_up_closure(points):
    out = minimalize(points)
    for probe in itertools.product(range(6), repeat=3):
        before = any(le_pr(p, probe) for p in points)
        after = any(le_pr(p, probe) for p in out)
        assert before == after


@st.composite
def point_lists(draw):
    """Up to 60 points in 1..5 variables, with repeats; small entries make
    domination and ties common, large ones make antichains likely."""
    dim = draw(st.integers(1, 5))
    entry = st.integers(0, draw(st.sampled_from([3, 50])))
    points = draw(st.lists(st.tuples(*[entry] * dim), max_size=50))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=10))
    return points


containers = st.sampled_from([list, set, lambda ps: (p for p in ps)])


@given(point_lists(), containers)
def test_minimalize_matches_pairwise_reference(points, container):
    assert minimalize(container(points)) == pairwise_minimal(points)


@given(point_lists(), containers, st.integers(0, 6))
def test_minimalize_rejects_mixed_dimensions(points, container, k):
    dim = len(points[0]) if points else 2
    assume(k != dim)
    with pytest.raises(DimensionMismatch):
        minimalize(container(points + [(0,) * dim, (1,) * k]))


def test_minimalize_of_a_large_box_scan_keeps_memory_linear():
    # the up-set {sum >= 11} cut to the box [0, 11]^4: 19735 points whose
    # minimal points are the 364 of degree 11.  Masks over all N points at
    # once would take N^2 / 16 bytes (about 24 MB) on top of the points.
    points = [p for p in itertools.product(range(12), repeat=4) if sum(p) >= 11]
    tracemalloc.start()
    try:
        result = minimalize(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == tuple(sorted((p for p in points if sum(p) == 11), reverse=True))
    assert peak < 400 * len(points)


def test_ideal_contains_examples():
    ideal = MonomialIdeal(2, [(2, 0), (0, 2)])
    assert ideal.contains((2, 1))
    assert not ideal.contains((1, 1))
    unit = MonomialIdeal(2, [(0, 0)])
    assert unit.contains((0, 0)) and unit.contains((5, 3))
    assert ideal.contains((3, 0))


@given(vec3, vec3)
def test_ideal_membership_is_up_closed(a, shift):
    ideal = MonomialIdeal(3, [(2, 0, 0), (0, 1, 3), (1, 1, 1)])
    if ideal.contains(a):
        assert ideal.contains(tuple(x + y for x, y in zip(a, shift)))


def test_ideal_constructor_minimalizes_and_orders():
    ideal = MonomialIdeal(2, [(2, 1), (2, 0), (0, 2), (3, 3)])
    assert ideal.generators == ((2, 0), (0, 2))


@given(st.lists(vec3, min_size=1, max_size=10), st.randoms(use_true_random=False))
def test_ideal_from_antichain_matches_minimalizing_constructor(points, rng):
    """A known antichain in any order gives the ideal the constructor
    builds by minimalizing, and so do the minimal points of a box scan."""
    antichain = list(minimalize(points))
    rng.shuffle(antichain)
    built = MonomialIdeal.from_antichain(3, antichain)
    up = MonomialIdeal(3, points)
    assert built == up
    scanned = minimal_points((5, 5, 5), climb(up.contains))
    assert MonomialIdeal.from_antichain(3, scanned) == up


def box_walk(bounds, member):
    """The reference scan: the whole box in ascending lex, skipping every
    point that a minimal point found so far lies below."""
    mins = []
    for a in box_enumerate(bounds):
        if not any_below(reversed(mins), a) and member(a):
            mins.append(a)
    return mins


@given(st.data())
def test_minimal_points_asks_what_the_box_walk_asks(data):
    """The staircase asks ``member`` about the same points, in the same
    order, as the box walk, and returns the same points.  The generators
    of the up-closed set may lie outside the box, or be absent."""
    bounds = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=5).map(tuple))
    n = len(bounds)
    point = st.lists(st.integers(0, 8), min_size=n, max_size=n).map(tuple)
    gens = data.draw(st.lists(point, max_size=5))

    def run(scan):
        asked = []

        def member(a):
            asked.append(a)
            return any_below(gens, a)

        return scan(bounds, member), asked

    def staircase(bounds, member):
        return list(minimal_points(bounds, climb(member)))

    assert run(staircase) == run(box_walk)


@given(st.data())
def test_minimal_points_skips_capped_out_columns(data):
    """``floor`` is called on every column whose cap is positive, with
    that cap, and on no other: the cap of a column is the least height of
    a minimal point lying below it in an earlier column, or top + 1.  The
    minimal points are those of the climb and of the box walk."""
    bounds = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=5).map(tuple))
    n = len(bounds)
    point = st.lists(st.integers(0, 8), min_size=n, max_size=n).map(tuple)
    gens = data.draw(st.lists(point, max_size=5))

    def member(a):
        return any_below(gens, a)

    calls = []
    reference = climb(member)

    def floor(col, cap):
        calls.append((col, cap))
        return reference(col, cap)

    mins = list(minimal_points(bounds, floor))
    assert mins == list(minimal_points(bounds, climb(member))) == box_walk(bounds, member)
    *cols, top = bounds
    expected = []
    for col in itertools.product(*(range(b + 1) for b in cols)):
        below = [
            q[-1]
            for q in mins
            if q[:-1] != col and all(x <= y for x, y in zip(q[:-1], col))
        ]
        cap = min(below, default=top + 1)
        if cap:
            expected.append((col, cap))
    assert calls == expected


def column_walk(bounds, floor):
    """The column-at-a-time ``minimal_points`` that the row walk replaced,
    kept here as its reference: each column's cap is a loop over the
    columns one step below it."""
    *cols, top = bounds
    strides = [math.prod(b + 1 for b in cols[i + 1 :]) for i in range(len(cols))]
    least, mins = [], []
    for k, col in enumerate(itertools.product(*(range(b + 1) for b in cols))):
        cap = top + 1
        for c, s in zip(col, strides):
            if c and least[k - s] < cap:
                cap = least[k - s]
        if not cap:
            least.append(0)
            continue
        t = floor(col, cap)
        least.append(t)
        if t < cap:
            mins.append(col + (t,))
    return mins


@given(st.data())
def test_row_walk_makes_the_column_walks_floor_calls(data):
    """``minimal_points`` makes the column walk's floor calls: the same
    columns with the same caps, in the same order, answered with the same
    heights, and it returns the same points.  Random up-closed sets in 1
    to 5 variables, in boxes whose bounds may be zero."""
    bound = st.integers(0, 6) | st.just(0)
    bounds = data.draw(st.lists(bound, min_size=1, max_size=5).map(tuple))
    # generators mostly in the box, sometimes just past it
    point = st.tuples(*(st.integers(0, b + 1) for b in bounds))
    gens = data.draw(st.lists(point, max_size=6))
    reference = climb(lambda a: any_below(gens, a))

    def run(scan):
        log = []

        def floor(col, cap):
            t = reference(col, cap)
            log.append((col, cap, t))
            return t

        return list(scan(bounds, floor)), log

    assert run(minimal_points) == run(column_walk)


@given(st.data())
def test_taking_k_points_stops_the_floor_calls_at_the_kth_column(data):
    """``minimal_points`` yields lazily: taking its first k points calls
    ``floor`` on no column past the k-th point's column, and the calls
    made are the first ones of the full scan."""
    bounds = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=4).map(tuple))
    point = st.tuples(*(st.integers(0, b + 1) for b in bounds))
    gens = data.draw(st.lists(point, max_size=6))
    reference = climb(lambda a: any_below(gens, a))

    def scan():
        log = []

        def floor(col, cap):
            log.append(col)
            return reference(col, cap)

        return minimal_points(bounds, floor), log

    points, full = scan()
    points = list(points)
    if not points:
        return
    k = data.draw(st.integers(1, len(points)))
    taken, log = scan()
    assert list(itertools.islice(taken, k)) == points[:k]
    kth = points[k - 1][:-1]
    assert log[-1] == kth
    assert all(col <= kth for col in log)
    assert log == full[: len(log)]


class RecordedPolyhedron(NewtonPolyhedron):
    """A polyhedron that records every point its LP is asked about, and
    checks that no cached cut rejects that point: the scan asks only
    after every cut has been applied."""

    __slots__ = ("asked",)

    def __init__(self, ideal):
        super().__init__(ideal)
        object.__setattr__(self, "asked", [])

    def contains(self, point):
        point = tuple(point)
        for num, den in self._cuts:
            assert sum(map(mul, num, point)) >= den, (point, num, den)
        self.asked.append(point)
        return super().contains(point)


def scaled_member(poly, a, m):
    """Whether a lies in m.NP(I), decided one point at a time: the cached
    cuts first, then the LP at a/m, whose outside functional joins the
    cache scaled to integers, the cut the closure scan learns."""
    if any(sum(map(mul, num, a)) < m * den for num, den in poly._cuts):
        return False
    cert = poly.contains(tuple(Fraction(x, m) for x in a))
    if cert.verdict == INSIDE:
        return True
    den = math.lcm(*(x.denominator for x in cert.w))
    poly._cuts.append((tuple(x.numerator * (den // x.denominator) for x in cert.w), den))
    return False


@st.composite
def scan_ideals(draw):
    """Ideals in 1 to 4 variables, entries up to 9 - 2n."""
    dim = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(0, 9 - 2 * dim)] * dim)
    return MonomialIdeal(dim, draw(st.lists(point, min_size=1, max_size=6)))


@given(scan_ideals())
# one variable: one column, which the seeded cut a >= 3 lifts to the
# generator with no LP
@example(MonomialIdeal(1, [(3,)]))
# two variables, no head coordinate: the seeded cut 3a + 2b >= 6 lifts
# column 0 to height 3 and column 1 to height 2
@example(parse_ideal("2,0;0,3"))
# (y^2, x^2 y): past the seeded cut b >= 1, the LP at (0,1) learns
# a + 2b >= 4, which lifts column 1 to height 2
@example(parse_ideal("0,2;2,1"))
# (z^2, x y^2 z): the first LP of row a_1 = 1, at (1,0,1), learns
# b + 2c >= 4, which lifts that row's column a_2 = 1 to height 2
@example(parse_ideal("0,0,2;1,2,1"))
def test_newton_column_floor_runs_the_climbs_lps(ideal):
    """The closure scan, whose floor jumps by the cached cuts, returns the
    generators a climb over ``a in gens or scaled_member`` finds, runs
    the LPs it runs in the same order, and leaves the same cuts, power by
    power on one shared polyhedron as ``is_normal`` does.  Both start
    from the seed, the reference lex-min point of the blocker, which the
    scan caches on its first power.  The climb goes through the reference
    staircase ``minimal_points``."""
    dim = ideal.dim
    jumping, climbing = RecordedPolyhedron(ideal), RecordedPolyhedron(ideal)
    seed = lex_min_blocker(ideal.generators)
    if seed is not None:
        climbing._cuts.append(seed)
    for m in range(1, max(2, dim)):
        pw = power(ideal, m)
        gens = set(pw.generators)
        bounds = tuple(map(max, zip(*pw.generators)))
        reference = minimal_points(
            bounds, climb(lambda a: a in gens or scaled_member(climbing, a, m))
        )
        closure = integral_closure(pw, power_of=(jumping, m))
        assert closure == MonomialIdeal.from_antichain(dim, reference)
        assert jumping.asked == climbing.asked
        assert jumping._cuts == climbing._cuts


def test_ideal_rejects_bad_input():
    with pytest.raises(ZeroIdeal):
        MonomialIdeal(2, [])
    with pytest.raises(ZeroIdeal):
        MonomialIdeal.from_antichain(2, [])
    with pytest.raises(DimensionMismatch):
        MonomialIdeal(2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(-1, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal(0, [()])
    with pytest.raises(DimensionMismatch):
        MonomialIdeal(2, [(1, 0)]).contains((1, 0, 0))


@pytest.mark.parametrize(
    "dim, gens, error, message",
    [
        (2, [], ZeroIdeal, "a monomial ideal needs at least one generator"),
        (0, [(1, 2), (3,)], ValueError, "dimension must be positive, got 0"),
        (2, [(1, 0), (0, 1, 2), (5,)], DimensionMismatch,
         "generator (0, 1, 2) has dimension 3, expected 2"),
        (2, [(0, 1, 2), (0, 0, 0)], DimensionMismatch,
         "generator (0, 1, 2) has dimension 3, expected 2"),
        # the first negative generator is named, not the minimal one below it
        (2, [(2, 2), (1, -1), (0, -1)], ValueError,
         "generator exponents must be nonnegative: (1, -1)"),
        (2, [(0, -1), ("3", "4"), (1, 2, 3)], ValueError,
         "generator exponents must be nonnegative: (0, -1)"),
        (2, [(1, 0), ("x", 0)], ValueError,
         "invalid literal for int() with base 10: 'x'"),
        (2, [iter((0, 1)), iter((1, -1))], ValueError,
         "generator exponents must be nonnegative: (1, -1)"),
        # a non-integral exponent is refused, not truncated to (1, 0)
        (2, [(0, 2), (1.5, 0)], ValueError, "exponents must be integers, got (1.5, 0)"),
        (2, [(Fraction(3, 2), 0), (0, 2)], ValueError,
         "exponents must be integers, got (Fraction(3, 2), 0)"),
    ],
)
def test_ideal_errors_name_the_first_bad_generator(dim, gens, error, message):
    with pytest.raises(error) as info:
        MonomialIdeal(dim, gens)
    assert str(info.value) == message


FACET = ReesSemigroup(LambdaSpec((2, 3)))  # L = 6, omega = (3, 2)

# each call puts x, equal to the int v where x is integral, into one exponent
COERCING_CALLS = {
    "LambdaSpec": lambda x, v: LambdaSpec((x, 3)),
    "MonomialIdeal.contains": lambda x, v: parse_ideal("2,0;1,1").contains((x, 1)),
    "decompose": lambda x, v: decompose(LambdaSpec((2, 3, 7)), (1, x, 6), 2),
    "sigma_value": lambda x, v: FACET.sigma_value((x, 0, 0)),
    "express_on_facet": lambda x, v: express_on_facet(FACET, (2 * v, 0, x)),
}


@pytest.mark.parametrize("call", COERCING_CALLS.values(), ids=COERCING_CALLS)
def test_exponents_are_taken_exactly_or_refused(call):
    """Every entry point coerces exponents through ``as_vec``: a value equal
    to an int answers as that int, and any other value raises."""
    for x, v in ((2.0, 2), (Fraction(4, 2), 2), (True, 1), ("3", 3)):
        assert repr(call(x, v)) == repr(call(v, v))
    for x in (1.5, Fraction(3, 2), math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^exponents must be integers, got \("):
            call(x, 1)


# each call takes x as one integer argument, which is no exponent, and an
# int v that it accepts there
INTEGER_CALLS = {
    "power": (lambda x: power(parse_ideal("2,0;1,1"), x), 2),
    "bound": (lambda x: quasinormal_window(LambdaSpec((2, 3, 7)), x), 100),
    "index": (lambda x: congruence_reduce(LambdaSpec((2, 3, 7)), x), 2),
    "radius": (lambda x: grp_facet_check(FACET, x), 1),
}


@pytest.mark.parametrize("what", INTEGER_CALLS)
def test_integer_arguments_are_taken_exactly_or_refused(what):
    """``power``, ``quasinormal_window``, ``congruence_reduce`` and
    ``grp_facet_check`` take their integer argument through ``as_int``: a
    value equal to an int answers as that int, and any other value raises
    ValueError naming the argument."""
    call, v = INTEGER_CALLS[what]
    for x in (float(v), Fraction(2 * v, 2), str(v)):
        assert repr(call(x)) == repr(call(v))
    bad = [1.5, Fraction(3, 2), math.nan, math.inf, "x"]
    if what != "bound":  # no bound means the default bound
        bad.append(None)
    for x in bad:
        with pytest.raises(ValueError) as info:
            call(x)
        assert str(info.value) == f"{what} must be an integer, got {x!r}"


def test_ideal_is_immutable_and_hashable():
    ideal = MonomialIdeal(2, [(1, 0)])
    with pytest.raises(AttributeError):
        ideal.dim = 3
    assert ideal == MonomialIdeal(2, [(1, 0), (2, 2)])
    assert hash(ideal) == hash(MonomialIdeal(2, [(1, 0)]))


def test_box_enumerate_order_and_contents():
    assert list(box_enumerate((1, 1))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(box_enumerate((0, 0))) == [(0, 0)]
    pts = list(box_enumerate((2, 2), lambda a: a[0] + a[1] >= 2))
    assert len(pts) == 6
    assert pts[0] == (0, 2)
    assert pts == sorted(pts)


def test_box_enumerate_rejects_negative_bounds():
    with pytest.raises(ValueError):
        list(box_enumerate((2, -1)))


@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3)))
def test_box_enumerate_count_matches_product(bounds):
    count = sum(1 for _ in box_enumerate(bounds))
    expected = 1
    for b in bounds:
        expected *= b + 1
    assert count == expected


def test_vector_parse_and_format():
    assert parse_vector("2,0,1") == (2, 0, 1)
    assert parse_vector(" 2 , 0 ") == (2, 0)
    assert format_vector((2, 0, 1)) == "2,0,1"
    for bad in ("", "2,,1", "2,x", "2;1", "1,", "1, ,2"):
        with pytest.raises(ValueError):
            parse_vector(bad)


def test_ideal_parse_and_format_round_trip():
    ideal = parse_ideal("2,0;1,1;0,2")
    assert format_ideal(ideal) == "2,0;1,1;0,2"
    # parsing minimalizes non-antichain input
    assert format_ideal(parse_ideal("2,1;2,0")) == "2,0"
    with pytest.raises(ZeroIdeal):
        parse_ideal(" ; ")
    # the constructor's checks, on any generator, not only the first
    for text in ("1,0;1,0,0", "1,0;1,2,3"):
        with pytest.raises(DimensionMismatch):
            parse_ideal(text)
    for text in ("1,-2", "1,0;-1,2"):
        with pytest.raises(ValueError, match="nonnegative"):
            parse_ideal(text)


@given(small_vec)
def test_vector_round_trip(v):
    assert parse_vector(format_vector(v)) == v


def _warm_polyhedron():
    ideal = MonomialIdeal(2, [(2, 0), (0, 2)])
    poly = NewtonPolyhedron(ideal)
    integral_closure(ideal, power_of=(poly, 1))
    assert poly._cuts
    return poly


def _warm_spec():
    spec = LambdaSpec((2, 3, 7))
    ilambda_generators(spec)
    conductor(spec)
    assert spec._closure is not None and spec._monoid is not None
    return spec


@pytest.mark.parametrize(
    "make",
    [
        lambda: MonomialIdeal(2, [(1, 0), (0, 3)]),
        lambda: _warm_polyhedron(),
        lambda: _warm_spec(),
        lambda: ReesSemigroup(LambdaSpec((2, 3))),
    ],
)
def test_immutable_objects_pickle_and_copy(make):
    """The slotted immutable classes rebuild from their constructor
    arguments, so pickling (worker processes) and copying work; no
    attribute can be assigned, an object is never equal to its argument
    tuple, the caches (closure, bitset of the monoid, cuts) start
    afresh, and the repr evaluates back to an equal object."""
    obj = make()
    name = type(obj).__name__
    for attr in type(obj).__slots__ + ("other",):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(obj, attr, None)
    assert obj != obj._args() and obj._args() != obj
    assert eval(repr(obj)) == obj
    for clone in (
        pickle.loads(pickle.dumps(obj)),
        copy.copy(obj),
        copy.deepcopy(obj),
    ):
        assert type(clone) is type(obj)
        assert clone == obj and hash(clone) == hash(obj)
        if isinstance(obj, LambdaSpec):
            assert clone._closure is None and clone._monoid is None
        if isinstance(obj, NewtonPolyhedron):
            assert clone._cuts == []
