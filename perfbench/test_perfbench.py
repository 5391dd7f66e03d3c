"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import monideal  # noqa: E402
from layers import TARGETS, layer_values  # noqa: E402
from run import NOMINAL_REFERENCE_S, Speedometer, rank, tail_permille  # noqa: E402
from spans import Recorder, Span, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span("root", 0, 100, None, 1),
        Span("a", 10, 30, 0, 1),  # sibling children of root
        Span("b", 40, 70, 0, 1),
        Span("a.inner", 12, 20, 1, 1),  # grandchild: counts against a only
        Span("b.x", 45, 60, 2, 1),  # overlapping children of b count once
        Span("b.y", 50, 65, 2, 1),
    ]
    assert self_times(spans) == [100 - 20 - 30, 20 - 8, 30 - 20, 8, 15, 15]


def test_self_time_clips_children_to_the_parent_interval():
    spans = [Span("p", 10, 20, None, 1), Span("c", 5, 15, 0, 1), Span("d", 18, 40, 0, 1)]
    assert self_times(spans)[0] == 10 - 5 - 2


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (19, None), (20, 500), (39, 500), (40, 750), (100, 900),
     (199, 900), (200, 950), (999, 950), (1000, 990), (10000, 999)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert tail_permille(n) == expected
    if expected is not None:
        assert n - rank(n, expected) >= 10


def test_nearest_rank_is_exact():
    assert rank(200, 950) == 190
    assert rank(1000, 990) == 990
    assert rank(7, 1000) == 7
    assert rank(1, 500) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tail_is_the_highest_percentile_with_ten_beyond(name):
    wl = WORKLOADS[name]
    n = len(wl.ops(DEFAULT_SEED))
    if tail_permille(n) is None:  # too few ops: the slowest one
        assert rank(n, wl.tail_permille) == n
    elif name == "point_queries":  # p99 spreads with the seed; see there
        assert (wl.tail_permille, tail_permille(n)) == (950, 990)
    else:
        assert wl.tail_permille == tail_permille(n)


def test_nominal_time_leaves_out_readings_and_scales_by_their_mean():
    meter = Speedometer()
    loop = NOMINAL_REFERENCE_S
    meter.readings = [
        (0.0, 1.0, 2 * loop),  # the last before the first span
        (5.0, 6.0, 4 * loop),  # from the timer, inside it
        (12.0, 13.0, 3 * loop),  # the first after it, the last before the next
        (20.0, 21.0, 7 * loop),  # the first after the second span
    ]
    first, second = meter.nominal([(1.0, 11.0), (13.0, 19.0)])
    # 10 s span, 1 s of it reading; the machine ran at a third of nominal
    assert first == pytest.approx(9.0 / 3)
    assert second == pytest.approx(6.0 / 5)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name):
    wl = WORKLOADS[name]
    keys = [op.key for op in wl.ops(DEFAULT_SEED)]
    assert keys == [op.key for op in wl.ops(DEFAULT_SEED)]
    assert keys != [op.key for op in wl.ops(DEFAULT_SEED + 1)]
    assert [op.key for op in wl.ops(7)] != [op.key for op in wl.ops(8)]


def _bound_objects():
    """Every public callable bound in a monideal module, plus every
    attribute of every class defined there."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "monideal" or mod_name.startswith("monideal."):
            for attr, value in vars(mod).items():
                out[(mod_name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(mod_name, attr, cattr)] = cvalue
    return out


def test_traced_pass_restores_the_original_objects():
    from monideal import cli, newton

    before = _bound_objects()
    rec = Recorder(op_root="cli.sweep_row")
    with rec.installed(TARGETS):
        assert newton.is_normal is not before[("monideal.newton", "is_normal")]
        cli.sweep_row((2, 3, 7), None)
        newton.is_normal(monideal.MonomialIdeal(2, [(2, 0), (0, 2)]))
    after = _bound_objects()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in rec.spans}
    assert {"cli.sweep_row", "monoid.quasinormal_window", "newton.power",
            "newton.NewtonPolyhedron.contains", "rees.ReesSemigroup"} <= names
    values = layer_values(rec)
    assert values["cli.sweep_row.self_s"] > 0
    assert values["monoid.quasinormal_window.calls"] == 1


def test_restores_after_an_exception():
    from monideal import newton

    before = _bound_objects()
    with pytest.raises(ValueError):
        with Recorder(op_root="newton.power").installed(TARGETS):
            newton.power(monideal.MonomialIdeal(1, [(1,)]), -1)
    after = _bound_objects()
    assert all(after[k] is before[k] for k in before)


def test_op_ids_follow_the_op_root():
    from monideal import cli

    rec = Recorder(op_root="cli.sweep_row")
    with rec.installed(TARGETS):
        cli.sweep_row((2, 3, 5), None)
        cli.sweep_row((2, 3, 7), None)
    assert {s.op for s in rec.spans} == {1, 2}
    roots = [s for s in rec.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.sweep_row", "cli.sweep_row"]


def test_benchmark_json_lists_what_the_runs_print():
    import json

    from layers import PER_LAYER

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [
        "ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s"]
