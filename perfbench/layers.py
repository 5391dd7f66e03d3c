"""The layers the traced run measures, and the per-layer metrics it derives.

Layers are the modules of ``monideal``: lattice, newton, ilambda, monoid,
rees and cli.  ``oracles`` is the independent reference; the benchmark
uses it for no timed work and wraps none of it.  Each target below is a
public callable of one module; counts marked "computed" are derived from
the call's arguments or result, not read from inside the library.
"""

from __future__ import annotations

import math
from collections import defaultdict

from spans import Recorder, Target, self_times


def _minimalize_counts(args, kwargs, result):
    # computed: every caller passes a list (MonomialIdeal.__init__)
    yield "lattice.minimalize.points_in", len(args[0])


def _lp_counts(args, kwargs, result):
    # computed: one phase-1 LP per call, one column per generator
    poly = args[0]
    yield "newton.lp.columns", len(poly.ideal.generators)
    yield "newton.lp.inside", int(result.verdict == "inside")


def _closure_counts(args, kwargs, result):
    # computed: the scan box below the componentwise maximum generator
    ideal = args[0]
    yield "newton.integral_closure.box_points", math.prod(
        max(g[j] for g in ideal.generators) + 1 for j in range(ideal.dim)
    )


def _power_counts(args, kwargs, result):
    # computed: m-fold sums enumerated, minimal generators returned
    ideal, m = args[0], args[1]
    r = len(ideal.generators)
    yield "newton.power.combos", math.comb(r + m - 1, m) if m > 0 else 0
    yield "newton.power.generators_out", len(result.generators)


def _table_counts(args, kwargs, result):
    yield "monoid.membership_table.cells", len(result)


def _window_counts(args, kwargs, result):
    # computed: the L-entry excess table plus the window positions scanned
    # up to the first failure
    L = args[0].L
    if result.status == "vacuous":
        return
    last = result.witness[0] if result.witness is not None else result.bound
    yield "monoid.quasinormal_window.cells", L + (last - L + 1)


TARGETS = (
    Target("lattice.minimalize", "monideal.lattice", "minimalize", _minimalize_counts),
    Target("lattice.MonomialIdeal.contains", "monideal.lattice", "MonomialIdeal.contains"),
    Target("newton.NewtonPolyhedron.contains", "monideal.newton",
           "NewtonPolyhedron.contains", _lp_counts),
    Target("newton.integral_closure", "monideal.newton", "integral_closure",
           _closure_counts),
    Target("newton.power", "monideal.newton", "power", _power_counts),
    Target("newton.is_normal", "monideal.newton", "is_normal"),
    Target("ilambda.ilambda_generators", "monideal.ilambda", "ilambda_generators"),
    Target("ilambda.is_normal_lambda", "monideal.ilambda", "is_normal_lambda"),
    Target("monoid.membership_table", "monideal.monoid", "membership_table",
           _table_counts),
    Target("monoid.conductor", "monideal.monoid", "conductor"),
    Target("monoid.quasinormal_window", "monideal.monoid", "quasinormal_window",
           _window_counts),
    Target("monoid.almost_quasinormal", "monideal.monoid", "almost_quasinormal"),
    Target("rees.ReesSemigroup", "monideal.rees", "ReesSemigroup"),
    Target("rees.r1_satisfied", "monideal.rees", "r1_satisfied"),
    Target("cli.sweep_row", "monideal.cli", "sweep_row"),
    Target("cli.sweep_csv", "monideal.cli", "sweep_csv"),
)

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("lattice.minimalize.calls", "count"),
    ("lattice.minimalize.self_s", "s"),
    ("lattice.minimalize.points_in", "count"),
    ("lattice.MonomialIdeal.contains.calls", "count"),
    ("lattice.MonomialIdeal.contains.self_s", "s"),
    ("newton.NewtonPolyhedron.contains.calls", "count"),
    ("newton.NewtonPolyhedron.contains.self_s", "s"),
    ("newton.lp.columns", "count"),
    ("newton.lp.inside_ratio", "ratio"),
    ("newton.integral_closure.calls", "count"),
    ("newton.integral_closure.self_s", "s"),
    ("newton.integral_closure.box_points", "count"),
    ("newton.integral_closure.lp_per_point", "ratio"),
    ("newton.power.calls", "count"),
    ("newton.power.self_s", "s"),
    ("newton.power.combos", "count"),
    ("newton.power.generators_out", "count"),
    ("newton.is_normal.self_s", "s"),
    ("ilambda.ilambda_generators.calls", "count"),
    ("ilambda.ilambda_generators.self_s", "s"),
    ("ilambda.is_normal_lambda.calls", "count"),
    ("ilambda.is_normal_lambda.self_s", "s"),
    ("monoid.membership_table.calls", "count"),
    ("monoid.membership_table.self_s", "s"),
    ("monoid.membership_table.cells", "count"),
    ("monoid.conductor.calls", "count"),
    ("monoid.conductor.self_s", "s"),
    ("monoid.quasinormal_window.calls", "count"),
    ("monoid.quasinormal_window.self_s", "s"),
    ("monoid.quasinormal_window.cells", "count"),
    ("monoid.almost_quasinormal.calls", "count"),
    ("rees.ReesSemigroup.calls", "count"),
    ("rees.ReesSemigroup.self_s", "s"),
    ("rees.r1_satisfied.self_s", "s"),
    ("cli.sweep_row.self_s", "s"),
    ("cli.sweep_csv.self_s", "s"),
    ("cli.sweep_csv.scaling_2w", "ratio"),
    ("trace.overhead", "ratio"),
)


def layer_values(rec: Recorder) -> dict[str, float]:
    """Every span-derived per-layer metric of one traced pass.  The two
    run-level ratios (scaling_2w, trace.overhead) are added by the caller."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for span, own in zip(rec.spans, self_times(rec.spans)):
        calls[span.name] += 1
        self_ns[span.name] += own
    closure_lps = sum(
        1
        for s in rec.spans
        if s.name == "newton.NewtonPolyhedron.contains"
        and s.parent is not None
        and rec.spans[s.parent].name == "newton.integral_closure"
    )
    values: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls[layer]
        elif stat == "self_s":
            values[metric] = self_ns[layer] / 1e9
        elif metric in rec.counts:
            values[metric] = rec.counts[metric]
    lps = calls["newton.NewtonPolyhedron.contains"]
    box = rec.counts["newton.integral_closure.box_points"]
    values["newton.lp.inside_ratio"] = rec.counts["newton.lp.inside"] / lps if lps else 0.0
    values["newton.integral_closure.lp_per_point"] = closure_lps / box if box else 0.0
    for metric, unit in PER_LAYER:
        if unit == "count":
            values.setdefault(metric, 0)
    return values
