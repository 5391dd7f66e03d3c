"""The committed BENCH_*.json records agree with the benchmark they
record and with their own runs."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

# medians, quartiles and runs are written to six decimals
TOL = 1e-6


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_every_workload_and_end_to_end_metric(path):
    record = json.loads(path.read_text())
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    assert set(record["workloads"]) == workloads
    for entry in record["workloads"].values():
        assert {name: m["better"] for name, m in entry["metrics"].items()} == metrics


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_summaries_recompute_from_runs(path):
    record = json.loads(path.read_text())
    for name, entry in record["workloads"].items():
        for metric, m in entry["metrics"].items():
            where = (name, metric)
            for side in ("parent", "change"):
                runs = m[side]["runs"]
                assert len(runs) == entry["pairs"], where
                assert m[side]["median"] == pytest.approx(statistics.median(runs), abs=TOL), where
                q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                assert m[side]["quartiles"] == pytest.approx([q1, q3], abs=TOL), where
            pairs = zip(m["parent"]["runs"], m["change"]["runs"])
            if m["better"] == "higher":
                better = sum(c > p for p, c in pairs)
            else:
                better = sum(c < p for p, c in pairs)
            assert m["change_better_in_pairs"] == better, where
