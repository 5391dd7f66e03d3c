"""monideal benchmark: one closed-loop client calling the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of
the same tree; a tree without it is refused with a non-zero exit code.

--trace 0: for about S seconds, start each op when the previous one
returns, in whole passes over the workload's inputs; print the
end-to-end metrics, with times scaled to nominal machine speed (see
``Speedometer``).
--trace 1: run one fixed pass over the inputs with the span recorder
installed, between two untraced passes; print the per-layer metrics.

Both modes compare every op's output with the reference digests and run
the workload's independent checks after timing ends.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import json
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
REFERENCE_TERMS = 400
NOMINAL_REFERENCE_S = 1e-3
SAMPLE_PERIOD_S = 0.05
READ_GAP_S = 0.005
TAIL_LADDER = (999, 990, 950, 900, 750, 500)  # per mille


def rank(n: int, permille: int) -> int:
    """1-based nearest rank of the permille-quantile of n samples."""
    return max(1, -(-permille * n // 1000))


def tail_permille(n: int) -> int | None:
    """The highest quantile of the ladder with at least ten of n samples
    beyond it, or None when n is too small for any."""
    for q in TAIL_LADDER:
        if n - rank(n, q) >= 10:
            return q
    return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def import_library():
    src = ROOT / "src"
    if not (src / "monideal" / "__init__.py").is_file():
        sys.exit(f"error: no monideal package under {src}")
    sys.path.insert(0, str(src))
    import monideal

    if Path(monideal.__file__).resolve().parent != src / "monideal":
        sys.exit(f"error: imported monideal from {monideal.__file__}, not {src}")


def reference_loop() -> float:
    """Seconds one fixed pure-Python loop takes now: an exact Fraction
    sum, the arithmetic the library's LP does."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i)
    return time.perf_counter() - start


class Speedometer:
    """How fast the machine runs, read off the reference loop.

    The shared machine this was tuned on runs the same code at speeds
    that differ by up to 60 %, changing within a second and staying for
    seconds to minutes; CPU time shows it as much as wall time.  So every
    timed span is scaled to nominal speed: its time times
    NOMINAL_REFERENCE_S over the mean reference loop time of the last
    reading before it, the readings during it and the first reading
    after it.  That is its time on a machine where the loop takes exactly
    NOMINAL_REFERENCE_S.  On that machine, scaling cut the spread of
    repeated op times from 13-21 % to 3-5 % on one-second ops, and of
    pass times from 10 % to 2 % on millisecond ops.
    """

    def __init__(self):
        self.readings: list[tuple[float, float, float]] = []  # start, end, loop s
        self._reading = False

    def read(self, *_signal_args) -> None:
        if self._reading:  # the timer fired during a reading
            return
        self._reading = True
        start = time.perf_counter()
        loop = reference_loop()
        self.readings.append((start, time.perf_counter(), loop))
        self._reading = False

    def read_if_stale(self) -> None:
        """Read unless the last reading ended less than READ_GAP_S ago, so
        that millisecond ops do not spend most of a pass on readings."""
        if time.perf_counter() - self.readings[-1][1] > READ_GAP_S:
            self.read()

    @contextlib.contextmanager
    def sampling(self):
        """Also read every SAMPLE_PERIOD_S seconds, from a timer signal, so
        that long ops are scaled by the speed over their whole span."""
        previous = signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def nominal(self, spans: list[tuple[float, float]]) -> list[float]:
        """Seconds of each (t0, t1) span at nominal speed, less the
        readings taken inside it.  There must be a reading before the
        first span and one after the last.  A reading, taken between two
        bytecodes, lies wholly inside a span or wholly outside it."""
        starts = [r[0] for r in self.readings]
        out = []
        for t0, t1 in spans:
            i = bisect.bisect_left(starts, t0)
            j = bisect.bisect_left(starts, t1, i)
            inside = self.readings[i:j]
            own = t1 - t0 - sum(end - start for start, end, _ in inside)
            loops = [self.readings[i - 1][2], *(r[2] for r in inside), self.readings[j][2]]
            out.append(own * NOMINAL_REFERENCE_S / statistics.fmean(loops))
        return out


def measure_setup(workload: str, seed: int) -> list[float]:
    """Time, at nominal speed, of fresh interpreters that import monideal
    and build the workload's inputs, up to the point where the first op
    would start."""
    meter, spans = Speedometer(), []
    for _ in range(SETUP_PROBES):
        meter.read()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--setup-probe"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:  # leaving the block waits for the probe to exit
            line = proc.stdout.readline()
            spans.append((start, time.perf_counter()))
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit("error: setup probe failed")
    meter.read()
    return meter.nominal(spans)


def closed_loop(wl, ops, seconds: float):
    """Whole passes over the inputs, each op started when the previous
    one returns.  Another pass starts while the median pass so far would
    still end within ``seconds``; at least two passes run unless the
    first alone takes ``seconds``.

    Returns (latencies, pass times, outputs).  ``latencies[i]`` lists the
    latency of ``ops[i]`` in each pass, at nominal speed (see
    ``Speedometer``).  A pass time is the sum of its wall-clock op
    latencies, which leaves out the bookkeeping between ops.  ``outputs``
    pairs each op with ``done(...)`` of its result.
    """
    spans, passes, outputs, kept = [[] for _ in ops], [], [], {}
    clock = time.perf_counter
    start = clock()
    with Speedometer().sampling() as meter:
        meter.read()
        while True:
            busy = 0.0
            for op, op_spans in zip(ops, spans):
                meter.read_if_stale()
                t0 = clock()
                try:
                    result = wl.run(op)
                except Exception:  # a failed op is counted, and the loop goes on
                    t1 = clock()
                    traceback.print_exc(file=sys.stderr)
                    result = None
                else:
                    t1 = clock()
                op_spans.append((t0, t1))
                busy += t1 - t0
                outputs.append((op, done(wl, op, result, kept)))
            passes.append(busy)
            elapsed = clock() - start
            if elapsed + statistics.median(passes) > seconds and (
                len(passes) >= 2 or elapsed >= seconds
            ):
                break
        meter.read()
    return [meter.nominal(op_spans) for op_spans in spans], passes, outputs


def done(wl, op, result, kept: dict):
    """(output digest, first result for the op's key), or None if the op
    raised.  Only the first result per key stays in memory, so the heap
    the library's collector scans does not grow with the run."""
    if result is None:
        return None
    kept.setdefault(op.key, result)
    return digest(wl.encode(result)), kept[op.key]


def verify(wl, ops, outputs, reference: dict) -> tuple[set[str], int, list[str]]:
    """Keys of ops whose output failed: a reference digest mismatch, a
    different output on a repeat, or an independent check.  Also returns
    how many ops had a reference digest, and notes for stderr.
    ``outputs`` pairs ops with (digest, result), or None if the op raised."""
    failed: set[str] = set()
    first: dict[str, str] = {}
    results: dict[str, object] = {}
    checked = 0
    for op, done in outputs:
        if done is None:
            continue
        out, result = done
        if first.setdefault(op.key, out) != out:
            failed.add(op.key)
        results.setdefault(op.key, result)
        want = reference["ops"].get(digest(op.key))
        if want is not None:
            checked += 1
            if want != out:
                failed.add(op.key)
    notes = [f"reference mismatch or repeat mismatch: {k}" for k in sorted(failed)]
    bad = wl.check(ops, results, reference)
    notes += [f"independent check failed: {k}" for k in sorted(bad)]
    return failed | bad, checked, notes


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(wl, ops, args, reference):
    setup = measure_setup(args.workload, args.seed)
    latencies, passes, outputs = closed_loop(wl, ops, args.seconds)
    failed, checked, notes = verify(wl, ops, outputs, reference)
    attempted = len(outputs)
    bad_ops = sum(1 for op, r in outputs if r is None or op.key in failed)
    cost = sorted(statistics.median(times) for times in latencies)
    n, q = len(cost), wl.tail_permille
    metrics = {
        "ops_per_s": metric(n / sum(cost), "1/s"),
        "op_p50_ms": metric(statistics.median(cost) * 1e3, "ms"),
        "op_tail_ms": metric(cost[rank(n, q) - 1] * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    print(f"workload {wl.name}  seed {args.seed}  closed loop, 1 client, "
          f"{len(passes)} passes of {n} ops, {sum(passes):.3f} s busy")
    for name, m in metrics.items():
        print(f"  {name:<11} {m['value']:.6g} {m['unit']}")
    print(f"  times at nominal speed, the reference loop taking "
          f"{NOMINAL_REFERENCE_S * 1e3:g} ms; per op the median of its {len(passes)} "
          f"repeats; ops_per_s is ops over the sum of those")
    print(f"  wall clock, not scaled: median pass {n / statistics.median(passes):.6g} ops/s")
    highest = tail_permille(n)
    print(f"  op_tail_ms is p{q / 10:g} of {n} ops, {n - rank(n, q)} beyond it; "
          f"highest percentile with 10 beyond: "
          f"{'none' if highest is None else f'p{highest / 10:g}'}")
    print(f"  setup_s is the median of {len(setup)} fresh interpreters, at nominal speed")
    print(f"  fail ratio {bad_ops}/{attempted} = {bad_ops / attempted:.6g}; "
          f"{checked} op outputs matched against reference digests")
    return attempted, bad_ops, notes, metrics


def run_traced(wl, ops, args, reference):
    from layers import PER_LAYER, TARGETS, layer_values
    from monideal import cli
    from spans import Recorder
    from workloads import SWEEP_MAX, SWEEP_N

    def timed_pass():
        start = time.perf_counter()
        out = wl.full_pass(ops)
        return out, time.perf_counter() - start

    # untraced, traced, untraced: the mean of the two untraced passes
    # cancels a steady drift in machine speed out of the overhead ratio
    plain, before = timed_pass()
    rec = Recorder(op_root=wl.op_root)
    with rec.installed(TARGETS):
        traced_out, traced = timed_pass()
    _, after = timed_pass()
    untraced = (before + after) / 2

    values = layer_values(rec)
    values["trace.overhead"] = traced / untraced
    values["cli.sweep_csv.scaling_2w"] = 0.0
    if wl.name == "lambda_sweep":  # the untraced passes were 1-worker sweep_csv
        start = time.perf_counter()
        cli.sweep_csv(SWEEP_N, SWEEP_MAX, None, workers=2)
        two = time.perf_counter() - start
        values["cli.sweep_csv.scaling_2w"] = (untraced / two) / 2

    kept = {}
    outputs = [(op, done(wl, op, run_out.get(op.key), kept))
               for run_out in (plain, traced_out) for op in ops]
    failed, checked, notes = verify(wl, ops, outputs, reference)
    attempted = len(outputs)
    bad_ops = sum(1 for op, r in outputs if r is None or op.key in failed)

    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    rec.write_jsonl(out_dir / f"{wl.name}.jsonl")

    print(f"workload {wl.name}  seed {args.seed}  traced pass over {len(ops)} ops: "
          f"{len(rec.spans)} spans over {rec.op_count} ops")
    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = metric(values[name], unit)
        print(f"  {name:<44} {values[name]:.6g} {unit}")
    print(f"  fail ratio {bad_ops}/{attempted}; {checked} op outputs matched "
          f"against reference digests")
    return attempted, bad_ops, notes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    ops = wl.ops(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    gc.collect()
    gc.freeze()  # inputs and reference digests are set-up, not the library's heap
    run = run_traced if args.trace else run_timed
    attempted, bad_ops, notes, metrics = run(wl, ops, args, reference["workloads"][wl.name])
    for note in notes:
        print(note, file=sys.stderr)
    print(json.dumps({
        "correct": bad_ops == 0 and not notes,
        "attempted": attempted,
        "failed": bad_ops,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
