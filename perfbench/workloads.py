"""The four benchmark workloads.

Each workload makes its inputs from a seed, defines one op (the call a
library user waits on), encodes each op's output for the reference
digests, and runs independent checks on the outputs after timing ends.
Ops look up library functions through their modules at call time, so
the traced run sees the wrappers the span recorder installs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from monideal import cli, ilambda, newton
from monideal.lattice import MonomialIdeal, format_ideal, format_vector, parse_ideal

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1

SWEEP_N, SWEEP_MAX = 3, 14


@dataclass(frozen=True)
class Op:
    key: str  # stable text of the input; indexes the reference digests
    args: tuple


def csv_line(row) -> str:
    sio = io.StringIO()
    csv.writer(sio, lineterminator="\n").writerow(row)
    return sio.getvalue()


class Workload:
    name: str
    op_root: str  # the span that starts a new op id in the traced run
    tail_permille: int  # the percentile op_tail_ms reports

    def full_pass(self, ops: list[Op]) -> dict:
        """One op per input; results by key."""
        return {op.key: self.run(op) for op in ops}


class Polyhedral(Workload):
    """is_normal over all 216 axis-ideal closures in [1,6]^3 plus 60 random
    ideals in 3-4 variables.  Almost all of it is newton: power, the
    closure box scans and phase-1 pivots."""

    name = "polyhedral"
    op_root = "newton.is_normal"
    tail_permille = 950

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for lam in itertools.product(range(1, 7), repeat=3):
            ideal = ilambda.ilambda_generators(ilambda.LambdaSpec(lam))
            ops.append(Op(f"t:{format_vector(lam)}", (ideal, lam)))
        # one draw per cost stratum of the committed pool (see pool.json),
        # so every seed gets the same mix of cheap and heavy ideals
        strata = json.loads((HERE / "pool.json").read_text())["strata"]
        for stratum in strata:
            gens = rng.choice(stratum)
            ops.append(Op(f"r:{gens}", (parse_ideal(gens), None)))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        return newton.is_normal(op.args[0])

    def encode(self, verdict) -> str:
        witness = None if verdict.witness is None else format_vector(verdict.witness)
        return json.dumps([verdict.normal, verdict.failing_power, witness])

    def check(self, ops: list[Op], results: dict, ref: dict | None) -> set[str]:
        """The pure-power route must agree with the polyhedral route on
        every triple (acceptance criterion 05)."""
        failed = set()
        for op in ops:
            lam = op.args[1]
            if lam is not None and op.key in results:
                direct = ilambda.is_normal_lambda(ilambda.LambdaSpec(lam)).normal
                if direct != results[op.key].normal:
                    failed.add(op.key)
        return failed


class PointQueries(Workload):
    """One membership query into a fresh Newton polyhedron per op: the
    same LP layer as polyhedral, but no powers, no box scan and nothing
    reused across queries."""

    name = "point_queries"
    op_root = "newton.NewtonPolyhedron.contains"
    # p99 qualifies by count (12 of 1200 queries beyond it), but it rests
    # on the dozen costliest queries a seed draws: over ten seeds its
    # quartile spread was 0.12 of the median, from the inputs alone (a
    # seed repeats its p99 within 2 %), too close to the 0.25 bound
    tail_permille = 950

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for i in range(300):
            # every seed gets the same mix of 3-5 variables and 4-12 draws
            dim, draws = 3 + i % 3, 4 + i // 3 % 9
            gens = {tuple(rng.randint(0, 9) for _ in range(dim)) for _ in range(draws)}
            ideal = MonomialIdeal(dim, gens)
            for _ in range(4):
                # a point on a chord between two generators, scaled by
                # 3/4..5/4 so that both verdicts occur
                g, h = rng.choice(ideal.generators), rng.choice(ideal.generators)
                t = Fraction(rng.randint(0, 4), 4)
                s = Fraction(rng.randint(6, 10), 8)
                point = tuple(s * (t * x + (1 - t) * y) for x, y in zip(g, h))
                text = ",".join(str(x) for x in point)
                ops.append(Op(f"{format_ideal(ideal)}@{text}", (ideal, point)))
        return ops

    def run(self, op: Op):
        ideal, point = op.args
        return newton.NewtonPolyhedron(ideal).contains(point)

    def encode(self, cert) -> str:
        return json.dumps(cert.to_json_dict(), sort_keys=True)

    def check(self, ops: list[Op], results: dict, ref: dict | None) -> set[str]:
        """Every certificate re-verifies against its polyhedron."""
        failed = set()
        for op in ops:
            cert = results.get(op.key)
            if cert is None:
                continue
            ideal, point = op.args
            if cert.point != point or not cert.verify(newton.NewtonPolyhedron(ideal)):
                failed.add(op.key)
        return failed


class _Rows(Workload):
    """Workloads whose op is one sweep CSV row."""

    op_root = "cli.sweep_row"

    def run(self, op: Op):
        return cli.sweep_row(op.args[0], None)

    def encode(self, row) -> str:
        return csv_line(row)


class LambdaSweep(_Rows):
    """Every row of sweep_csv(3, 14): the user-facing sweep, mixing the
    ilambda split search, rees and small monoid windows; no newton."""

    name = "lambda_sweep"
    tail_permille = 950

    def ops(self, seed: int) -> list[Op]:
        ops = [
            Op(format_vector(lam), (lam,))
            for lam in cli.canonical_lambdas(SWEEP_N, SWEEP_MAX)
        ]
        random.Random(seed).shuffle(ops)  # the visiting order is the seeded part
        return ops

    def full_pass(self, ops: list[Op]) -> dict:
        text = cli.sweep_csv(SWEEP_N, SWEEP_MAX, None, workers=1)
        return {row[0]: row for row in list(csv.reader(io.StringIO(text)))[1:]}

    def check(self, ops: list[Op], results: dict, ref: dict | None) -> set[str]:
        """The CSV assembled from the 1-worker rows must match the
        reference digest and be byte-identical to a 2-worker sweep_csv.
        Rows the timed phase did not reach are computed here, untimed."""
        rows = {op.key: results.get(op.key) or self.run(op) for op in ops}
        one = self.assemble(rows)
        two = cli.sweep_csv(SWEEP_N, SWEEP_MAX, None, workers=2)
        if ref is not None and hashlib.sha256(one.encode()).hexdigest() != ref["csv_sha256"]:
            return set(rows)
        mine, theirs = one.splitlines(), two.splitlines()
        if len(mine) != len(theirs):
            return set(rows)
        return {next(csv.reader([a]))[0] for a, b in zip(mine[1:], theirs[1:]) if a != b}

    @staticmethod
    def assemble(rows: dict) -> str:
        """The sweep CSV text from rows keyed by their lambda column."""
        return csv_line(cli.CSV_HEADER) + "".join(
            csv_line(rows[format_vector(lam)])
            for lam in cli.canonical_lambdas(SWEEP_N, SWEEP_MAX)
        )


class LargeLambda(_Rows):
    """Sweep rows of a few large tuples, where the quasinormal_window DP
    is most of the row time."""

    name = "large_lambda"
    # Too few ops for ten beyond any tail percentile; p83.3 of three op
    # costs is the cost of the slowest tuple.
    tail_permille = 833

    TUPLES = ((13, 17, 19), (17, 19, 23), (7, 9, 11, 13))

    def ops(self, seed: int) -> list[Op]:
        """The default seed takes the tuples as they are; any other seed
        permutes the entries of each.  That keeps n and L, and with them
        the window DP's cost, but changes the lambda column, lambda_prime
        and, where there is one, the witness."""
        tuples = self.TUPLES
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            tuples = [tuple(rng.sample(lam, len(lam))) for lam in tuples]
        return [Op(format_vector(lam), (lam,)) for lam in tuples]

    def check(self, ops: list[Op], results: dict, ref: dict | None) -> set[str]:
        """Acceptance criterion 06 on each row: normal => clean window =>
        almost_qn, a window that is not clean is a failure, r1 == almost_qn."""
        failed = set()
        for op in ops:
            row = results.get(op.key)
            if row is None:
                continue
            normal, aq, r1, window = row[2] == "true", row[4] == "true", row[5] == "true", row[6]
            clean = window == "quasinormal-on-window"
            if ((normal and not clean) or (clean and not aq) or r1 != aq
                    or not (clean or window.startswith("failure;"))):
                failed.add(op.key)
        return failed


WORKLOADS = {wl.name: wl for wl in (Polyhedral(), PointQueries(), LambdaSweep(), LargeLambda())}
