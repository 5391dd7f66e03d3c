"""Command-line interface.

Every subcommand prints a single JSON document to stdout (or --out),
except ``sweep``, which emits CSV.  Exit codes: 0 success, 2 usage or
parse error, 3 I/O error, 4 internal consistency failure (two routes
that must agree did not; never silently resolved).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from functools import partial
from math import gcd

from .ilambda import (
    LambdaSpec,
    congruence_reduce,
    ilambda_generators,
    is_normal_lambda,
    j_ideal,
)
from .lattice import (
    ConsistencyError,
    format_ideal,
    format_vector,
    parse_ideal,
)
from .monoid import (
    FAILURE,
    QUASINORMAL_ON_WINDOW,
    almost_quasinormal,
    default_window_bound,
    quasinormal_window,
)
from .newton import (
    NewtonPolyhedron,
    as_rational,
    first_missing_generator,
    integral_closure,
    is_normal,
    power_closure,
)
from .rees import ReesSemigroup, height_one_primes, r1_satisfied

CSV_HEADER = [
    "lambda",
    "gcd",
    "normal",
    "witness",
    "almost_qn",
    "r1",
    "qn_window",
    "qn_bound",
    "lambda_prime",
    "relation",
]


def _bool(b: bool) -> str:
    return "true" if b else "false"


def cmd_closure(args) -> dict:
    ideal = parse_ideal(args.gens)
    return {"gens": format_ideal(ideal), "closure": format_ideal(integral_closure(ideal))}


def cmd_power_closure(args) -> dict:
    ideal = parse_ideal(args.gens)
    pw, closed = power_closure(ideal, args.power)
    witness = first_missing_generator(pw, reversed(closed.generators))
    return {
        "gens": format_ideal(ideal),
        "power": args.power,
        "power_generators": format_ideal(pw),
        "closure": format_ideal(closed),
        "closed": witness is None,
        "witness": None if witness is None else format_vector(witness),
    }


def cmd_normal(args) -> dict:
    if args.lam is not None:
        spec = LambdaSpec.parse(args.lam)
        verdict = is_normal_lambda(spec)
        witness = None
        if verdict.witness is not None:
            p, alpha = verdict.witness
            witness = {"p": p, "alpha": format_vector(alpha)}
        return {
            "lambda": list(spec.lam),
            "normal": verdict.normal,
            "witness": witness,
            "method": verdict.method,
        }
    ideal = parse_ideal(args.gens)
    verdict = is_normal(ideal)
    return {
        "gens": format_ideal(ideal),
        "normal": verdict.normal,
        "failing_power": verdict.failing_power,
        "witness": None if verdict.witness is None else format_vector(verdict.witness),
        "method": "powers",
    }


def cmd_ilambda_gens(args) -> dict:
    spec = LambdaSpec.parse(args.lam)
    return {"lambda": list(spec.lam), "generators": format_ideal(ilambda_generators(spec))}


def cmd_monoid_almost_qn(args) -> dict:
    spec = LambdaSpec.parse(args.lam)
    return {
        "lambda": list(spec.lam),
        "L": spec.L,
        "omega": list(spec.omega),
        "target": spec.L + 1,
        "almost_quasinormal": almost_quasinormal(spec),
    }


def cmd_monoid_quasinormal(args) -> dict:
    spec = LambdaSpec.parse(args.lam)
    verdict = quasinormal_window(spec, args.bound)
    witness = None
    if verdict.witness is not None:
        s, p = verdict.witness
        witness = {"s": s, "p": p}
    return {
        "lambda": list(spec.lam),
        "bound": verdict.bound,
        "status": verdict.status,
        "witness": witness,
    }


def cmd_rees_r1(args) -> dict:
    spec = LambdaSpec.parse(args.lam)
    ok, witness = r1_satisfied(spec)
    return {
        "lambda": list(spec.lam),
        "r1": ok,
        "witness": None if witness is None else format_vector(witness),
        "almost_quasinormal": ok,  # equal by the cross-check inside r1_satisfied
    }


def cmd_rees_primes(args) -> dict:
    spec = LambdaSpec.parse(args.lam)
    S = ReesSemigroup(spec)
    out = {}
    for prime in height_one_primes(S):
        out[prime.label] = {
            "ring_vars": list(prime.ring_vars),
            "t_generators": [format_vector(b) for b in prime.t_generators],
        }
    return out


def cmd_reduce(args) -> dict:
    spec = LambdaSpec.parse(args.lam)
    red = congruence_reduce(spec, args.index)
    return {
        "lambda": list(spec.lam),
        "index": red.index,
        "ell": red.ell,
        "lambda_prime": list(red.lam_prime),
        "relation": red.relation,
    }


def cmd_certify(args) -> dict:
    ideal = parse_ideal(args.gens)
    point = [*map(as_rational, args.point.split(","))]
    return NewtonPolyhedron(ideal).contains(point).to_json_dict()


def sweep_row(lam: tuple[int, ...], bound: int | None) -> list[str]:
    """One CSV row; module-level so worker processes can pickle it."""
    spec = LambdaSpec(lam)
    verdict = is_normal_lambda(spec)
    witness = ""
    if verdict.witness is not None:
        p, alpha = verdict.witness
        witness = f"p={p};alpha={format_vector(alpha)}"
    r1, _ = r1_satisfied(spec)
    win = quasinormal_window(spec, bound)
    if win.status == FAILURE:
        s, p = win.witness
        window = f"failure;s={s};p={p}"
    else:
        window = win.status
    red = congruence_reduce(spec, spec.n)
    return [
        format_vector(lam),
        str(gcd(*lam)),
        _bool(verdict.normal),
        witness,
        _bool(r1),  # almost_qn: equal by the cross-check inside r1_satisfied
        _bool(r1),
        window,
        str(win.bound),
        format_vector(red.lam_prime),
        red.relation,
    ]


def canonical_lambdas(n: int, max_lambda: int):
    """Nondecreasing tuples in [1, max_lambda]^n, ascending lex: one
    representative per permutation class, in the canonical sweep order."""
    if n < 1 or max_lambda < 1:
        raise ValueError("sweep needs n >= 1 and max-lambda >= 1")
    return itertools.combinations_with_replacement(range(1, max_lambda + 1), n)


def sweep_csv(n: int, max_lambda: int, bound: int | None, workers: int) -> str:
    """The sweep CSV.  At most os.cpu_count() worker processes run: rows
    are pure computation, so more would only share the same cores.  Rows
    go to the workers 16 at a time: a small row takes a fraction of a
    millisecond, less than one round trip to a worker."""
    rows = canonical_lambdas(n, max_lambda)
    workers = min(workers, os.cpu_count() or 1)
    job = partial(sweep_row, bound=bound)
    if workers > 1:
        # imported here: multiprocessing would slow every CLI start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, rows, chunksize=16))  # in input order
    else:
        results = [job(lam) for lam in rows]
    sio = io.StringIO()
    writer = csv.writer(sio, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(results)
    return sio.getvalue()


def cmd_sweep(args) -> str:
    if args.workers < 1:
        raise ValueError(f"workers must be positive, got {args.workers}")
    return sweep_csv(args.n, args.max_lambda, args.bound, args.workers)


def seed_fixtures(outdir: str) -> list[str]:
    """Write the regression fixtures, computing every frozen value by an
    oracle route (exhaustive split search, power criterion, literal
    parts-maximization table, brute-force membership table) rather than
    the production algorithms."""
    # imported here: the brute-force layer serves only this command
    from .monoid import membership_table
    from .oracles import closure_oracle, normality_oracle, window_split_oracle

    os.makedirs(outdir, exist_ok=True)
    spec = LambdaSpec((2, 3, 7))
    found = normality_oracle(spec)
    witness = None if found is None else {"p": found[0], "alpha": format_vector(found[1])}
    bound = default_window_bound(spec)
    win = window_split_oracle(spec, bound)
    target_in_monoid = membership_table(spec.omega, spec.L + 1)[spec.L + 1]
    fixture = {
        "lambda": list(spec.lam),
        "L": spec.L,
        "omega": list(spec.omega),
        "normal": witness is None,
        "witness": witness,
        "monoid_target": spec.L + 1,
        "target_in_monoid": target_in_monoid,
        "almost_quasinormal": target_in_monoid,
        "r1": target_in_monoid,  # the monoid route; sigma-scan must match
        "window": {
            "bound": bound,
            "status": QUASINORMAL_ON_WINDOW if win is None else FAILURE,
            "witness": None if win is None else {"s": win[0], "p": win[1]},
        },
        "ilambda_generators": format_ideal(closure_oracle(j_ideal(spec))),
    }
    examples = []
    for gens in ("2,0;0,2", "3,0;0,3", "2,1;0,3", "4,0;0,4", "2,0,0;0,3,0;0,0,3"):
        ideal = parse_ideal(gens)
        examples.append(
            {"gens": format_ideal(ideal), "closure": format_ideal(closure_oracle(ideal))}
        )

    written = []
    for name, data in (("lambda_2_3_7.json", fixture), ("closure_examples.json", examples)):
        path = os.path.join(outdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
        written.append(path)
    return written


def cmd_seed_fixtures(args) -> dict:
    return {"written": seed_fixtures(args.out_dir)}


def _leaf(sub: argparse.ArgumentParser, handler) -> None:
    """Finish a leaf subcommand: the shared --out, after its own options."""
    sub.add_argument("--out", default=None, help="write output to this file")
    sub.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monideal",
        description="Integral closure and normality of monomial ideals, "
        "with the monoid and Rees-semigroup criteria for closures of axis "
        "ideals; all arithmetic exact.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("closure", help="integral closure of an ideal")
    p.add_argument("--gens", required=True, help='generators, e.g. "2,0;0,2"')
    _leaf(p, cmd_closure)

    p = commands.add_parser("power-closure", help="closure of the m-th power")
    p.add_argument("--gens", required=True)
    p.add_argument("--power", type=int, required=True)
    _leaf(p, cmd_power_closure)

    p = commands.add_parser("normal", help="decide normality")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gens", default=None)
    group.add_argument("--lambda", dest="lam", default=None, help='e.g. "2,3,7"')
    _leaf(p, cmd_normal)

    p = commands.add_parser("ilambda-gens",
                            help="minimal generators of the closure of the axis ideal")
    p.add_argument("--lambda", dest="lam", required=True)
    _leaf(p, cmd_ilambda_gens)

    monoid_cmd = commands.add_parser("monoid", help="scaled-monoid questions")
    monoid_sub = monoid_cmd.add_subparsers(dest="subcommand", required=True)
    p = monoid_sub.add_parser("almost-qn", help="is L+1 in the scaled monoid")
    p.add_argument("--lambda", dest="lam", required=True)
    _leaf(p, cmd_monoid_almost_qn)
    p = monoid_sub.add_parser("quasinormal", help="windowed quasinormality check")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--bound", type=int, default=None,
                   help="window bound (default: max(4nL, 2(L + conductor)))")
    _leaf(p, cmd_monoid_quasinormal)

    rees_cmd = commands.add_parser("rees", help="Rees-semigroup questions")
    rees_sub = rees_cmd.add_subparsers(dest="subcommand", required=True)
    p = rees_sub.add_parser("r1", help="codimension-one regularity on the sigma facet")
    p.add_argument("--lambda", dest="lam", required=True)
    _leaf(p, cmd_rees_r1)
    p = rees_sub.add_parser("primes", help="height-one monomial primes")
    p.add_argument("--lambda", dest="lam", required=True)
    _leaf(p, cmd_rees_primes)

    p = commands.add_parser("reduce", help="bump one entry by the lcm of the others")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--index", type=int, required=True, help="1-based entry to bump")
    _leaf(p, cmd_reduce)

    p = commands.add_parser("certify", help="membership certificate for one point")
    p.add_argument("--gens", required=True)
    p.add_argument("--point", required=True, help='rational point, e.g. "1,1" or "1/2,3"')
    _leaf(p, cmd_certify)

    p = commands.add_parser("sweep", help="CSV over canonical lambda tuples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-lambda", type=int, required=True)
    p.add_argument("--bound", type=int, default=None, help="window bound override")
    p.add_argument("--workers", type=int, default=1)
    _leaf(p, cmd_sweep)

    p = commands.add_parser("seed-fixtures",
                            help="recompute the regression fixtures by oracle routes")
    p.add_argument("--out", dest="out_dir", required=True, help="fixture directory")
    p.set_defaults(handler=cmd_seed_fixtures, out=None)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload = args.handler(args)
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except SystemExit as exc:  # argparse already reported; fold into our codes
        return int(exc.code) if exc.code else 0
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:  # the handler's own files or the --out write
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # covers DimensionMismatch and ZeroIdeal
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
