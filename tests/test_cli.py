import ast
import concurrent.futures
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from monideal import ConsistencyError, cli, ilambda, monoid, rees
from monideal.cli import CSV_HEADER, main, sweep_csv, sweep_row

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_closure_command(capsys):
    data = run_json(capsys, "closure", "--gens", "2,0;0,2")
    assert data == {"gens": "2,0;0,2", "closure": "2,0;1,1;0,2"}


def test_power_closure_command(capsys):
    data = run_json(capsys, "power-closure", "--gens", "2,0;0,2", "--power", "2")
    assert data["power_generators"] == "4,0;2,2;0,4"
    assert data["closure"] == "4,0;3,1;2,2;1,3;0,4"
    assert data["closed"] is False
    assert data["witness"] == "1,3"
    data = run_json(capsys, "power-closure", "--gens", "2,0;0,3", "--power", "0")
    assert data == {
        "gens": "2,0;0,3",
        "power": 0,
        "power_generators": "0,0",
        "closure": "0,0",
        "closed": True,
        "witness": None,
    }


def test_normal_lambda_command(capsys):
    data = run_json(capsys, "normal", "--lambda", "2,3,7")
    assert data == {
        "lambda": [2, 3, 7],
        "normal": False,
        "witness": {"p": 2, "alpha": "1,2,6"},
        "method": "exhaustive",
    }
    data = run_json(capsys, "normal", "--lambda", "3,3,3")
    assert data["normal"] is True and data["method"] == "gcd"


def test_normal_gens_command(capsys):
    data = run_json(capsys, "normal", "--gens", "2,0;1,1;0,2")
    assert data["normal"] is True and data["method"] == "powers"


def test_normal_requires_exactly_one_input_form(capsys):
    assert main(["normal"]) == 2
    assert main(["normal", "--gens", "1,0", "--lambda", "2,3"]) == 2
    capsys.readouterr()


def test_normal_has_no_force_enumeration_option(capsys):
    """Skipping the fast paths is a library keyword for the tests, not a
    CLI option: argparse refuses the flag."""
    code, out, err = run_cli(capsys, "normal", "--lambda", "3,3,3", "--force-enumeration")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --force-enumeration" in err


def test_ilambda_gens_command(capsys):
    data = run_json(capsys, "ilambda-gens", "--lambda", "2,3")
    assert data == {"lambda": [2, 3], "generators": "2,0;1,2;0,3"}


def test_monoid_commands(capsys):
    data = run_json(capsys, "monoid", "almost-qn", "--lambda", "2,3,7")
    assert data == {
        "lambda": [2, 3, 7],
        "L": 42,
        "omega": [21, 14, 6],
        "target": 43,
        "almost_quasinormal": False,
    }
    data = run_json(capsys, "monoid", "quasinormal", "--lambda", "2,3,7")
    assert data["status"] == "failure"
    assert data["witness"] == {"s": 85, "p": 2}
    assert data["bound"] == 504
    data = run_json(capsys, "monoid", "quasinormal", "--lambda", "2,3,7", "--bound", "84")
    assert data["status"] == "quasinormal-on-window"
    assert data["witness"] is None


def test_rees_commands(capsys):
    data = run_json(capsys, "rees", "r1", "--lambda", "2,3,5")
    assert data["r1"] is True and data["witness"] == "1,1,1,1"
    data = run_json(capsys, "rees", "primes", "--lambda", "2,2")
    assert data["P_sigma"] == {"ring_vars": [1, 2], "t_generators": []}
    assert data["P_1"] == {"ring_vars": [1], "t_generators": ["2,0", "1,1"]}
    assert list(data) == ["P_1", "P_2", "P_3", "P_sigma"]


def test_reduce_command(capsys):
    data = run_json(capsys, "reduce", "--lambda", "2,3,7", "--index", "3")
    assert data == {
        "lambda": [2, 3, 7],
        "index": 3,
        "ell": 6,
        "lambda_prime": [2, 3, 13],
        "relation": "equivalent",
    }


def test_certify_command_schema(capsys):
    data = run_json(capsys, "certify", "--gens", "2,0;0,2", "--point", "1,1")
    assert data == {
        "verdict": "inside",
        "weights": [["2,0", "1/2"], ["0,2", "1/2"]],
        "slack": "0,0",
        "denominator": 2,
    }
    data = run_json(capsys, "certify", "--gens", "2,0;0,2", "--point", "1,0")
    assert data["verdict"] == "outside"
    assert all("/" in w or w.isdigit() for w in data["w"])


def test_certify_accepts_rational_points(capsys):
    data = run_json(capsys, "certify", "--gens", "2,0;0,2", "--point", "1/2,3/2")
    assert data["verdict"] == "inside"


def test_parse_errors_exit_2(capsys):
    assert main(["normal", "--lambda", "2,x,7"]) == 2
    assert main(["closure", "--gens", ""]) == 2
    assert main(["closure", "--gens", "1,0;-1,2"]) == 2
    assert main(["reduce", "--lambda", "2,3", "--index", "5"]) == 2
    assert main(["sweep", "--n", "2", "--max-lambda", "3", "--workers", "0"]) == 2
    assert main(["sweep", "--n", "0", "--max-lambda", "3"]) == 2
    capsys.readouterr()
    # each --point error names the bad entry; argparse takes a bare "-1,0"
    # for an option, so only "--point=-1,0" reaches the sign check
    for point, last in (
        (["--point", "-1,0"],
         "monideal certify: error: argument --point: expected one argument"),
        (["--point=-1,0"], "error: query points must be nonnegative, "
                           "got (Fraction(-1, 1), Fraction(0, 1))"),
        (["--point", "1,,2"], "error: malformed rational: ''"),
        (["--point", "1/0,1"], "error: malformed rational: '1/0'"),
    ):
        code, out, err = run_cli(capsys, "certify", "--gens", "2,0;0,2", *point)
        assert (code, out, err.splitlines()[-1]) == (2, "", last)


def test_consistency_errors_exit_4(capsys, monkeypatch):
    """A ConsistencyError from a handler is reported, never resolved."""

    def broken(args):
        raise ConsistencyError("two routes disagree")

    monkeypatch.setattr(cli, "cmd_closure", broken)
    code, out, err = run_cli(capsys, "closure", "--gens", "2,0;0,2")
    assert code == 4 and out == ""
    assert err == "internal consistency error: two routes disagree\n"


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_io_errors_exit_3(capsys, tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
    assert main(["closure", "--gens", "2,0;0,2", "--out", str(missing_dir)]) == 3
    capsys.readouterr()


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "verdict.json"
    code, stdout, _ = run_cli(
        capsys, "normal", "--lambda", "2,3,7", "--out", str(out)
    )
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text())["normal"] is False


def test_sweep_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--max-lambda", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + 10  # canonical nondecreasing triples from [1,3]
    assert lines[1].startswith('"1,1,1",1,true')


def test_sweep_rows_for_known_lambda():
    text = sweep_csv(3, 7, None, 1)
    rows = {line.split('"')[1]: line for line in text.strip().split("\n")[1:]}
    row = rows["2,3,7"]
    assert '"p=2;alpha=1,2,6"' in row
    assert "failure;s=85;p=2" in row
    assert ",false," in row
    assert '"2,3,13",equivalent' in row


def test_sweep_row_scans_and_checks_almost_qn_once(monkeypatch):
    """One row builds the closure generators once, shared by the normality
    test and the Rees semigroup, which reads the sigma-one generator off
    the kept weights, and reads almost_qn off r1_satisfied.  The
    normality test adds one walk of omega.a >= 2L below lam - 1."""
    scans, calls = [], {"almost_qn": 0}
    scan, almost_qn = ilambda._minima, monoid.almost_quasinormal

    def recorded_scan(omega, need, bounds):
        scans.append(tuple(bounds))
        return scan(omega, need, bounds)

    def counted_almost_qn(*args):
        calls["almost_qn"] += 1
        return almost_qn(*args)

    monkeypatch.setattr(ilambda, "_minima", recorded_scan)
    for module in (monoid, rees, cli):  # every module that binds the name
        monkeypatch.setattr(module, "almost_quasinormal", counted_almost_qn)
    row = sweep_row((2, 3, 7), None)
    assert row[2:6] == ["false", "p=2;alpha=1,2,6", "false", "false"]
    assert scans == [(2, 3, 7), (1, 2, 6)]
    assert calls == {"almost_qn": 1}


def test_sweep_rows_build_no_semigroup_tuples(monkeypatch):
    """A sweep row reads only the sigma-one generator, so it never builds
    the semigroup's functional, generators or sigma values, and it reads
    only the bumped tuple of the congruence reduction, so it builds one
    spec: with the three made to raise and specs counted, the 3 x 6
    rows keep their pinned bytes and build one spec each."""

    def refuse(self):
        raise AssertionError("a sweep row built the semigroup tuples")

    for name in ("sigma", "generators", "sigmas"):
        monkeypatch.setattr(rees.ReesSemigroup, name, property(refuse))
    specs = []
    init = ilambda.LambdaSpec.__init__

    def counted_init(self, lam):
        specs.append(lam)
        init(self, lam)

    monkeypatch.setattr(ilambda.LambdaSpec, "__init__", counted_init)
    text = sweep_csv(3, 6, None, 1)
    digest = "85c630efedb13c1ffbf6b51bffab43cda0cab6a8473a296f5d2b3ec7e18cd256"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert len(specs) == text.count("\n") - 1 == 56


def test_readme_quick_tour_values():
    """The "Library quick tour" block runs, and the value each comment states
    is the value of the expression before it (a tuple display as its items
    joined by ", "), and what a comment goes on to say holds too."""
    section = README.read_text().split("## Library quick tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    stated = [line.split("#", 1) for line in block.splitlines() if "#" in line]
    assert len(stated) == 8
    for expr, comment in stated:
        value = eval(expr, scope)
        tuple_display = isinstance(ast.parse(expr.strip(), mode="eval").body, ast.Tuple)
        shown = ", ".join(map(repr, value)) if tuple_display else repr(value)
        comment = comment.strip()
        assert comment.startswith(shown), (expr, comment)
        assert not comment[len(shown):][:1].isalnum(), (expr, comment)
    said = {expr.strip(): comment.strip() for expr, comment in stated}
    spec = scope["spec"]
    assert said["is_normal(I).witness"].endswith(": I itself is not closed")
    assert scope["I"] != scope["Ibar"]
    gap = f"({spec.L + 1} is not in <{', '.join(map(str, spec.omega))}>)"
    assert said["almost_quasinormal(spec)"].endswith(gap)
    relation = scope["congruence_reduce"](spec, 3).relation
    assert said["congruence_reduce(spec, 3).lam_prime"].endswith(", " + relation)


def test_readme_commands_parse(capsys, tmp_path):
    """Every command line the README documents runs and exits 0, with its
    --out path moved under tmp_path, and the output shapes it shows are
    what the commands print."""
    section = README.read_text().split("## Command line", 1)[1]
    block, shapes = section.split("```sh\n")[1:3]
    lines = [line for line in block.split("```")[0].splitlines()
             if line.startswith("monideal ")]
    assert lines
    for line in lines:
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / Path(argv[i]).name)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (line, err)
    examples = shapes.split("```")[0].split("$ ")[1:]
    assert len(examples) == 2
    for example in examples:
        line, shown = example.split("\n", 1)
        data = run_json(capsys, *shlex.split(line)[1:])
        assert data == json.loads(shown), line


@pytest.mark.parametrize(
    "n, max_lambda, digest",
    [
        (4, 8, "2cc63b1a91c5429139761f0d7e4f48930c5c9e460f2c3d5ef92432dd78802776"),
        (5, 5, "363ffc8173a75c2cc1120ab83ac7b1ff64c98cc4197cafa5405070892bcea91d"),
        (6, 5, "761c52192ffdca39f104bae24436706256802b0dd37109745221bcd535b4a090"),
    ],
)
def test_sweep_csv_bytes_in_four_and_five_variables(n, max_lambda, digest):
    """The sweep CSV bytes are pinned where the normality scan runs at
    p = 3, 4 and 5, which no sweep in three variables reaches: 174 of
    the 175 normal rows of 6 x 5 pass every level p = 2..5, and the other
    takes the gcd fast path."""
    text = sweep_csv(n, max_lambda, None, 1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sweep_csv_bytes_in_three_variables_up_to_twenty():
    """The sweep CSV bytes are pinned on a three-variable sweep beyond
    the 3x14 one the benchmark checks: 1540 rows, L up to 6460."""
    text = sweep_csv(3, 20, None, 1)
    digest = "459b9fb99ac896b2811dfd38d30c1714687c233742593d84edc341bc1ce139b4"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, max_lambda, digest",
    [
        (3, 20, "489d26ea3c8199e93f04b1448728ecef7879dc792f97fe029354918849b0e708"),
        (4, 8, "4d503291f442e77f312a848f0e36c859f995a078cb5eed89fe00f67f5691dfcf"),
    ],
)
def test_sweep_csv_bytes_with_a_window_bound_past_every_level(n, max_lambda, digest):
    """The sweep CSV bytes are pinned at a bound given by the caller,
    10**12, where every window runs its gap levels until one fails or
    none is left.  The default bound, at least 2(L + conductor), already
    cuts no window short in these sweeps; this pin covers the bound
    column and a caller's bound reaching every row's window."""
    text = sweep_csv(n, max_lambda, 10**12, 1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sweep_workers_capped_at_cpu_count(monkeypatch, capsys):
    """--workers beyond os.cpu_count() asks for no more processes, and
    rows go to the pool 16 at a time; an in-process stand-in for the pool
    records what it was asked for."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, rows, chunksize=1):
            assert chunksize == 16
            return map(fn, rows)

    # sweep_csv imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    argv = ["sweep", "--n", "3", "--max-lambda", "4", "--workers", "64"]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == sweep_csv(3, 4, None, 1)
    assert pools == [3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # unknown: one
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == sweep_csv(3, 4, None, 1)
    assert pools == [3]


def _fresh_import_leaves(module: str, unloaded: set[str]) -> list[str]:
    """The names in ``unloaded`` that ``import module`` puts into
    ``sys.modules`` of a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = (
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(set(sys.argv[1:]) & set(sys.modules))))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *unloaded], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_leaves_multiprocessing_unloaded():
    """Importing the CLI loads no process pool: sweep_csv imports it only
    when it runs workers, so other commands start without it."""
    unloaded = {"concurrent.futures.process", "multiprocessing"}
    assert _fresh_import_leaves("monideal.cli", unloaded) == []


def test_cli_import_leaves_the_oracles_unloaded():
    """Neither the package nor the CLI loads the brute-force layer:
    seed_fixtures imports it only when it runs."""
    for module in ("monideal", "monideal.cli"):
        assert _fresh_import_leaves(module, {"monideal.oracles"}) == [], module


def test_seed_fixtures_round_trip(capsys, tmp_path):
    data = run_json(capsys, "seed-fixtures", "--out", str(tmp_path))
    assert len(data["written"]) == 2
    committed = Path(__file__).parent / "fixtures"
    for name in ("lambda_2_3_7.json", "closure_examples.json"):
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "monideal", "normal", "--lambda", "2,3,7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["normal"] is False
    proc = subprocess.run(
        [sys.executable, "-m", "monideal", "normal", "--lambda", "nope"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
