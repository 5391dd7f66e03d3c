"""Write the benchmark's committed data files from the current code.

    python3 perfbench/build_reference.py

pool.json: the candidate random ideals for the polyhedral workload.  480
ideals (3-4 variables, exponents <= 6, 3-7 generators) are drawn with a
fixed seed and ranked by the LP work is_normal does on them (columns
summed over all phase-1 LPs, a count that repeats exactly).  The top
tenth is left out, so that a single draw cannot swing a 10-second run,
and the rest is cut into 60 strata of similar work; a run draws one
ideal per stratum.

reference.json: a digest of every op's output for the default seed, plus
every pool ideal and every ordering of the large_lambda tuples, so that
those ops are checked on any seed.  Also the sha256 of the whole
sweep CSV.

Running this on code whose outputs or LP work differ from the commit
that defined the benchmark defines a different benchmark.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys

from run import digest, import_library

POOL_SEED = 2002
POOL_SIZE = 480
STRATA = 60


def build_pool(path) -> None:
    from layers import layer_values, TARGETS
    from monideal import newton
    from monideal.lattice import MonomialIdeal, format_ideal
    from spans import Recorder

    rng = random.Random(POOL_SEED)
    ranked = []
    for _ in range(POOL_SIZE):
        dim = rng.randint(3, 4)
        gens = {tuple(rng.randint(0, 6) for _ in range(dim))
                for _ in range(rng.randint(3, 7))}
        ideal = MonomialIdeal(dim, gens)
        rec = Recorder(op_root="newton.is_normal")
        with rec.installed(TARGETS):
            newton.is_normal(ideal)
        ranked.append((layer_values(rec)["newton.lp.columns"], format_ideal(ideal)))
    ranked.sort()
    kept = [text for _, text in ranked[: POOL_SIZE * 9 // 10]]
    strata = [kept[k * len(kept) // STRATA:(k + 1) * len(kept) // STRATA]
              for k in range(STRATA)]
    with open(path, "w") as fh:
        json.dump({"seed": POOL_SEED, "strata": strata}, fh, indent=0)
        fh.write("\n")


def main() -> int:
    import_library()
    from workloads import DEFAULT_SEED, HERE, LargeLambda, Op, WORKLOADS

    build_pool(HERE / "pool.json")
    reference = {}
    for name, wl in WORKLOADS.items():
        ops = wl.ops(DEFAULT_SEED)
        if name == "polyhedral":
            from monideal.lattice import parse_ideal

            strata = json.loads((HERE / "pool.json").read_text())["strata"]
            ops += [Op(f"r:{g}", (parse_ideal(g), None)) for s in strata for g in s]
        if name == "large_lambda":
            ops += [Op(",".join(map(str, p)), (p,))
                    for lam in LargeLambda.TUPLES for p in itertools.permutations(lam)]
        ops = list({op.key: op for op in ops}.values())
        results = wl.full_pass(ops)
        bad = wl.check(ops, results, None)
        if bad:
            sys.exit(f"{name}: independent checks failed on {sorted(bad)}")
        ref = {"ops": {digest(op.key): digest(wl.encode(results[op.key])) for op in ops}}
        if name == "lambda_sweep":
            text = wl.assemble(results)
            ref["csv_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        reference[name] = ref
        print(f"{name}: {len(ops)} ops", file=sys.stderr)
    with open(HERE / "reference.json", "w") as fh:
        json.dump({"default_seed": DEFAULT_SEED, "workloads": reference},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
