#!/usr/bin/env python3
"""Regenerates the stored reference results of one workload.

    python3 perfbench/make_refs.py plan-tiled

Runs the op of every variant in the workload's universe in PASSES
interleaved passes. It writes the first pass's results to
``refs/<workload>.json.gz`` and each variant's median op time to
``refs/costs.json``, after checking that every pass wrote the same bytes.
The planner's outputs must not change between versions, so this is run
only when the benchmark's inputs change, on the version whose outputs
define the references.
"""

import os
import shutil
import statistics
import sys

import run  # sets the thread environment and the import path
import refcheck
from workloads import WORKLOADS

PASSES = 3


def main(name: str) -> int:
    wl = WORKLOADS[name]
    base = os.path.join(run.WORK, f"refs-{name}")
    universe = range(run.UNIVERSE[name])
    try:
        dirs = run.setup(wl, universe, base)
        out = os.path.join(base, "out")
        os.makedirs(out)
        runner = run.Runner(wl, dirs, out)
        for _ in range(PASSES):
            for v in universe:
                rec = runner.run(v)
                if rec["error"]:
                    raise RuntimeError(f"variant {v}: {rec['error']}")
        first = runner.ops[:len(universe)]
        for rec in runner.ops[len(universe):]:
            if rec["outputs"] != first[rec["v"]]["outputs"]:
                raise RuntimeError(f"variant {rec['v']}: passes differ")
        variants = {
            str(rec["v"]): refcheck.record(
                rec["code"], refcheck.inputs_digest(dirs[rec["v"]]),
                rec["outputs"])
            for rec in first
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)
    seconds = [
        round(statistics.median(r["s"] for r in runner.ops if r["v"] == v), 3)
        for v in universe
    ]
    for v in universe:
        print(f"{name} variant {v}: exit {first[v]['code']}, "
              f"median {seconds[v]:.3f} s")
    refcheck.save_refs(name, {"workload": name, "variants": variants})
    refcheck.save_costs(name, seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
