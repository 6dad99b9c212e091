#!/usr/bin/env python3
"""Self-tests of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Smoke: each workload in ``--smoke`` mode prints, with ``--trace 0``,
   exactly the end-to-end metrics of BENCHMARK.json and, with
   ``--trace 1``, exactly its per-layer metrics, each with its unit.
2. Two traced runs with the same seed give identical count metrics.
3. A reference with one seat moved to another access point fails the op.
4. A missing wrap target reads null, and the originals come back.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import run  # sets the thread environment and the import path
import refcheck
from workloads import WORKLOADS

SEED = 7


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: "
                             f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload: str, result: dict, declared: list) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload}: {result}")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{workload}: metrics {got}, declared {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} = {m['value']!r}")


def test_smoke_and_repeatable_counts(spec: dict) -> None:
    for workload in WORKLOADS:
        check_result(workload, bench(workload, 0), spec["end_to_end"])
        first, second = bench(workload, 1), bench(workload, 1)
        for result in (first, second):
            check_result(workload, result, spec["per_layer"])
        for name, m in first["metrics"].items():
            if m["unit"] == "count" and m != second["metrics"][name]:
                raise AssertionError(
                    f"{workload}: {name} {m['value']} then "
                    f"{second['metrics'][name]['value']}")
        print(f"ok: {workload} prints its metrics; counts repeat")


def test_corrupted_reference_fails() -> None:
    wl = WORKLOADS["plan-tiled"]
    v = run.variant_ids(wl.name, SEED, 1)[0]
    base = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    try:
        dirs = run.setup(wl, [v], base)
        out = os.path.join(base, "out")
        os.makedirs(out)
        runner = run.Runner(wl, dirs, out)
        runner.run(v)
        if any(run.check_ops(wl, runner.ops, dirs)):
            raise AssertionError("the op fails its true reference")
        refs = refcheck.load_refs(wl.name)
        bad = copy.deepcopy(refs)
        selected = bad["variants"][str(v)]["outputs"]["deployment.json"]["selected"]
        seat = selected[0]["assigned"].pop()
        selected[1]["assigned"] = sorted(selected[1]["assigned"] + [seat])
        loader = refcheck.load_refs
        refcheck.load_refs = lambda name: bad
        try:
            reasons = run.check_ops(wl, runner.ops, dirs)
        finally:
            refcheck.load_refs = loader
        if not reasons[0]:
            raise AssertionError("a reassigned seat was not caught")
        print(f"ok: corrupted reference caught ({reasons[0]})")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_missing_target_reads_null() -> None:
    from mmwplan import cli
    from spans import Tracer

    bound, greedy = cli.approximation_bound, cli.greedy_place
    del cli.approximation_bound
    try:
        tracer = Tracer()
        with tracer.installed(), tracer.op(0):
            wrapped = cli.greedy_place
    finally:
        cli.approximation_bound = bound
    metrics = tracer.metrics([0], [1.0], [1.0])
    if metrics["metrics.bound_s"]["value"] is not None:
        raise AssertionError("a missing target does not read null")
    if metrics["solver.greedy_s"]["value"] != 0.0:
        raise AssertionError("a target that did not run does not read 0")
    if wrapped is greedy or cli.greedy_place is not greedy:
        raise AssertionError("targets are not wrapped and restored")
    print("ok: a missing target reads null")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    test_missing_target_reads_null()
    test_corrupted_reference_fails()
    test_smoke_and_repeatable_counts(spec)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
