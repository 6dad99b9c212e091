#!/usr/bin/env python3
"""Differential check: the planner's outputs and model arrays, two trees.

Usage, from the root of a checkout:

    python3 tools/differential.py --parent DIR
    python3 tools/differential.py --self-test

DIR is a checkout of the commit to compare against, for example one made
by ``git worktree add DIR HEAD~1`` (no network needed). Each tree runs one
fixed case list in its own process, with its own ``src/``,
``tests/conftest.py`` and ``perfbench/workloads.py``, so each side writes
its inputs with its own code. A case writes its inputs, runs its
``mmwplan`` commands in-process and builds its planning model. The check
then compares, case by case, every command's exit code, stdout (with
the ``runtime=`` field removed) and stderr, the bytes of every file the
case wrote, and the SHA-256 of the model arrays in ``ARRAYS``. It prints
the first difference and exits 1, or prints one summary line and exits
0. The cases:

* the built-in venues at beta 0.9 and 1.0: greedy with its trace,
  uniform, exact on the toy room, and ``validate --mc`` with and without
  shadowing on the greedy plan;
* plan-tiled variants 0-7, compare-guard rooms 0-7 and validate-mc halls
  0-5, each set up and run as the benchmark runs an op;
* the tests' ``random_toy`` rooms, seeds 0-49 at beam capacity 1-3, with
  greedy at beta 0.9 and 1.0 and exact at beta 0.9.

``--self-test`` runs a few of these cases twice on this tree, checks that
the runs agree, then flips one bit of one output and checks that the
comparison fails. Both sides run with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# model arrays hashed per case; the cell store only up to its last cell,
# because its tail past that is allocated but never written
ARRAYS = ("dist", "phi_rx", "psi_rx", "occluded", "reach", "cell_start",
          "cell_probs", "visible", "foot_start", "foot_flat")
_STORE = ("cell_probs", "visible")
_RUNTIME = re.compile(r" runtime=\S+")
MC_SAMPLES = "20000"


def _cases(quick: bool) -> list:
    """(name, prepare, params, beta, commands) per case: ``prepare`` writes
    the inputs into the current directory and returns the venue, and each
    command is an argv with paths relative to that directory."""
    import workloads
    from conftest import random_toy
    from mmwplan import ChannelParams, generate_venue

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            from mmwplan.cli import main
            return main(argv)

    def saved(make, params=None):
        def prepare():
            venue = make()
            venue.save("venue.json")
            if params is not None:
                with open("params.json", "w") as fh:
                    json.dump(params.to_dict(), fh)
            return venue
        return prepare

    def bench(name, v):
        work = workloads.WORKLOADS[name]

        def prepare():
            venue = work.venue(v)
            work.prepare(run, ".", venue)
            return venue
        return prepare, [work.argv(".", v, ".")]

    def plan(solver, beta, alpha="0.75", params=False, extra=()):
        argv = ["plan", "--venue", "venue.json", "--solver", solver,
                "--alpha", alpha, "--beta", str(beta),
                "--out", f"{solver}-{beta}.json", *extra]
        return argv + (["--params", "params.json"] if params else [])

    def mc(beta, shadowing):
        argv = ["validate", "--venue", "venue.json",
                "--deployment", f"greedy-{beta}.json", "--alpha", "0.75",
                "--beta", str(beta), "--mc", "--samples", MC_SAMPLES,
                "--seed", "7", "--out", f"mc-{shadowing}.json"]
        return argv + (["--shadowing"] if shadowing else [])

    default = ChannelParams()
    cases = []
    kinds = ("toy", "hall") if quick else ("toy", "hall", "airport", "stadium")
    for kind in kinds:
        for beta in (0.9, 1.0):
            commands = [
                plan("greedy", beta, extra=["--trace-out", "trace.json"]),
                plan("uniform", beta, extra=["--uniform-n", "4"]),
                mc(beta, False),
                mc(beta, True),
            ]
            if kind == "toy":
                commands.append(plan("exact", beta))
            cases.append((f"{kind}-beta{beta}",
                          saved(lambda k=kind: generate_venue(k)),
                          default, beta, commands))
    if quick:
        return cases
    guard = ChannelParams(capacity_per_beam=workloads.GUARD_CAPACITY)
    for name, count, params in (("plan-tiled", 8, default),
                                ("compare-guard", 8, guard),
                                ("validate-mc", 6, default)):
        for v in range(count):
            prepare, commands = bench(name, v)
            cases.append((f"{name}-{v}", prepare, params,
                          float(workloads.BETA), commands))
    for seed in range(50):
        for capacity in (1, 2, 3):
            params = ChannelParams(capacity_per_beam=capacity)
            for beta in (0.9, 1.0):
                commands = [plan("greedy", beta, alpha="0.95", params=True,
                                 extra=["--trace-out", "trace.json"])]
                if beta == 0.9:
                    commands.append(plan("exact", beta, alpha="0.95",
                                         params=True))
                cases.append((
                    f"toy{seed}-cap{capacity}-beta{beta}",
                    saved(lambda s=seed: random_toy(s), params),
                    params, beta, commands,
                ))
    return cases


def _array_digests(model) -> dict:
    cells = int(model.cell_start[-1])
    out = {}
    for name in ARRAYS:
        a = getattr(model, name, None)
        if a is None:
            out[name] = "missing"
            continue
        a = a[:cells] if name in _STORE else a
        out[name] = hashlib.sha256(a.tobytes()).hexdigest()
    return out


def worker(tree: str, out: str, quick: bool) -> None:
    """Runs the case list with ``tree``'s package and writes each case's
    files under ``out/<case>/`` and the record of all cases to
    ``out/manifest.json``."""
    for sub in ("src", "tests", "perfbench"):
        sys.path.insert(0, os.path.join(tree, sub))
    from mmwplan import PlanningModel
    from mmwplan.cli import main

    manifest = {}
    for name, prepare, params, beta, commands in _cases(quick):
        d = os.path.join(out, name)
        os.makedirs(d)
        os.chdir(d)
        venue = prepare()
        runs = []
        for argv in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse
                    code = exc.code
            runs.append({
                "argv": argv,
                "exit": code,
                "stdout": _RUNTIME.sub("", stdout.getvalue()),
                "stderr": stderr.getvalue(),
            })
        manifest[name] = {
            "commands": runs,
            "arrays": _array_digests(PlanningModel(venue, params, beta)),
        }
    os.chdir(out)
    with open("manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def _run_workers(trees: list, outs: list, quick: bool) -> None:
    """One worker process per tree, side by side; raises when one fails."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    procs = []
    for tree, out in zip(trees, outs):
        argv = [sys.executable, os.path.abspath(__file__),
                "--worker", tree, out] + (["--quick"] if quick else [])
        procs.append(subprocess.Popen(argv, env=env, stderr=subprocess.PIPE,
                                      text=True))
    for tree, proc in zip(trees, procs):
        _, err = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"the worker on {tree} exited "
                               f"{proc.returncode}:\n{err}")


def _first_byte(a: bytes, b: bytes) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


def compare(parent: str, change: str) -> tuple:
    """``(difference or None, counts)`` between two worker outputs, the
    difference the first one met in case order."""
    with open(os.path.join(parent, "manifest.json")) as fh:
        want = json.load(fh)
    with open(os.path.join(change, "manifest.json")) as fh:
        got = json.load(fh)
    counts = {"cases": 0, "commands": 0, "files": 0, "arrays": 0}
    if list(want) != list(got):
        return "the case lists differ", counts
    for name in want:
        counts["cases"] += 1
        w, g = want[name], got[name]
        # the model first, then the files, then what the commands said
        for key, digest in w["arrays"].items():
            if g["arrays"].get(key) != digest:
                return f"{name}: model array {key} differs", counts
            counts["arrays"] += 1
        files = sorted(os.listdir(os.path.join(parent, name)))
        if files != sorted(os.listdir(os.path.join(change, name))):
            return f"{name}: the files written differ", counts
        for f in files:
            with open(os.path.join(parent, name, f), "rb") as fh:
                a = fh.read()
            with open(os.path.join(change, name, f), "rb") as fh:
                b = fh.read()
            if a != b:
                return (f"{name}: {f} differs from byte "
                        f"{_first_byte(a, b)}"), counts
            counts["files"] += 1
        if len(w["commands"]) != len(g["commands"]):
            return f"{name}: the command lists differ", counts
        for rw, rg in zip(w["commands"], g["commands"]):
            for key in ("argv", "exit", "stdout", "stderr"):
                if rw[key] != rg[key]:
                    return (f"{name}: `{' '.join(rw['argv'])}` {key}: "
                            f"{rw[key]!r} != {rg[key]!r}"), counts
            counts["commands"] += 1
    return None, counts


def _summary(counts: dict) -> str:
    return (f"{counts['cases']} cases, {counts['commands']} commands, "
            f"{counts['files']} files, {counts['arrays']} arrays")


def check(parent: str) -> int:
    with tempfile.TemporaryDirectory() as work:
        outs = [os.path.join(work, side) for side in ("parent", "change")]
        _run_workers([os.path.abspath(parent), ROOT], outs, quick=False)
        diff, counts = compare(*outs)
    if diff is not None:
        print(f"differential: first difference: {diff}")
        return 1
    print(f"differential: no difference: {_summary(counts)}")
    return 0


def self_test() -> int:
    with tempfile.TemporaryDirectory() as work:
        outs = [os.path.join(work, side) for side in ("a", "b")]
        _run_workers([ROOT, ROOT], outs, quick=True)
        diff, counts = compare(*outs)
        if diff is not None:
            print(f"differential self-test: two runs differ: {diff}")
            return 1
        case = "hall-beta0.9"
        path = os.path.join(outs[1], case, "trace.json")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        data[len(data) // 2] ^= 1
        with open(path, "wb") as fh:
            fh.write(data)
        flipped, _ = compare(*outs)
    want = f"{case}: trace.json differs from byte {len(data) // 2}"
    if flipped != want:
        print(f"differential self-test: a flipped bit gave {flipped!r}, "
              f"not {want!r}")
        return 1
    print(f"differential self-test: ok ({_summary(counts)} agree; "
          f"a flipped bit is caught)")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--parent", help="checkout of the commit to compare to")
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--worker", nargs=2, metavar=("TREE", "OUT"),
                      help=argparse.SUPPRESS)
    p.add_argument("--quick", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(*args.worker, args.quick)
        return 0
    if args.self_test:
        return self_test()
    if not os.path.isdir(os.path.join(args.parent, "src", "mmwplan")):
        p.error(f"{args.parent} holds no src/mmwplan")
    return check(args.parent)


if __name__ == "__main__":
    sys.exit(main())
