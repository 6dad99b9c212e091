#!/usr/bin/env python3
"""mmwplan benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan-tiled --seed 1 --seconds 25 --trace 0

Set-up writes the JSON inputs of K seeded variants, then warms up on a
small venue. Each op then calls ``mmwplan.cli.main(argv)`` in-process on
the next variant, and the next op starts only when it returns. After
``--seconds`` the first variant runs once more, untimed, and every op's
exit code and output files are checked against the stored references in
``refs/`` and, for a repeated variant, byte for byte against its first
output. The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics from spans
recorded around the planner's functions (``--trace 1``). See README.md.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# one client on a 2-core machine: keep numpy's BLAS to one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, os.path.join(ROOT, "src"))

import refcheck  # noqa: E402

# Variants per run (K) and variants with stored references (U). K covers
# the ops one run makes at this version's speed, so a timed op does not
# meet the same input twice; past K the variants repeat in the same order.
VARIANTS = {"plan-tiled": 32, "compare-guard": 32, "validate-mc": 24}
UNIVERSE = {"plan-tiled": 48, "compare-guard": 32, "validate-mc": 48}
# Variants differ in cost by up to 1.5x and a run makes 7 to 25 ops, so
# the order visits cost strata in rounds: the median of a run then does not
# hinge on which variants its seed drew.
STRATA = 8
SETUP_REPS = 3
# traced runs take their counts from the first COUNT_PAIRS traced ops
COUNT_PAIRS = 2


def run_cli(argv) -> int:
    """``mmwplan.cli.main`` with its console output swallowed."""
    from mmwplan import cli

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def variant_ids(name: str, seed: int, k: int) -> list:
    """The first k variants of the seed's order over the universe.

    The universe, ranked by the op times measured when the references were
    made, splits into STRATA equal strata; round r of the order takes one
    more variant from each stratum, in shuffled order.
    """
    cost = refcheck.load_costs(name)
    ranked = sorted(range(len(cost)), key=lambda v: (cost[v], v))
    size = len(ranked) // STRATA
    rng = random.Random(f"{name}:{seed}")
    strata = [rng.sample(ranked[i * size:(i + 1) * size], size)
              for i in range(STRATA)]
    order = []
    for r in range(size):
        one_each = [s[r] for s in strata]
        rng.shuffle(one_each)
        order += one_each
    return order[:k]


def setup(wl, ids, base: str) -> dict:
    """Writes every variant's inputs under ``base`` and warms up once."""
    shutil.rmtree(base, ignore_errors=True)
    dirs = {}
    for v in ids:
        dirs[v] = os.path.join(base, f"v{v}")
        os.makedirs(dirs[v])
        wl.prepare(run_cli, dirs[v], wl.venue(v))
    warm = os.path.join(base, "warmup")
    os.makedirs(os.path.join(warm, "out"))
    wl.prepare(run_cli, warm, wl.warmup_venue())
    code = run_cli(wl.argv(warm, -1, os.path.join(warm, "out")))
    if code != 0:
        raise RuntimeError(f"warm-up op exited {code}")
    return dirs


def child_setup_s(args) -> float:
    """One more set-up, in a fresh interpreter so that imports count."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--trace", "0", "--setup-only",
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs and records the ops of one workload."""

    def __init__(self, wl, dirs, out: str, tracer=None) -> None:
        self.wl = wl
        self.dirs = dirs
        self.out = out
        self.tracer = tracer
        self.ops = []  # dicts: v, s, code, outputs, error, traced

    def run(self, v: int, traced: bool = False) -> dict:
        for name in self.wl.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.out, name))
        argv = self.wl.argv(self.dirs[v], v, self.out)
        op_id = len(self.ops)
        code, error = None, None
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.installed(), self.tracer.op(op_id):
                    code = run_cli(argv)
            else:
                code = run_cli(argv)
        except SystemExit as exc:
            error = f"exited through SystemExit({exc.code})"
        except Exception as exc:
            error = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        outputs = {}
        for name in self.wl.outputs:
            with contextlib.suppress(FileNotFoundError):
                with open(os.path.join(self.out, name), "rb") as fh:
                    outputs[name] = fh.read()
        if traced:
            self.tracer.add_count(op_id, "bytes_out",
                                  sum(map(len, outputs.values())))
        rec = {"v": v, "s": elapsed, "code": code, "outputs": outputs,
               "error": error, "traced": traced}
        self.ops.append(rec)
        return rec


def check_ops(wl, ops, dirs) -> list:
    """Failure reasons by op index: reference mismatch or a repeat whose
    bytes differ from the first output of the same variant."""
    refs = refcheck.load_refs(wl.name)["variants"]
    digests = {v: refcheck.inputs_digest(d) for v, d in dirs.items()}
    first = {}
    reasons = []
    for rec in ops:
        v = rec["v"]
        reason = rec["error"]
        if reason is None:
            ref = refs.get(str(v))
            reason = (f"no reference for variant {v}" if ref is None else
                      refcheck.check(ref, rec["code"], digests[v],
                                     rec["outputs"]))
        if reason is None and first.setdefault(v, rec["outputs"]) != rec["outputs"]:
            reason = "repeat differs byte for byte from the first output"
        reasons.append(reason)
    return reasons


def tail(latencies):
    """The latency at the highest percentile with at least 10 samples
    beyond it, floored at the median; that percentile; the sample count.

    Up to 21 samples the floor applies and the tail is the median: the rule
    alone would report a latency below the median, or none at all.
    """
    lat = sorted(latencies)
    n = len(lat)
    i = max(n - 11, (n - 1) // 2)
    return lat[i], 100.0 * (i + 1) / n, n


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(VARIANTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2 variants and one set-up: for the self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        from spans import Tracer
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the planner from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    k = 2 if args.smoke else VARIANTS[wl.name]
    ids = variant_ids(wl.name, args.seed, k)
    base = os.path.join(WORK, f"{wl.name}-{os.getpid()}")
    try:
        dirs = setup(wl, ids, base)
        setup_s = [time.perf_counter() - T0]
        if args.setup_only:
            print(setup_s[0])
            return 0
        if not args.smoke:
            setup_s += [child_setup_s(args) for _ in range(SETUP_REPS - 1)]

        out = os.path.join(base, "out")
        os.makedirs(out)
        tracer = Tracer() if args.trace else None
        runner = Runner(wl, dirs, out, tracer)
        deadline = time.perf_counter() + args.seconds
        t_start = time.perf_counter()
        i = 0
        if args.trace:
            # untraced and traced op on each variant, in alternating order
            while i < COUNT_PAIRS or time.perf_counter() < deadline:
                v = ids[i % k]
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    runner.run(v, traced)
                i += 1
        else:
            while i == 0 or time.perf_counter() < deadline:
                runner.run(ids[i % k])
                i += 1
        window = time.perf_counter() - t_start
        n_timed = len(runner.ops)
        if not args.trace:
            runner.run(ids[0])  # untimed repeat for the byte-identity check
        reasons = check_ops(wl, runner.ops, dirs)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    ops = runner.ops
    for rec, reason in zip(ops, reasons):
        if reason:
            print(f"failed: variant {rec['v']}: {reason}", file=sys.stderr)
    failed = sum(1 for r in reasons if r)
    timed = ops[:n_timed]
    latencies = [r["s"] for r in timed]
    lat_tail, tail_pct, n_lat = tail(latencies)
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "ops": [[r["v"], round(r["s"], 4)] for r in timed], "window_s": window,
        "fail_frac": failed / len(ops), "op_s_tail_percentile": tail_pct,
        "op_s_samples": n_lat, "setup_s_samples": setup_s,
    }
    if args.trace:
        untraced = [r["s"] for r in timed if not r["traced"]]
        traced = [r["s"] for r in timed if r["traced"]]
        count_ops = [j for j, r in enumerate(timed) if r["traced"]][:COUNT_PAIRS]
        metrics = tracer.metrics(count_ops, untraced, traced)
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, f"{wl.name}.spans.jsonl"))
    else:
        ok = sum(1 for r in reasons[:n_timed] if not r)
        metrics = {
            "ops_per_s": metric(ok / window, "1/s"),
            "op_s_p50": metric(statistics.median(latencies), "s"),
            "op_s_tail": metric(lat_tail, "s"),
            "setup_s": metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
    print("# " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
