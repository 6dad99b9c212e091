"""Spans recorded from outside the planner, and the per-layer metrics.

``Tracer.installed()`` replaces each target in ``TARGETS`` at the name its
callers look up (``mmwplan.cli.greedy_place``, the ``PlanningModel.__init__``
attribute, ...) with a wrapper that records a span (name, start, end,
parent, op id) in memory, and puts the originals back on exit. A target
missing from this version of the planner is skipped with a warning, and
the metrics that depend on it are reported as null.

A span's self time is its duration minus the durations of its direct
children; the spans of one op share its op id.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _occlusion_pairs(args, kwargs, result, counts):
    counts["occlusion_pairs"] += args[0].n_grid * args[0].n_candidates


def _partition(args, kwargs, result, counts):
    cells = len(result.cells)
    counts["partitions"] += 1
    counts["cells"] += cells
    counts["cells_max"] = max(counts["cells_max"], cells)


def _greedy(args, kwargs, result, counts):
    trace = result[1]
    counts["greedy_iters"] += len(trace.iterations)
    counts["tuple_evals"] += trace.tuple_evaluations


def _exact(args, kwargs, result, counts):
    counts["exact_aps"] += len(result.selected)


def _mc(args, kwargs, result, counts):
    deployment = args[2]
    served = {m for ap in deployment.selected for m in ap.assigned}
    counts["mc_samples"] += result["n_samples"] * len(served)


# (module, attribute path, span name, hook reading counts off the call)
TARGETS = (
    ("mmwplan.venue", "Venue.load", "venue.load", None),
    ("mmwplan.solver", "occlusion_matrix", "venue.occlusion", _occlusion_pairs),
    ("mmwplan.solver", "build_scenarios", "scenarios.build", _partition),
    ("mmwplan.solver", "connectivity_probability", "scenarios.conn", None),
    ("mmwplan.solver", "PlanningModel.__init__", "solver.model", None),
    ("mmwplan.solver", "PlanningModel.finalize", "solver.finalize", None),
    ("mmwplan.solver", "greedy_iteration_best", "solver.greedy_iter", None),
    ("mmwplan.cli", "greedy_place", "solver.greedy", _greedy),
    ("mmwplan.cli", "exact_place", "solver.exact", _exact),
    ("mmwplan.cli", "uniform_place", "solver.uniform", None),
    ("mmwplan.cli", "evaluate_coverage", "solver.evaluate", None),
    ("mmwplan.montecarlo", "evaluate_coverage", "solver.evaluate", None),
    ("mmwplan.cli", "approximation_bound", "metrics.bound", None),
    ("mmwplan.cli", "monte_carlo_coverage", "montecarlo.coverage", _mc),
)

ROOT = "cli"

# metric name -> (unit, kind, span name or count key). Kinds: "total" and
# "self" are seconds in the span per op, "per_span" seconds per span,
# "calls" spans per op, "count" a hook's count per op, "max" its largest
# value, "rate" MC samples per second of MC self time, "overhead" the
# traced over the untraced op time, minus 1.
LAYER_METRICS = {
    "cli.self_s": ("s", "self", ROOT),
    "cli.bytes_out": ("count", "count", "bytes_out"),
    "venue.load_s": ("s", "total", "venue.load"),
    "venue.occlusion_s": ("s", "total", "venue.occlusion"),
    "venue.occlusion_pairs": ("count", "count", "occlusion_pairs"),
    "scenarios.build_s": ("s", "total", "scenarios.build"),
    "scenarios.partitions": ("count", "count", "partitions"),
    "scenarios.cells": ("count", "count", "cells"),
    "scenarios.cells_per_seat_max": ("count", "max", "cells_max"),
    "scenarios.conn_s": ("s", "total", "scenarios.conn"),
    "scenarios.conn_calls": ("count", "calls", "scenarios.conn"),
    "solver.model_builds": ("count", "calls", "solver.model"),
    "solver.model_build_s": ("s", "total", "solver.model"),
    "solver.model_self_s": ("s", "self", "solver.model"),
    "solver.greedy_s": ("s", "total", "solver.greedy"),
    "solver.greedy_iters": ("count", "count", "greedy_iters"),
    "solver.greedy_iter_s": ("s", "per_span", "solver.greedy_iter"),
    "solver.tuple_evals": ("count", "count", "tuple_evals"),
    "solver.exact_s": ("s", "total", "solver.exact"),
    "solver.exact_self_s": ("s", "self", "solver.exact"),
    "solver.exact_aps": ("count", "count", "exact_aps"),
    "solver.uniform_s": ("s", "total", "solver.uniform"),
    "solver.finalize_s": ("s", "total", "solver.finalize"),
    "solver.evaluate_s": ("s", "total", "solver.evaluate"),
    "metrics.bound_s": ("s", "total", "metrics.bound"),
    "montecarlo.coverage_s": ("s", "total", "montecarlo.coverage"),
    "montecarlo.self_s": ("s", "self", "montecarlo.coverage"),
    "montecarlo.samples": ("count", "count", "mc_samples"),
    "montecarlo.samples_per_s": ("1/s", "rate", "mc_samples"),
    "trace.overhead_frac": ("frac", "overhead", None),
}

# count key -> span whose wrapper produces it
_COUNT_SOURCE = {
    "occlusion_pairs": "venue.occlusion",
    "partitions": "scenarios.build",
    "cells": "scenarios.build",
    "cells_max": "scenarios.build",
    "greedy_iters": "solver.greedy",
    "tuple_evals": "solver.greedy",
    "exact_aps": "solver.exact",
    "mc_samples": "montecarlo.coverage",
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Spans and counts of the traced ops of one run, kept in memory."""

    def __init__(self) -> None:
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> key -> n
        self.missing = set()  # span names with no target found
        self.hook_errors = set()  # span names whose count hook failed
        self._stack = []
        self._op = None

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._op]
            tracer.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(args, kwargs, result, tracer.counts[tracer._op])
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    if name not in tracer.hook_errors:
                        print(f"warning: counting {name} failed: {exc!r}",
                              file=sys.stderr)
                    tracer.hook_errors.add(name)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        absent = {}
        try:
            for module, path, name, hook in TARGETS:
                try:
                    owner, attr = _resolve(module, path)
                    raw = owner.__dict__[attr] if isinstance(owner, type) \
                        else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    absent[f"{module}.{path}"] = name
                    continue
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name, raw.__func__, hook))
                else:
                    wrapped = self._wrap(name, raw, hook)
                setattr(owner, attr, wrapped)
                saved.append((owner, attr, raw, name))
            # a span name reads null only when none of its targets exists
            wrapped_names = {name for *_, name in saved}
            for target, name in absent.items():
                if name not in wrapped_names and name not in self.missing:
                    print(f"warning: {target} not found; {name} is reported "
                          f"as null", file=sys.stderr)
                    self.missing.add(name)
            yield self
        finally:
            for owner, attr, raw, _ in reversed(saved):
                setattr(owner, attr, raw)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """The root span of one op; spans recorded inside carry ``op_id``."""
        self._op = op_id
        self.counts[op_id]  # an op with no counted call still counts as 0
        idx = len(self.spans)
        span = [ROOT, 0.0, 0.0, -1, op_id]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def add_count(self, op_id: int, key: str, n: int) -> None:
        self.counts[op_id][key] += n

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    def metrics(self, count_ops, untraced_s, traced_s) -> dict:
        """Per-layer metrics.

        Times are per traced op over every traced op; counts are per op
        over ``count_ops``, a fixed prefix of the traced ops, so they repeat
        exactly between runs of one seed. ``untraced_s`` and ``traced_s``
        are the op times of the same variants without and with tracing.
        """
        n_ops = len(self.counts)
        total = defaultdict(float)
        child = defaultdict(float)
        n_spans = defaultdict(int)
        calls = defaultdict(lambda: defaultdict(int))
        for name, start, end, parent, op in self.spans:
            dur = end - start
            total[name] += dur
            n_spans[name] += 1
            calls[op][name] += 1
            if parent >= 0:
                child[parent] += dur
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]

        def per_count_op(key, table):
            return sum(table[op][key] for op in count_ops) / len(count_ops)

        mc_self = self_s["montecarlo.coverage"]
        all_samples = sum(c["mc_samples"] for c in self.counts.values())
        out = {}
        for metric, (unit, kind, key) in LAYER_METRICS.items():
            needs = _COUNT_SOURCE.get(key, key)
            if needs in self.missing or (
                    key in _COUNT_SOURCE and needs in self.hook_errors):
                value = None
            elif kind == "total":
                value = total[key] / n_ops
            elif kind == "self":
                value = self_s[key] / n_ops
            elif kind == "per_span":
                value = total[key] / n_spans[key] if n_spans[key] else 0.0
            elif kind == "calls":
                value = per_count_op(key, calls)
            elif kind == "count":
                value = per_count_op(key, self.counts)
            elif kind == "max":
                value = max(self.counts[op][key] for op in count_ops)
            elif kind == "rate":
                value = all_samples / mc_self if mc_self > 0.0 else 0.0
            else:
                value = sum(traced_s) / sum(untraced_s) - 1.0
            out[metric] = {"value": value, "unit": unit}
        return out
