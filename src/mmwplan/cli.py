"""Command-line front end for batch planning runs.

Subcommands: ``generate`` writes a venue file, ``plan`` runs one solver,
``compare`` sweeps greedy against the exact oracle and the uniform
baseline into CSV, ``render`` draws a deployment, ``validate`` recomputes
coverage for an existing deployment file and can cross-check it by Monte
Carlo.

Exit codes: 0 success, 2 infeasible (the partial result is still
written), 3 unreadable or invalid input, including command-line usage
errors, 4 size refusal. The input files are read through ``inputs``, so a
malformed field exits 3 with a message naming its path.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from typing import List, Optional, Sequence

from .channel import ChannelParams
from .errors import (
    DeploymentValidationError,
    InfeasibleError,
    PlanError,
    SizeLimitError,
)
from .generators import VENUE_KINDS, generate_venue
from .inputs import load_json, save_json
from .metrics import approximation_bound, location_difference
from .montecarlo import McConfig, monte_carlo_coverage
from .render import render_svg
from .solver import (
    EXACT_LIMITS,
    Deployment,
    PlanningModel,
    check_exact_size,
    check_uniform_count,
    evaluate_coverage,
    exact_place,
    greedy_place,
    uniform_place,
)
from .venue import Venue

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_LIMIT = 4

_CSV_COLUMNS = (
    "W",
    "alpha",
    "beta",
    "L_greedy",
    "L_exact",
    "coverage_greedy",
    "coverage_exact",
    "coverage_uniform",
    "analytic_ratio",
    "observed_ratio",
    "location_diff_pct",
)


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # NaN fails as well
        raise argparse.ArgumentTypeError(f"{text!r} is not in [0, 1]")
    return value


def _float_list(text: str, item=float) -> List[float]:
    values = [item(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"{text!r} lists no numbers")
    return values


def _fraction_list(text: str) -> List[float]:
    return _float_list(text, _fraction)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is below 1")
    return value


def _load_params(args: argparse.Namespace) -> ChannelParams:
    """The ``--params`` file, the only route to a channel setting, or the
    defaults without one."""
    if args.params:
        return load_json(args.params, "params", ChannelParams.from_dict)
    return ChannelParams()


def cmd_generate(args: argparse.Namespace) -> int:
    kw = {}
    if args.presence_prob is not None:
        kw["presence_prob"] = args.presence_prob
    if args.orientation_std is not None:
        kw["orientation_std"] = args.orientation_std
    if args.name:
        kw["name"] = args.name
    venue = generate_venue(args.kind, **kw)
    venue.save(args.out)
    print(
        f"{venue.name}: {venue.n_grid} grid positions, "
        f"{venue.n_candidates} candidates -> {args.out}"
    )
    return EXIT_OK


def _infeasible_line(exc: InfeasibleError) -> str:
    """The stderr line for a refusal, naming the first ten seats that no
    deployment can satisfy when the solver found any."""
    line = f"infeasible: {exc}"
    unreachable = exc.diagnostics.get("unreachable")
    if unreachable:
        ids = ", ".join(map(str, unreachable[:10]))
        more = ", ..." if len(unreachable) > 10 else ""
        line += f"; {len(unreachable)} seats unreachable: {ids}{more}"
    return line


# plan's options that one solver alone reads, by argparse dest: the flag
# and that solver
_ONE_SOLVER_OPTIONS = {
    "trace_out": ("--trace-out", "greedy"),
    "uniform_n": ("--uniform-n", "uniform"),
    "max_exact_l": ("--max-exact-l", "exact"),
    "max_exact_m": ("--max-exact-m", "exact"),
}


def cmd_plan(args: argparse.Namespace) -> int:
    for dest, (flag, solver) in _ONE_SOLVER_OPTIONS.items():
        if getattr(args, dest) is not None and args.solver != solver:
            raise ValueError(
                f"{flag} is read by --solver {solver} only, not by "
                f"--solver {args.solver}"
            )
    venue = Venue.load(args.venue)
    if args.uniform_n is not None:
        check_uniform_count(args.uniform_n, venue.n_candidates)
    params = _load_params(args)
    if args.solver == "exact":
        # None unless given, so that the other solvers can refuse them;
        # a given limit is positive
        limits = (args.max_exact_l or EXACT_LIMITS[0],
                  args.max_exact_m or EXACT_LIMITS[1])
        check_exact_size(venue.n_candidates, venue.n_grid, *limits)
    start = time.perf_counter()
    model = PlanningModel(venue, params, args.beta)
    trace = None
    try:
        if args.solver == "greedy":
            deployment, trace = greedy_place(model, args.alpha)
        elif args.solver == "exact":
            deployment = exact_place(model, args.alpha, *limits)
        else:
            # checked above: None or a count in range
            n = args.uniform_n or venue.n_candidates
            deployment = uniform_place(model, n)
    except InfeasibleError as exc:
        # the partial result and the summary line; main reports the refusal
        elapsed = time.perf_counter() - start
        if exc.partial is not None and args.out:
            save_json(args.out, exc.partial.to_dict())
        achieved = (
            exc.partial.normalized_coverage if exc.partial else float("nan")
        )
        print(
            f"solver={args.solver} infeasible "
            f"normalized={achieved:.4f} target={args.alpha:.4f} "
            f"runtime={elapsed:.2f}s"
        )
        raise
    elapsed = time.perf_counter() - start
    if args.out:
        save_json(args.out, deployment.to_dict())
    if args.trace_out:
        save_json(args.trace_out, trace.to_dict())
    print(
        f"solver={args.solver} aps={len(deployment.selected)} "
        f"coverage={deployment.coverage:.4f} "
        f"normalized={deployment.normalized_coverage:.4f} "
        f"runtime={elapsed:.2f}s"
    )
    return EXIT_OK


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6f}" if math.isfinite(value) else str(value)
    return str(value)


def cmd_compare(args: argparse.Namespace) -> int:
    venue = Venue.load(args.venue)
    if args.uniform_n is not None:
        check_uniform_count(args.uniform_n, venue.n_candidates)
    base = _load_params(args)
    widths = args.beamwidth_ap or [base.ap_beamwidth]
    # every width is checked before the first model is built: replace
    # re-runs the checks that tie the width to the other fields
    channels = [replace(base, ap_beamwidth=w) for w in widths]
    rows = []
    for w, params in zip(widths, channels):
        # one model per width, shared by every target and solver
        model = PlanningModel(venue, params, args.beta)
        for alpha in args.alpha:
            row = dict.fromkeys(_CSV_COLUMNS)
            row.update(W=w, alpha=alpha, beta=args.beta)
            greedy = trace = None
            try:
                greedy, trace = greedy_place(model, alpha)
                row["L_greedy"] = len(greedy.selected)
                row["coverage_greedy"] = greedy.normalized_coverage
            except InfeasibleError as exc:
                print(
                    f"W={w:.4f} alpha={alpha:.2f}: greedy infeasible "
                    f"({exc})",
                    file=sys.stderr,
                )
            exact = None
            try:
                exact = exact_place(
                    model,
                    alpha,
                    max_candidates=args.max_exact_l,
                    max_positions=args.max_exact_m,
                )
                row["L_exact"] = len(exact.selected)
                row["coverage_exact"] = exact.normalized_coverage
            except (SizeLimitError, InfeasibleError) as exc:
                reason = (
                    "refused" if isinstance(exc, SizeLimitError)
                    else "infeasible"
                )
                print(
                    f"W={w:.4f} alpha={alpha:.2f}: exact {reason} ({exc})",
                    file=sys.stderr,
                )
            if greedy is not None:
                n = args.uniform_n or max(len(greedy.selected), 1)
                uniform = uniform_place(model, n)
                row["coverage_uniform"] = uniform.normalized_coverage
            if greedy is not None and exact is not None:
                bound = approximation_bound(trace, exact, venue)
                row["analytic_ratio"] = bound["analytic_ratio"]
                row["observed_ratio"] = bound["observed_ratio"]
                row["location_diff_pct"] = location_difference(
                    greedy, exact
                )
            rows.append(row)
    lines = [",".join(_CSV_COLUMNS)]
    lines += [
        ",".join(_csv_cell(row[c]) for c in _CSV_COLUMNS) for row in rows
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"{len(rows)} rows -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    venue = Venue.load(args.venue)
    deployment = None
    if args.deployment:
        deployment = load_json(
            args.deployment, "deployment", Deployment.from_dict
        )
    params = _load_params(args)
    svg = render_svg(venue, deployment, beamwidth=params.ap_beamwidth)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"rendered {args.venue} -> {args.out}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    # the Monte Carlo check's options are None unless given
    if not args.mc:
        for flag in ("--samples", "--seed", "--shadowing", "--out"):
            if getattr(args, flag[2:]) is not None:
                raise ValueError(f"{flag} is read by --mc only")
    venue = Venue.load(args.venue)
    params = _load_params(args)
    deployment = load_json(
        args.deployment, "deployment", Deployment.from_dict
    )
    mc = None
    if args.mc:
        given = {
            "n_samples": args.samples,
            "seed": args.seed,
            "sample_shadowing": args.shadowing,
        }
        mc = McConfig(**{k: v for k, v in given.items() if v is not None})
    model = PlanningModel(venue, params, args.beta)
    report = evaluate_coverage(model, deployment)
    ok = report.normalized_coverage >= args.alpha
    # the replay runs before anything is printed, so one that fails on its
    # input leaves stdout empty
    mc_report = (
        None if mc is None else monte_carlo_coverage(model, mc, deployment)
    )
    print(
        f"aps={len(deployment.selected)} "
        f"coverage={report.coverage:.4f} "
        f"normalized={report.normalized_coverage:.4f} "
        f"target={args.alpha:.4f} {'ok' if ok else 'below target'}"
    )
    if mc is not None:
        outside = [
            row["id"]
            for row in mc_report["per_gp"]
            if not row["within_3sigma"]
        ]
        print(
            f"mc n={mc.n_samples} seed={mc.seed} "
            f"empirical_normalized="
            f"{mc_report['normalized_coverage_empirical']:.4f} "
            f"outside_3sigma={len(outside)}"
        )
        if args.out:
            save_json(args.out, mc_report)
    return EXIT_OK if ok else EXIT_INFEASIBLE


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with the invalid-input exit code; argparse's
    own code 2 would read as "infeasible". Subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mmwplan",
        description=(
            "Access point placement and beam steering planner for seated "
            "venues with stochastic body blockage."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a built-in venue to JSON")
    p.add_argument("kind", choices=VENUE_KINDS)
    p.add_argument("--out", required=True)
    p.add_argument("--presence-prob", type=float, default=None)
    p.add_argument("--orientation-std", type=float, default=None)
    p.add_argument("--name", default=None)
    p.set_defaults(func=cmd_generate)

    def common(p: argparse.ArgumentParser, alpha_list: bool) -> None:
        p.add_argument("--venue", required=True)
        p.add_argument("--params", default=None, help="ChannelParams JSON")
        if alpha_list:
            p.add_argument(
                "--alpha",
                type=_fraction_list,
                required=True,
                help="comma-separated list of coverage targets",
            )
            p.add_argument(
                "--beamwidth-ap",
                type=_float_list,
                default=None,
                help="comma-separated list of AP beamwidths, radians",
            )
        else:
            p.add_argument("--alpha", type=_fraction, required=True)
        p.add_argument("--beta", type=float, required=True)

    def solver_sizes(
        p: argparse.ArgumentParser, limits: Sequence[Optional[int]]
    ) -> None:
        p.add_argument("--uniform-n", type=int, default=None)
        for flag, default in zip(("--max-exact-l", "--max-exact-m"),
                                 limits):
            p.add_argument(flag, type=_positive_int, default=default)

    p = sub.add_parser("plan", help="run one solver on a venue")
    common(p, alpha_list=False)
    p.add_argument(
        "--solver", choices=("greedy", "exact", "uniform"), default="greedy"
    )
    p.add_argument("--out", default=None, help="deployment JSON path")
    p.add_argument(
        "--trace-out", default=None, help="greedy trace JSON path"
    )
    solver_sizes(p, (None, None))
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "compare", help="sweep greedy vs exact vs uniform into CSV"
    )
    common(p, alpha_list=True)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    solver_sizes(p, EXACT_LIMITS)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("render", help="draw a venue and deployment as SVG")
    p.add_argument("--venue", required=True)
    p.add_argument("--deployment", default=None)
    p.add_argument("--params", default=None, help="ChannelParams JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser(
        "validate", help="recompute coverage for a deployment file"
    )
    common(p, alpha_list=False)
    p.add_argument("--deployment", required=True)
    p.add_argument("--mc", action="store_true", help="Monte Carlo check")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--shadowing", action="store_true", default=None)
    p.add_argument("--out", default=None, help="MC report JSON path")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except InfeasibleError as exc:
        print(_infeasible_line(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (PlanError, OSError, ValueError) as exc:
        if isinstance(exc, DeploymentValidationError):
            for v in exc.violations:
                print(f"violation: {v}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
