"""Command-line front end for batch planning runs.

Subcommands: ``generate`` writes a venue file, ``plan`` runs one solver,
``compare`` sweeps greedy against the exact oracle and the uniform
baseline into CSV, ``render`` draws a deployment, ``validate`` recomputes
coverage for an existing deployment file and can cross-check it by Monte
Carlo.

Exit codes: 0 success, 2 infeasible (the partial result is still
written), 3 unreadable or invalid input, including command-line usage
errors, 4 size refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional, Sequence

from .channel import ChannelParams
from .errors import (
    DeploymentValidationError,
    InfeasibleError,
    PlanError,
    SizeLimitError,
    VenueFormatError,
)
from .generators import generate_venue
from .metrics import approximation_bound, location_difference
from .montecarlo import McConfig, monte_carlo_coverage
from .render import render_svg
from .solver import (
    Deployment,
    evaluate_coverage,
    exact_place,
    greedy_place,
    uniform_place,
)
from .venue import Venue, venue_betas

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


def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _load_params(args: argparse.Namespace) -> ChannelParams:
    if getattr(args, "params", None):
        try:
            with open(args.params) as fh:
                params = ChannelParams.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, TypeError) as exc:
            raise VenueFormatError(
                f"cannot read params file {args.params}: {exc}"
            ) from exc
    else:
        params = ChannelParams()
    ap = getattr(args, "beamwidth_ap", None)
    if isinstance(ap, list):
        # compare sweeps apply each width itself
        ap = None
    return params.with_beamwidths(ap, getattr(args, "beamwidth_md", None))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


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


def cmd_plan(args: argparse.Namespace) -> int:
    venue = Venue.load(args.venue)
    params = _load_params(args)
    betas = venue_betas(venue, args.beta)
    start = time.perf_counter()
    trace = None
    try:
        if args.solver == "greedy":
            deployment, trace = greedy_place(venue, params, args.alpha, betas)
        elif args.solver == "exact":
            deployment = exact_place(
                venue,
                params,
                args.alpha,
                betas,
                max_candidates=args.max_exact_l,
                max_positions=args.max_exact_m,
            )
        else:
            n = (
                args.uniform_n
                if args.uniform_n is not None
                else venue.n_candidates
            )
            deployment = uniform_place(venue, params, n, betas)
    except InfeasibleError as exc:
        elapsed = time.perf_counter() - start
        if exc.partial is not None and args.out:
            _write_json(args.out, exc.partial.to_dict())
        achieved = (
            exc.partial.normalized_coverage if exc.partial else float("nan")
        )
        print(f"infeasible: {exc}", file=sys.stderr)
        print(
            f"solver={args.solver} infeasible "
            f"normalized={achieved:.4f} target={args.alpha:.4f} "
            f"runtime={elapsed:.2f}s"
        )
        return EXIT_INFEASIBLE
    elapsed = time.perf_counter() - start
    if args.out:
        _write_json(args.out, deployment.to_dict())
    if trace is not None and args.trace_out:
        _write_json(args.trace_out, trace.to_dict())
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
    base = _load_params(args)
    betas = venue_betas(venue, args.beta)
    widths = args.beamwidth_ap or [base.ap_beamwidth]
    rows = []
    for w in widths:
        params = base.with_beamwidths(ap_beamwidth=w)
        for alpha in args.alpha:
            row = {
                "W": w,
                "alpha": alpha,
                "beta": args.beta,
                "L_greedy": None,
                "L_exact": None,
                "coverage_greedy": None,
                "coverage_exact": None,
                "coverage_uniform": None,
                "analytic_ratio": None,
                "observed_ratio": None,
                "location_diff_pct": None,
            }
            greedy = trace = None
            try:
                greedy, trace = greedy_place(venue, params, alpha, betas)
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
                    venue,
                    params,
                    alpha,
                    betas,
                    max_candidates=args.max_exact_l,
                    max_positions=args.max_exact_m,
                )
                row["L_exact"] = len(exact.selected)
                row["coverage_exact"] = exact.normalized_coverage
            except SizeLimitError:
                pass
            except InfeasibleError:
                pass
            if greedy is not None:
                n = (
                    args.uniform_n
                    if args.uniform_n is not None
                    else max(len(greedy.selected), 1)
                )
                uniform = uniform_place(venue, params, n, betas)
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
        deployment = _load_deployment(args.deployment)
    params = _load_params(args)
    svg = render_svg(venue, deployment, beamwidth=params.ap_beamwidth)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"rendered {args.venue} -> {args.out}")
    return EXIT_OK


def _load_deployment(path: str) -> Deployment:
    try:
        with open(path) as fh:
            return Deployment.from_dict(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise VenueFormatError(
            f"cannot read deployment file {path}: {exc}"
        ) from exc


def cmd_validate(args: argparse.Namespace) -> int:
    venue = Venue.load(args.venue)
    params = _load_params(args)
    betas = venue_betas(venue, args.beta)
    deployment = _load_deployment(args.deployment)
    report = evaluate_coverage(venue, params, deployment, betas)
    ok = report.normalized_coverage >= args.alpha
    print(
        f"aps={len(deployment.selected)} "
        f"coverage={report.coverage:.4f} "
        f"normalized={report.normalized_coverage:.4f} "
        f"target={args.alpha:.4f} {'ok' if ok else 'below target'}"
    )
    if args.mc:
        mc = McConfig(
            n_samples=args.samples,
            seed=args.seed,
            sample_shadowing=args.shadowing,
        )
        mc_report = monte_carlo_coverage(venue, params, deployment, betas, mc)
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
            _write_json(args.out, mc_report)
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
    p.add_argument(
        "kind", choices=("hall", "airport", "stadium", "toy")
    )
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
                type=_float_list,
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
            p.add_argument("--alpha", type=float, required=True)
            p.add_argument("--beamwidth-ap", type=float, default=None)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--beamwidth-md", type=float, default=None)

    p = sub.add_parser("plan", help="run one solver on a venue")
    common(p, alpha_list=False)
    p.add_argument(
        "--solver", choices=("greedy", "exact", "uniform"), default="greedy"
    )
    p.add_argument("--out", default=None, help="deployment JSON path")
    p.add_argument(
        "--trace-out", default=None, help="greedy trace JSON path"
    )
    p.add_argument("--uniform-n", type=int, default=None)
    p.add_argument("--max-exact-l", type=int, default=6)
    p.add_argument("--max-exact-m", type=int, default=12)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "compare", help="sweep greedy vs exact vs uniform into CSV"
    )
    common(p, alpha_list=True)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--uniform-n", type=int, default=None)
    p.add_argument("--max-exact-l", type=int, default=6)
    p.add_argument("--max-exact-m", type=int, default=12)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("render", help="draw a venue and deployment as SVG")
    p.add_argument("--venue", required=True)
    p.add_argument("--deployment", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--beamwidth-ap", type=float, default=None)
    p.add_argument("--beamwidth-md", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser(
        "validate", help="recompute coverage for a deployment file"
    )
    common(p, alpha_list=False)
    p.add_argument("--deployment", required=True)
    p.add_argument("--mc", action="store_true", help="Monte Carlo check")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shadowing", action="store_true")
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
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (
        VenueFormatError,
        DeploymentValidationError,
        PlanError,
        OSError,
        ValueError,
    ) as exc:
        if isinstance(exc, DeploymentValidationError):
            for v in exc.violations:
                print(f"violation: {v}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
