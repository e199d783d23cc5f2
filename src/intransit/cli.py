"""Command-line surface: validate, relax, solve, benders, compare, generate.

Exit codes: 0 success, 1 the instance fails route validation, 2 usage
error, 3 solver failure. All outputs are deterministic for fixed inputs
and parameters.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

import numpy as np

from . import benders as bd
from .errors import InfeasibleInstanceError, IntransitError, SolverError
from .instance import GeneratorConfig, generate_synthetic, load_instance, save_instance, validate_routes
from .milp import DEFAULT_GAP_TOL, DEFAULT_NODE_LIMIT, MILP_INFEASIBLE, MILP_OPTIMAL, solve_milp
from .model import MODE_EXACT_DAY, MODE_WINDOW, build_mip
from .report import (
    ScenarioReport,
    delivery_histogram,
    consolidation_share,
    export_solution_json,
    scenario_row,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3

DEFAULT_SOLVE_VAR_LIMIT = 200_000


def _mode(arg: str) -> str:
    return MODE_EXACT_DAY if arg == "exact-day" else MODE_WINDOW


def _benders_params(args) -> bd.BendersParams:
    return bd.BendersParams(
        max_iters=args.max_iters, gap_tol=args.gap_tol, node_limit=args.node_limit
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="instance directory")
    p.add_argument("--mode", choices=["window", "exact-day"], default="window")
    p.add_argument("--out", default=None, help="output directory for result files")


def _add_solver_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iters", type=int, default=bd.DEFAULT_MAX_ITERS)
    p.add_argument("--gap-tol", type=float, default=DEFAULT_GAP_TOL)
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intransit",
        description="Multi-period in-transit freight consolidation solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="route diagnostics for an instance")
    p.add_argument("--instance", required=True)

    p = sub.add_parser("relax", help="LP relaxation (containers continuous)")
    _add_common(p)

    p = sub.add_parser("solve", help="monolithic integer solve (small instances)")
    _add_common(p)
    _add_solver_opts(p)
    p.add_argument(
        "--max-vars",
        type=int,
        default=DEFAULT_SOLVE_VAR_LIMIT,
        help="refuse models with more columns than this (use benders instead); "
        "counts the columns of the model this command builds and solves",
    )
    p.add_argument(
        "--node-log", default=None, help="write one CSV row per node LP to this file"
    )

    p = sub.add_parser("benders", help="decomposition solve")
    _add_common(p)
    _add_solver_opts(p)
    p.add_argument("--verbose", action="store_true", help="print the trace")

    p = sub.add_parser("compare", help="relaxation vs both decomposition modes")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", default=None)
    _add_solver_opts(p)

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--products", type=int, default=10)
    p.add_argument("--suppliers", type=int, default=3)
    p.add_argument("--gateways", type=int, default=2)
    p.add_argument("--days", type=int, default=30)
    p.add_argument("--window", type=int, default=9)
    p.add_argument("--weight-min", type=float, default=15.0)
    p.add_argument("--weight-max", type=float, default=40000.0)
    p.add_argument("--capacity", type=float, default=48000.0)
    return parser


def _emit_outputs(out_dir, model, x, objective, trace=None, label="solution") -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    export_solution_json(model, x, objective, out / "solution.json")
    if trace is not None:
        with open(out / "trace.csv", "w", newline="", encoding="utf-8") as fh:
            trace.export_csv(fh)
    report = ScenarioReport(rows=[scenario_row(label, model, x)])
    with open(out / "report.csv", "w", newline="", encoding="utf-8") as fh:
        report.export_csv(fh)
    # histogram only for integral solutions; the relaxation skips it
    t_vals = np.asarray(x)[model.integer_columns]
    if len(t_vals) == 0 or np.abs(t_vals - np.round(t_vals)).max(initial=0.0) <= 1e-6:
        hist = delivery_histogram(model, x)
        with open(out / "histogram.csv", "w", newline="", encoding="utf-8") as fh:
            hist.export_csv(fh)


def _limit_message(status: str, lower: float, upper: float) -> str:
    limit = "node" if status == "node_limit" else "iteration"
    return f"{limit} limit reached: bounds [{lower:,.2f}, {upper:,.2f}]"


def _cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    diag = validate_routes(instance)
    print(f"pickups checked: {diag.checked}")
    if diag.feasible:
        print("all pickups have an in-window route arriving inside the horizon")
        return EXIT_OK
    for issue in diag.issues:
        print(
            f"infeasible pickup ({issue.product}, {issue.supplier}, day {issue.day}): "
            f"{issue.reason}",
            file=sys.stderr,
        )
    return EXIT_INFEASIBLE


def _cmd_relax(args) -> int:
    instance = load_instance(args.instance)
    model = build_mip(instance, _mode(args.mode))
    objective, x, breakdown = bd.relax_model(model)
    print(f"LP relaxation objective: {objective:,.2f}")
    print(
        f"  first leg {breakdown.first_leg:,.2f}  LCL {breakdown.lcl:,.2f}  "
        f"hold {breakdown.hold:,.2f}  FCL {breakdown.fcl:,.2f}  "
        f"fixed pickups {breakdown.fixed_pickup:,.2f}"
    )
    _emit_outputs(args.out, model, x, objective, label="relaxation")
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    model = build_mip(instance, _mode(args.mode))
    if model.num_vars > args.max_vars:
        print(
            f"model has {model.num_vars} variables, above the monolithic limit "
            f"{args.max_vars}; use the benders subcommand",
            file=sys.stderr,
        )
        return EXIT_USAGE
    with contextlib.ExitStack() as stack:
        node_log = None
        if args.node_log is not None:
            node_log = stack.enter_context(
                open(args.node_log, "w", newline="", encoding="utf-8")
            )
        outcome = solve_milp(
            model, gap_tol=args.gap_tol, node_limit=args.node_limit, node_log=node_log
        )
    if outcome.status == MILP_INFEASIBLE:
        raise SolverError("the MILP of a route-valid model is infeasible")
    if outcome.status != MILP_OPTIMAL:
        upper = math.inf if outcome.objective is None else outcome.objective
        print(_limit_message(outcome.status, outcome.bound, upper), file=sys.stderr)
        return EXIT_SOLVER
    print(f"optimal objective: {outcome.objective:,.2f} ({outcome.nodes} nodes)")
    _emit_outputs(args.out, model, outcome.x, outcome.objective, label="monolithic")
    return EXIT_OK


def _cmd_benders(args) -> int:
    instance = load_instance(args.instance)
    result = bd.run_benders(instance, _mode(args.mode), _benders_params(args))
    if not result.proven:
        message = _limit_message(result.status, result.lower_bound, result.upper_bound)
        print(message, file=sys.stderr)
        return EXIT_SOLVER
    print(
        f"optimal objective: {result.objective:,.2f} "
        f"({result.iterations} iterations, {int(result.t_values.sum())} containers)"
    )
    if args.verbose:
        for r in result.trace.records:
            print(
                f"  iter {r.iteration}: lb {r.lower:,.2f} ub {r.upper:,.2f} "
                f"{r.cut_kind or 'no'} cut at {r.candidate} T"
            )
    share = consolidation_share(result.model, result.x_full)
    if share is not None:
        print(f"consolidated (FCL) share of delivered weight: {share:.1%}")
    _emit_outputs(
        args.out, result.model, result.x_full, result.objective,
        trace=result.trace, label=f"benders_{args.mode}",
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    instance = load_instance(args.instance)
    params = _benders_params(args)
    report = ScenarioReport()

    relax_model = build_mip(instance, MODE_WINDOW)
    _, relax_x, _ = bd.relax_model(relax_model)
    report.rows.append(scenario_row("lp_relaxation", relax_model, relax_x))

    results = {}
    for label, mode in (("benders_window", MODE_WINDOW), ("benders_exact_day", MODE_EXACT_DAY)):
        result = bd.run_benders(instance, mode, params)
        if not result.proven:
            message = _limit_message(result.status, result.lower_bound, result.upper_bound)
            print(f"{label}: {message}", file=sys.stderr)
            return EXIT_SOLVER
        report.rows.append(scenario_row(label, result.model, result.x_full))
        results[label] = result

    print(report.format_table())
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.csv", "w", newline="", encoding="utf-8") as fh:
            report.export_csv(fh)
        for label, result in results.items():
            export_solution_json(
                result.model, result.x_full, result.objective, out / f"{label}_solution.json"
            )
            with open(out / f"{label}_trace.csv", "w", newline="", encoding="utf-8") as fh:
                result.trace.export_csv(fh)
            hist = delivery_histogram(result.model, result.x_full)
            with open(out / f"{label}_histogram.csv", "w", newline="", encoding="utf-8") as fh:
                hist.export_csv(fh)
    return EXIT_OK


def _cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        n_products=args.products,
        n_suppliers=args.suppliers,
        n_gateways=args.gateways,
        horizon_days=args.days,
        window_days=args.window,
        weight_min=args.weight_min,
        weight_max=args.weight_max,
        container_capacity=args.capacity,
    )
    instance = generate_synthetic(cfg, args.seed)
    save_instance(instance, args.out)
    print(
        f"wrote instance with {len(instance.products)} products, "
        f"{len(instance.suppliers)} suppliers, {len(instance.gateways)} gateways, "
        f"{instance.horizon_days} days to {args.out}"
    )
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "relax": _cmd_relax,
    "solve": _cmd_solve,
    "benders": _cmd_benders,
    "compare": _cmd_compare,
    "generate": _cmd_generate,
}


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleInstanceError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except IntransitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # a missing instance, or an --out or --node-log path that is a file,
        # a directory or not writable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
