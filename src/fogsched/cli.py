"""Command-line experiment runner.

Subcommands: run, sweep, compare, validate.  Exit code 0 on a completed
batch (even when individual rows record solver errors), 2 on parse or
validation failure or an output file that cannot be written; a `--out`
whose directory does not exist, or that names a directory, fails before the
first solve.
"""
from __future__ import annotations

import argparse
import sys

from . import bench
from .model import GraphError
from .scenario_io import ParseError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogsched",
        description="Device/fog/cloud DAG offloading experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one scenario, print or write result rows")
    p_run.add_argument("--scenario", required=True, help="scenario file (or bundled name)")
    p_run.add_argument("--solver", choices=bench.SOLVER_NAMES, default=None)
    p_run.add_argument("--seed", type=int, default=None, help="base seed (default: scenario's)")
    p_run.add_argument("--reps", type=int, default=1)
    p_run.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_run.add_argument("--verify", action="store_true",
                       help="fail unless each solved row matches a fresh evaluation")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep, write a CSV table")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--param", required=True, choices=bench.SWEEP_PARAMETERS)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--reps", type=int, default=1)
    p_sweep.add_argument(
        "--solvers",
        default="greedy",
        help=f"comma-separated list ({','.join(bench.SOLVER_NAMES)})",
    )
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument(
        "--task-size-range",
        default="100,1000",
        help="lo,hi uniform range for task_count sweeps",
    )
    p_sweep.add_argument("--verify", action="store_true",
                         help="fail unless each solved row matches a fresh evaluation")

    p_cmp = sub.add_parser("compare", help="greedy vs sa vs brute on one scenario")
    p_cmp.add_argument("--scenario", required=True)
    p_cmp.add_argument("--seed", type=int, default=None)
    p_cmp.add_argument("--reps", type=int, default=1)

    p_val = sub.add_parser("validate", help="structural diagnostics for a scenario file")
    p_val.add_argument("--scenario", required=True)

    return parser


def _cmd_run(args) -> int:
    if args.out:
        bench.check_out_path(args.out)
    rows = bench.run(
        args.scenario,
        solver=args.solver,
        seed=args.seed,
        reps=args.reps,
        verify=args.verify,
    )
    if args.out:
        bench.write_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        bench.write_rows(rows, sys.stdout)
    return 0


def _task_size_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:
        raise ValueError(f"--task-size-range must be two numbers lo,hi, got {text!r}") from None
    return lo, hi


def _cmd_sweep(args) -> int:
    lo, hi = _task_size_range(args.task_size_range)
    spec = bench.SweepSpec(
        parameter=args.param,
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        reps=args.reps,
        solvers=tuple(s.strip() for s in args.solvers.split(",") if s.strip()),
        task_size_range=(lo, hi),
    )
    rows = bench.sweep(args.scenario, spec, args.out, verify=args.verify)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    summary = bench.compare(args.scenario, seed=args.seed, reps=args.reps)
    print(f"scenario {summary['scenario_id']} (seed {summary['seed']}, reps {summary['reps']})")
    header = f"{'solver':<8} {'mean makespan':>16} {'gap vs brute':>14} {'mean cost':>14} {'feasible':>9}"
    print(header)
    for solver, stats in summary["solvers"].items():
        gap = stats["gap_vs_brute"]
        gap_s = f"{gap:+.2%}" if gap == gap else "n/a"
        mk = stats["mean_makespan"]
        mk_s = f"{mk:.6g}" if mk == mk else "error"
        cost = stats["mean_total_cost"]
        cost_s = f"{cost:.6g}" if cost == cost else "n/a"
        print(f"{solver:<8} {mk_s:>16} {gap_s:>14} {cost_s:>14} {stats['feasible_fraction']:>9.0%}")
        for err in stats["errors"]:
            print(f"  {solver}: {err}")
    return 0


def _cmd_validate(args) -> int:
    diag = bench.validate(args.scenario)
    for msg in diag.errors:
        print(f"error: {msg}")
    for msg in diag.warnings:
        print(f"warning: {msg}")
    if diag.ok:
        print("scenario ok")
        return 0
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "compare": _cmd_compare,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
