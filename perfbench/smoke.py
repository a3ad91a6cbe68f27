#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes; exits non-zero on a problem.

    python3 perfbench/smoke.py

Every workload defined in workloads.py, including the two that BENCHMARK.json
does not list, runs once untraced and twice traced on the same seed.  The
test checks that each metric named in BENCHMARK.json is emitted with its
unit, that outputs pass the checks, that the count metrics repeat exactly,
and that the tracer sees calls into the layers each workload is meant to
stress.
"""
from __future__ import annotations

import json
import sys

import run

# workload -> per-layer metrics that must be non-zero on it
STRESSED = {
    "chain40-budget-sweep": (
        "scenario_io.load.calls", "model.validate_graph.calls", "costs.task_costs.calls",
        "schedule.ctx_build.calls", "schedule.core_eval.calls",
        "schedule.check_feasibility.calls", "solvers.greedy.moves_phase2",
        "solvers.sa.proposals", "solvers.sa.restarts", "bench.cells", "bench.write_csv_s",
    ),
    "task-count-sweep": (
        "solvers.greedy.moves_phase2", "solvers.greedy.core_evals_per_move",
        "schedule.core_eval.calls", "bench.write_csv_s",
    ),
    "fig4-compare": ("solvers.brute.placements", "solvers.brute.placements_per_s"),
    "benign-anneal": ("solvers.sa.proposals", "solvers.sa.proposals_per_s"),
}


def main() -> int:
    if not run.add_src_path():
        print("no fogsched sources found", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    traced = {}
    for name in WORKLOADS:
        results = []
        for trace in (False, True, True):
            r = run.run_workload(name, seed=3, seconds=0.2, trace=trace, size="tiny",
                                 report=lambda msg: None)
            results.append(r)
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append(f"{name} trace={trace}: output checks failed")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != units[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(units[trace]))} "
                                f"missing or extra, or units differ")
        a, b = results[1]["metrics"], results[2]["metrics"]
        traced[name] = a
        for key in layers.COUNTS:
            if a[key]["value"] != b[key]["value"]:
                problems.append(f"{name}: count {key} differs between runs on one seed")
        for key in STRESSED[name]:
            if not a[key]["value"] > 0:
                problems.append(f"{name}: tracer saw no work for {key}")
    if traced["fig4-compare"]["solvers.brute.placements"]["value"] != 3 ** 9:
        problems.append("fig4-compare: exhaustive search did not visit 3^9 placements")
    benign = traced["benign-anneal"]
    if benign["solvers.sa.early_stop_frac"]["value"] or benign["solvers.sa.restarts"]["value"]:
        problems.append("benign-anneal: annealing stopped early or restarted")
    for p in problems:
        print(p)
    print("smoke test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
