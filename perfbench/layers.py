"""Which fogsched names the traced run wraps, and the per-layer metrics read
back from the spans of one batch."""
from __future__ import annotations

from collections import defaultdict

from fogsched import bench, costs, model, scenario_io, schedule, solvers

from tracer import Tracer


def _greedy_call(fn, span, args, kwargs):
    # greedy records (phase, task id, cost) per repair move when given a list
    moves = kwargs.get("trace")
    if moves is None:
        moves = []
        kwargs = {**kwargs, "trace": moves}
    try:
        return fn(*args, **kwargs)
    finally:
        span[5] = [sum(m[0] == 2 for m in moves), sum(m[0] == 3 for m in moves)]


def _full_anneal_length(cfg: model.SAConfig) -> int:
    """Proposals in one annealing run that cools to t_stop without stopping
    early; the same float steps as the solver's loop."""
    n = 0
    tem = cfg.t0
    while tem > cfg.t_stop:
        tem *= cfg.cool
        n += 1
    return n


def _sa_call(fn, span, args, kwargs):
    scenario = args[0] if args else kwargs["scenario"]
    span[5] = [_full_anneal_length(scenario.solver_config), False]
    try:
        return fn(*args, **kwargs)
    except solvers.RestartsExhausted:
        span[5][1] = True
        raise


def install(tracer: Tracer) -> None:
    """Wrap one boundary per layer; the names read back in `metrics`."""
    tracer.trace_function(scenario_io, "load_scenario", "scenario_io.load")
    tracer.trace_function(model, "validate_graph", "model.validate_graph")
    tracer.trace_function(costs, "task_costs", "costs.task_costs")
    tracer.trace_init(schedule.EvalContext, "schedule.ctx_build", info=lambda ctx: ctx.n)
    tracer.trace_function(schedule, "_core_eval", "schedule.core_eval",
                          info=lambda a, k, r: a[0].n)
    tracer.trace_function(schedule, "check_feasibility", "schedule.check_feasibility")
    tracer.trace_function(solvers, "greedy_solve", "solvers.greedy", call=_greedy_call)
    tracer.trace_function(solvers, "sa_solve", "solvers.sa", call=_sa_call)
    tracer.trace_function(solvers, "metropolis_accept", "solvers.metropolis",
                          info=lambda a, k, r: bool(r))
    tracer.trace_function(solvers, "brute_force_solve", "solvers.brute")
    tracer.trace_function(bench, "write_csv", "bench.write_csv")


def _anneal_runs(children: list[list], success: bool) -> list[int]:
    """Proposals per annealing run of one sa_solve call.

    Each run evaluates its random start, then one candidate per proposal
    (evaluation followed by the Metropolis test); a successful solve ends
    with one more evaluation of the returned placement.
    """
    seq = [s[2] for s in children if s[2] in ("schedule.core_eval", "solvers.metropolis")]
    if success and seq:
        last = len(seq) - 1 - seq[::-1].index("schedule.core_eval")
        del seq[last]
    runs: list[int] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i + 1] == "solvers.metropolis":
            runs[-1] += 1
            i += 2
        else:
            runs.append(0)
            i += 1
    return runs


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def metrics(tracer: Tracer, rows) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced batch whose solves produced `rows`."""
    st = tracer.self_times()

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    children = defaultdict(list)
    for s in tracer.spans:
        children[s[1]].append(s)

    n_solves = len(rows)
    tasks_solved = sum(r.n_tasks for r in rows)
    ctx_tasks = sum(s[5] for s in tracer.spans if s[2] == "schedule.ctx_build")
    eval_tasks = sum(s[5] for s in tracer.spans if s[2] == "schedule.core_eval")

    greedy_moves = [0, 0]
    greedy_evals = 0
    sa_prop = sa_acc = sa_restarts = sa_exhausted = runs_total = runs_early = 0
    brute_placements = 0
    for s in tracer.spans:
        kids = children[s[0]]
        success = any(k[2] == "schedule.check_feasibility" for k in kids)
        if s[2] == "solvers.greedy":
            greedy_moves[0] += s[5][0]
            greedy_moves[1] += s[5][1]
            greedy_evals += sum(k[2] == "schedule.core_eval" for k in kids)
        elif s[2] == "solvers.sa":
            full, exhausted = s[5]
            sa_exhausted += exhausted
            props = [k for k in kids if k[2] == "solvers.metropolis"]
            sa_prop += len(props)
            sa_acc += sum(bool(k[5]) for k in props)
            runs = _anneal_runs(kids, success)
            runs_total += len(runs)
            runs_early += sum(r < full for r in runs)
            sa_restarts += max(0, len(runs) - 1)
        elif s[2] == "solvers.brute":
            brute_placements += sum(k[2] == "schedule.core_eval" for k in kids) - success
    moves = greedy_moves[0] + greedy_moves[1]
    infeasible = sum(r.error.startswith("Infeasible") for r in rows)

    return {
        "scenario_io.load.calls": (calls("scenario_io.load"), "count"),
        "scenario_io.load.self_s": (self_s("scenario_io.load"), "s"),
        "model.validate_graph.calls": (calls("model.validate_graph"), "count"),
        "model.validate_graph.self_s": (self_s("model.validate_graph"), "s"),
        "costs.task_costs.calls": (calls("costs.task_costs"), "count"),
        "costs.task_costs.per_task_solve": (_ratio(calls("costs.task_costs"), tasks_solved), "ratio"),
        "costs.task_costs.self_s": (self_s("costs.task_costs"), "s"),
        "schedule.ctx_build.calls": (calls("schedule.ctx_build"), "count"),
        "schedule.ctx_build.per_solve": (_ratio(calls("schedule.ctx_build"), n_solves), "ratio"),
        "schedule.ctx_build.us_per_task": (_ratio(total("schedule.ctx_build"), ctx_tasks) * 1e6, "us"),
        "schedule.ctx_build.self_s": (self_s("schedule.ctx_build"), "s"),
        "schedule.core_eval.calls": (calls("schedule.core_eval"), "count"),
        "schedule.core_eval.ns_per_task": (_ratio(total("schedule.core_eval"), eval_tasks) * 1e9, "ns"),
        "schedule.core_eval.self_s": (self_s("schedule.core_eval"), "s"),
        "schedule.check_feasibility.calls": (calls("schedule.check_feasibility"), "count"),
        "schedule.check_feasibility.self_s": (self_s("schedule.check_feasibility"), "s"),
        "solvers.greedy.self_s": (self_s("solvers.greedy"), "s"),
        "solvers.greedy.moves_phase2": (greedy_moves[0], "count"),
        "solvers.greedy.moves_phase3": (greedy_moves[1], "count"),
        "solvers.greedy.core_evals_per_move": (_ratio(greedy_evals, moves), "ratio"),
        "solvers.sa.proposals": (sa_prop, "count"),
        "solvers.sa.proposals_per_s": (_ratio(sa_prop, total("solvers.sa")), "1/s"),
        "solvers.sa.restarts": (sa_restarts, "count"),
        "solvers.sa.restarts_exhausted": (sa_exhausted, "count"),
        "solvers.sa.accept_ratio": (_ratio(sa_acc, sa_prop), "ratio"),
        "solvers.sa.early_stop_frac": (_ratio(runs_early, runs_total), "ratio"),
        "solvers.brute.placements": (brute_placements, "count"),
        "solvers.brute.placements_per_s": (_ratio(brute_placements, total("solvers.brute")), "1/s"),
        "bench.cells": (n_solves, "count"),
        "bench.rows_infeasible": (infeasible, "count"),
        "bench.write_csv_s": (total("bench.write_csv"), "s"),
    }


# count metrics that must repeat exactly between two traced batches
COUNTS = (
    "scenario_io.load.calls",
    "model.validate_graph.calls",
    "costs.task_costs.calls",
    "schedule.ctx_build.calls",
    "schedule.core_eval.calls",
    "schedule.check_feasibility.calls",
    "solvers.greedy.moves_phase2",
    "solvers.greedy.moves_phase3",
    "solvers.sa.proposals",
    "solvers.sa.restarts",
    "solvers.sa.restarts_exhausted",
    "solvers.brute.placements",
    "bench.cells",
    "bench.rows_infeasible",
)
