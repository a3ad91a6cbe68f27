"""Experiment harness: seeded runs, parameter sweeps, solver comparison and
scenario diagnostics, all emitting deterministic CSV.

Sweep cells (sweep value x solver x repetition) are independent and may be
computed by a process pool (FOGSCHED_WORKERS, default: the number of CPUs
this process may run on, per its CPU affinity where the OS reports one; a
worker takes 8 cells at a time, so never more workers than the sweep has such
chunks, and none when the sweep has at most 8 cells); rows
are sorted by (sweep_value, solver, seed) before the single writer emits
them, so parallelism never changes the output.  Each sweep value's scenario
is derived from the base scenario once, and the EvalContext of its graph
built, before any cell is solved, so no solve's wall time pays for a build;
a pool worker gets these scenarios, with their contexts, once, when it
starts, and each cell only as (value index, solver, rep), so every cell of
one value solved in one process shares one graph, with its EvalContext and
what the solvers keep on it (see fogsched.solvers); each pool worker keeps
its own copy.
Sweep CSV stores wall_time as 0.0 to keep files byte-identical across runs;
`run` and `compare` report measured wall time, and also build the
scenario's EvalContext before the first solve.
"""
from __future__ import annotations

import csv
import math
import os
import time
import warnings
from copy import copy
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, TextIO, Union

from . import solvers as _solvers
from ._rng import Stream
from .model import (
    SOLVER_KINDS,
    CycleDetected,
    DanglingEdge,
    GraphError,
    Scenario,
    TaskGraph,
    TaskSpec,
    Tier,
    _require_finite,
    _require_int,
    _to_int,
    solver_kind,
)
from .scenario_io import load_scenario, parse_scenario, resolve_scenario_path
from .schedule import (TIME_TOL, DerivedValueError, _core_eval, check_feasibility,
                       eval_context, evaluate)

SWEEP_PARAMETERS = ("data_size", "budget", "fog_price", "task_count")
SOLVER_NAMES = tuple(SOLVER_KINDS)


@dataclass(frozen=True)
class ResultRow:
    """One solve, flattened for the CSV tables; `wall_time` spans the
    `solvers.solve` call, which returned or raised.  A solve that raised
    keeps the defaults after its identity: NaN metrics, zero counts,
    infeasible, and its `wall_time` and its `error`."""

    scenario_id: str
    solver: str
    seed: int
    n_tasks: int
    sweep_value: float
    makespan: float = math.nan
    sum_finish: float = math.nan
    total_cost: float = math.nan
    fog_utility: float = math.nan
    cloud_utility: float = math.nan
    n_local: int = 0
    n_fog: int = 0
    n_cloud: int = 0
    feasible: bool = False
    iterations: int = 0
    wall_time: float = 0.0
    error: str = ""


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter sweep: `steps` evenly spaced values in [start, stop].

    `data_size` scales every task's workload and data size by the sweep value
    (a multiplicative factor); `budget` and `fog_price` set those parameters
    directly; `task_count` regenerates a chain of round(value) tasks whose
    workload = data_size is drawn i.i.d. uniformly from [100, 1000], and
    refuses a start that rounds below 1.
    """

    parameter: str
    start: float
    stop: float
    steps: int
    reps: int = 1
    solvers: tuple[str, ...] = ("greedy",)

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"parameter must be one of {SWEEP_PARAMETERS}")
        _require_int(self, ("steps", "reps"), 1)
        _require_finite("sweep ", self, ("start", "stop"))
        if self.start > self.stop:
            raise ValueError("start must be <= stop")
        if self.parameter == "task_count" and round(self.start) < 1:
            raise ValueError(f"task_count start {self.start!r} rounds to fewer than 1 task")
        if not self.solvers:
            raise ValueError("solvers must name at least one solver")
        bad = [s for s in self.solvers if s not in SOLVER_NAMES]
        if bad:
            raise ValueError(f"unknown solvers {bad}")
        if len(set(self.solvers)) < len(self.solvers):
            raise ValueError(f"solvers must not repeat, got {list(self.solvers)}")

    def values(self) -> list[float]:
        """numpy.linspace(start, stop, steps), with its float arithmetic."""
        start, stop = float(self.start), float(self.stop)
        if self.steps == 1:
            return [start]
        div = self.steps - 1
        delta = stop - start
        step = delta / div
        if step == 0:
            # linspace scales by delta after dividing when the step underflows
            values = [i / div * delta + start for i in range(self.steps)]
        else:
            values = [i * step + start for i in range(self.steps)]
        values[-1] = stop
        return values


@dataclass(frozen=True)
class Diagnostics:
    """Structural report from `validate`."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _solver_config(name: str):
    """The configuration of the solver named `name`."""
    if name not in SOLVER_KINDS:
        raise ValueError(f"unknown solver {name!r}")
    return SOLVER_KINDS[name]()


def _solve_one(
    scenario: Scenario,
    scenario_id: str,
    solver: str,
    seed: int,
    sweep_value: float,
    verify: bool,
) -> ResultRow:
    scn = replace(scenario, seed=seed, solver_config=_solver_config(solver))
    row = partial(ResultRow, scenario_id, solver, seed, len(scn.graph), sweep_value)
    t_start = time.perf_counter()
    try:
        outcome = _solvers.solve(scn)
    except (_solvers.SolverError, GraphError) as exc:
        return row(wall_time=time.perf_counter() - t_start,
                   error=f"{type(exc).__name__}: {exc}")
    wall_time = time.perf_counter() - t_start
    r = outcome.result
    if verify:
        again = evaluate(scn.graph, outcome.placement, scn.platform)
        report = check_feasibility(again, scn)
        if again != r or report.feasible != outcome.feasible:
            raise AssertionError(
                f"verification failed for {scenario_id}/{solver}/{seed}: the solver's "
                f"outcome (feasible={outcome.feasible}) differs from a fresh evaluation "
                f"and check (violations {report.violations})"
            )
    tiers = r.tiers
    return row(
        makespan=r.makespan,
        sum_finish=r.sum_finish,
        total_cost=r.total_cost,
        fog_utility=r.fog_utility,
        cloud_utility=r.cloud_utility,
        n_local=tiers.count(Tier.LOCAL),
        n_fog=tiers.count(Tier.FOG),
        n_cloud=tiers.count(Tier.CLOUD),
        feasible=outcome.feasible,
        iterations=outcome.iterations,
        wall_time=wall_time,
    )


def _load(scenario_path: Union[str, Path], seed: Optional[int]) -> tuple[Scenario, str, int]:
    """The scenario at `scenario_path` (a path or a bundled file name), its
    id (the file's stem) and the base seed: `seed`, else the scenario's own."""
    path = resolve_scenario_path(scenario_path)
    scenario = load_scenario(path)
    return scenario, path.stem, scenario.seed if seed is None else _to_int("seed", seed)


def run(
    scenario_path: Union[str, Path],
    solver: Optional[str] = None,
    seed: Optional[int] = None,
    reps: int = 1,
    verify: bool = False,
) -> list[ResultRow]:
    """Solve one scenario `reps` times with seeds seed, seed+1, ...

    Solver errors are recorded per row (feasible=false, error column) rather
    than aborting the batch.
    """
    reps = _to_int("reps", reps, 1)
    scenario, scenario_id, base_seed = _load(scenario_path, seed)
    # built before the first solve, so that no solve's wall time pays for it
    eval_context(scenario.graph, scenario.platform)
    solver_name = solver or solver_kind(scenario.solver_config)
    return [
        _solve_one(scenario, scenario_id, solver_name, base_seed + r, math.nan, verify)
        for r in range(reps)
    ]


# lo, hi of the uniform range a task_count sweep draws each task's size from
_TASK_SIZES = (100.0, 1000.0)


def _chain_graph(sizes: Sequence[float]) -> TaskGraph:
    tasks = [
        TaskSpec(id=i + 1, workload=float(s), data_size=float(s))
        for i, s in enumerate(sizes)
    ]
    edges = [(i, i + 1) for i in range(1, len(tasks))]
    return TaskGraph(tasks, edges)


def _apply_sweep_value(
    base: Scenario, spec: SweepSpec, value: float, value_index: int
) -> Scenario:
    if spec.parameter == "data_size":
        tasks = [
            TaskSpec(id=t.id, workload=t.workload * value, data_size=t.data_size * value)
            for t in base.graph.tasks
        ]
        return replace(base, graph=TaskGraph(tasks, base.graph.edges))
    if spec.parameter == "budget":
        return replace(base, budget=value)
    if spec.parameter == "fog_price":
        fog = replace(base.platform.fog, price=value)
        # a graph keeps one context, so each platform gets its own copy of
        # the graph, which shares the graph's structure
        return replace(base, graph=copy(base.graph), platform=replace(base.platform, fog=fog))
    # task_count: fresh chain per sweep value, sizes from a dedicated stream
    n = round(value)
    rng = Stream(base.seed, (1000, value_index))
    lo, hi = _TASK_SIZES
    sizes = [lo + (hi - lo) * u for u in rng.random(n)]
    return replace(base, graph=_chain_graph(sizes))


class _SweepCells:
    """Solves the cells of one sweep, each given as (value index, solver,
    rep), against the scenario of each sweep value, derived once from the
    base scenario, so that every cell of a value shares its graph and the
    graph's EvalContext.  Each value's context is built here, before the
    first cell, so no solve's wall time pays for it and pool workers get
    it with the scenarios."""

    def __init__(self, base: Scenario, spec: SweepSpec, scenario_id: str, verify: bool):
        self.seed, self.scenario_id, self.verify = base.seed, scenario_id, verify
        self.values = spec.values()
        self.scenarios = []
        for vi, value in enumerate(self.values):
            scenario = _apply_sweep_value(base, spec, value, vi)
            eval_context(scenario.graph, scenario.platform)
            self.scenarios.append(scenario)

    def __call__(self, cell) -> ResultRow:
        value_index, solver, rep = cell
        return _solve_one(self.scenarios[value_index], self.scenario_id, solver,
                          self.seed + rep, self.values[value_index], self.verify)


# the sweep of a pool worker process, set once when the worker starts
_worker_cells: Optional[_SweepCells] = None


def _init_worker(cells: _SweepCells) -> None:
    global _worker_cells
    _worker_cells = cells


def _worker_cell(cell) -> ResultRow:
    """Solve one cell of the sweep given to this worker by _init_worker."""
    return _worker_cells(cell)


def _worker_count(workers: Optional[int]) -> int:
    if workers is not None:
        return workers
    env = os.environ.get("FOGSCHED_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"FOGSCHED_WORKERS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# cells a pool worker takes at a time
_CHUNKSIZE = 8


def sweep(
    scenario_path: Union[str, Path],
    spec: SweepSpec,
    out_path: Union[str, Path],
    verify: bool = False,
    workers: Optional[int] = None,
) -> list[ResultRow]:
    """Run a parameter sweep and write one CSV file.

    The source scenario file is never modified; each sweep value derives
    its scenario from it once.  Output rows are sorted by (sweep_value,
    solver, seed).  An `out_path` that cannot be written fails before the
    first solve (`check_out_path`), and so does a `workers` that is not an
    int >= 1; a given `workers` takes the place of FOGSCHED_WORKERS.
    """
    check_out_path(out_path)
    if workers is not None:
        workers = _to_int("workers", workers, 1)
    base, scenario_id, _ = _load(scenario_path, None)
    solve_cell = _SweepCells(base, spec, scenario_id, verify)
    cells = [
        (vi, solver, rep)
        for vi in range(len(solve_cell.values))
        for solver in spec.solvers
        for rep in range(spec.reps)
    ]
    # a worker that would get no chunk is not started
    n_workers = min(_worker_count(workers), math.ceil(len(cells) / _CHUNKSIZE))
    if n_workers > 1:
        # imported here: the pool pulls in multiprocessing (about 1 MB of
        # modules), which run, compare and validate never use
        from concurrent.futures import ProcessPoolExecutor

        # each worker gets the value scenarios once, so it keeps one graph,
        # one EvalContext, with what the solvers keep on it, per sweep value
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_worker, initargs=(solve_cell,)
        ) as pool:
            rows = list(pool.map(_worker_cell, cells, chunksize=_CHUNKSIZE))
    else:
        rows = list(map(solve_cell, cells))
    rows.sort(key=lambda r: (r.sweep_value, r.solver, r.seed))
    # the file zeroes the wall-clock column so identical inputs give
    # byte-identical output; callers still get the measured values
    write_csv([replace(r, wall_time=0.0) for r in rows], out_path)
    return rows


def compare(
    scenario_path: Union[str, Path], seed: Optional[int] = None, reps: int = 1
) -> dict:
    """Run greedy, sa and brute on the same scenario and report mean makespan
    per solver and the relative gap (solver - brute) / brute."""
    reps = _to_int("reps", reps, 1)
    scenario, scenario_id, base_seed = _load(scenario_path, seed)
    # built before the first solve, so that no solve's wall time pays for it
    eval_context(scenario.graph, scenario.platform)
    summary: dict = {"scenario_id": scenario_id, "seed": base_seed, "reps": reps, "solvers": {}}
    means: dict[str, float] = {}
    for solver in SOLVER_NAMES:
        rows = [
            _solve_one(scenario, scenario_id, solver, base_seed + r, math.nan, False)
            for r in range(reps)
        ]
        errors = sorted({r.error for r in rows if r.error})
        mean_makespan = (
            math.nan if errors else sum(r.makespan for r in rows) / len(rows)
        )
        means[solver] = mean_makespan
        summary["solvers"][solver] = {
            "mean_makespan": mean_makespan,
            "mean_total_cost": (
                math.nan if errors else sum(r.total_cost for r in rows) / len(rows)
            ),
            "feasible_fraction": sum(1 for r in rows if r.feasible) / len(rows),
            "mean_wall_time": sum(r.wall_time for r in rows) / len(rows),
            "errors": errors,
        }
    brute_mean = means["brute"]
    for solver in SOLVER_NAMES:
        gap = math.nan
        if not math.isnan(brute_mean) and brute_mean != 0 and not math.isnan(means[solver]):
            gap = (means[solver] - brute_mean) / brute_mean
        summary["solvers"][solver]["gap_vs_brute"] = gap
    return summary


def validate(scenario_path: Union[str, Path]) -> Diagnostics:
    """Structural diagnostics: graph checks, derived quantities the model
    cannot use (DerivedValueError), parameter-range warnings and a
    budget-versus-minimum-cost prescreen, which warns only when the
    cheapest placement's evaluated cost exceeds the budget by more than
    C7's TIME_TOL.  Parse failures raise ParseError."""
    path = resolve_scenario_path(scenario_path)
    text = path.read_text(encoding="utf-8")
    errors: list[str] = []
    warnings_: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            scenario = parse_scenario(text)
        except (CycleDetected, DanglingEdge) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            return Diagnostics(errors=tuple(errors), warnings=tuple(warnings_))
        # ParseError propagates: an unreadable file is not a diagnosable scenario.
    for w in caught:
        warnings_.append(str(w.message))

    try:
        ctx = eval_context(scenario.graph, scenario.platform)
    except DerivedValueError as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
        return Diagnostics(errors=tuple(errors), warnings=tuple(warnings_))
    if math.isfinite(scenario.budget):
        # the evaluated cost of the cheapest placement, each task on its
        # cheapest tier, against the budget as C7 reads it
        cheapest = [min(Tier, key=lambda t: ctx.cost[t][i]) for i in range(ctx.n)]
        floor = _core_eval(ctx, cheapest).total_cost
        if floor > scenario.budget + TIME_TOL:
            warnings_.append(
                f"likely infeasible: cheapest per-task assignment already costs "
                f"{floor!r}, above the budget {scenario.budget!r}"
            )

    return Diagnostics(errors=tuple(errors), warnings=tuple(warnings_))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_rows(rows: Sequence[ResultRow], fh: TextIO) -> None:
    """Write a header row and `rows` in the fixed column order to a text
    stream, with LF endings."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_format_value(getattr(row, col)) for col in CSV_COLUMNS])


def check_out_path(path: Union[str, Path]) -> None:
    """Raise FileNotFoundError when the directory of `path` does not exist
    and IsADirectoryError when `path` names a directory, so that a batch
    can fail before its first solve rather than at its write."""
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"no directory {str(path.parent)!r} to write {str(path)!r} in")
    if path.is_dir():
        raise IsADirectoryError(f"{str(path)!r} is a directory, not a file to write")


def write_csv(rows: Sequence[ResultRow], path: Union[str, Path]) -> Path:
    """Write rows as by `write_rows` to a UTF-8 file."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_rows(rows, fh)
    return path
