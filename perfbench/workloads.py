"""The four benchmark workloads, each a closed loop of CLI-equivalent calls.

A workload prepares its scenario files from the seed, then runs batches: one
batch is one `fogsched` CLI invocation's worth of work, made through the
`fogsched.bench` entry point the CLI calls, so the measured per-solve wall
times stay available.  Every batch of a run repeats the same inputs.  The
output checks run outside the timed region and drive the CLI itself.

BENCHMARK.json lists `chain40-budget-sweep` and `fig4-compare`, the gated
workloads.  `task-count-sweep` and `benign-anneal` stay runnable by name (and
in the smoke test) for per-layer counts on greedy repair and full annealing,
but are not gated: see README.md for why.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from fogsched import bench, cli, scenario_io
from fogsched.model import SAConfig, Scenario, TaskGraph, TaskSpec

# Solver errors that are model outcomes, not benchmark failures.
EXPECTED_ERRORS = ("Infeasible", "RestartsExhausted")


class Solve(NamedTuple):
    """One solve as the benchmark scores it."""

    solver: str
    n_tasks: int
    makespan: float
    feasible: bool
    wall_time: float
    error: str


@dataclass
class Batch:
    solves: list[Solve]
    # digest of the batch's deterministic output: equal across batches of a run
    fingerprint: str
    # per-solve wall times (s) the solve_ms deciles are taken over
    samples: list[float]
    rows: list = field(default_factory=list)
    csv_bytes: bytes = b""

    def drop_outputs(self) -> None:
        """Keep only what the metrics need, so later batches do not grow
        the process (and the pool workers forked from it)."""
        self.rows = []
        self.csv_bytes = b""


def _digest(items) -> str:
    # repr, so NaN fields of error rows compare equal
    return hashlib.sha256(repr(tuple(items)).encode()).hexdigest()


@dataclass
class Prepared:
    work: Path
    seed: int
    size: dict
    paths: list[Path] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    # the timed run uses the pinned sweep pool; traced batches are single-process
    pooled: bool
    sizes: dict  # "full" and "tiny" parameter sets
    prepare: Callable[[Prepared], None]
    batch: Callable[[Prepared, int], Batch]
    # runs the CLI on the same inputs; returns (failed rows, messages)
    check: Callable[[Prepared, Batch], tuple[int, list[str]]]


def _deterministic(row: bench.ResultRow) -> tuple:
    return tuple(getattr(row, c) for c in bench.CSV_COLUMNS if c != "wall_time")


def _solves(rows) -> list[Solve]:
    return [
        Solve(r.solver, r.n_tasks, r.makespan, r.feasible, r.wall_time, r.error)
        for r in rows
    ]


def _timed(rows) -> list[float]:
    """Measured per-solve wall times: an error row's wall_time is a 0
    placeholder, not a measurement, so it is left out."""
    return [r.wall_time for r in rows if not r.error]


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@contextlib.contextmanager
def _workers_env(n: int):
    old = os.environ.get("FOGSCHED_WORKERS")
    os.environ["FOGSCHED_WORKERS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["FOGSCHED_WORKERS"]
        else:
            os.environ["FOGSCHED_WORKERS"] = old


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the fogsched CLI in-process; a raised verification error is a
    failed check, reported as exit code 1."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except AssertionError as exc:
        return 1, f"{out.getvalue()}verification failed: {exc}"
    return code, out.getvalue()


def _seeded_copy(prep: Prepared, bundled: str) -> Path:
    """The bundled scenario with the run's seed, written under the same stem
    so rows keep the bundled scenario id."""
    base = scenario_io.load_scenario(scenario_io.bundled_scenario(bundled))
    path = prep.work / bundled
    scenario_io.save_scenario(replace(base, seed=prep.seed), path)
    return path


# -- sweeps -------------------------------------------------------------------


def _sweep_spec(size: dict) -> bench.SweepSpec:
    return bench.SweepSpec(
        parameter=size["param"],
        start=size["from"],
        stop=size["to"],
        steps=size["steps"],
        reps=size["reps"],
        solvers=tuple(size["solvers"]),
    )


def _prepare_chain40(prep: Prepared) -> None:
    prep.paths = [_seeded_copy(prep, "chain40.scn")]


def _sweep_batch(prep: Prepared, workers: int) -> Batch:
    out = prep.work / "sweep.csv"
    rows = bench.sweep(prep.paths[0], _sweep_spec(prep.size), out, workers=workers)
    return Batch(_solves(rows), _digest(_deterministic(r) for r in rows),
                 _timed(rows), rows, out.read_bytes())


def _sweep_check(prep: Prepared, first: Batch) -> tuple[int, list[str]]:
    """A serial `fogsched sweep --verify` must write the same bytes."""
    s = prep.size
    ref = prep.work / "sweep-serial.csv"
    argv = [
        "sweep", "--scenario", str(prep.paths[0]), "--param", s["param"],
        "--from", repr(float(s["from"])), "--to", repr(float(s["to"])),
        "--steps", str(s["steps"]), "--reps", str(s["reps"]),
        "--solvers", ",".join(s["solvers"]), "--out", str(ref), "--verify",
    ]
    with _workers_env(1):
        code, text = _cli(argv)
    n_rows = len(first.solves)
    if code != 0:
        return sum(x.feasible for x in first.solves) or n_rows, [f"serial sweep: {text.strip()}"]
    got = first.csv_bytes.splitlines()
    want = ref.read_bytes().splitlines()
    if got == want:
        return 0, []
    diff = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
    return min(diff, n_rows), [f"pooled CSV differs from the serial run on {diff} lines"]


# -- compare ------------------------------------------------------------------


def _prepare_fig4(prep: Prepared) -> None:
    prep.paths = [_seeded_copy(prep, "fig4.scn")]


def _compare_batch(prep: Prepared, workers: int) -> Batch:
    del workers  # compare is serial
    summary = bench.compare(prep.paths[0], reps=prep.size["reps"])
    solves = []
    fp = []
    for solver, st in summary["solvers"].items():
        err = ";".join(st["errors"])
        # reps=1, so the means are the single solve's values
        solves.append(
            Solve(solver, 9, st["mean_makespan"], st["feasible_fraction"] == 1.0,
                  st["mean_wall_time"], err)
        )
        fp.append((solver, st["mean_makespan"], st["mean_total_cost"],
                   st["feasible_fraction"], st["gap_vs_brute"], err))
    # compare reports one mean wall time per solver, so the call's sample is
    # its mean per-solve time; the three solvers' times differ by 300x, and
    # deciles over them would only tell which solver sits in the middle
    return Batch(solves, _digest(fp), [sum(s.wall_time for s in solves) / len(solves)])


def _compare_check(prep: Prepared, first: Batch) -> tuple[int, list[str]]:
    """Verified `fogsched run` rows must match the compare table, and the
    exhaustive optimum must not exceed any feasible heuristic makespan."""
    failed = 0
    msgs = []
    reps = prep.size["reps"]
    by_solver = {s.solver: s for s in first.solves}
    rows = {}
    for solver in bench.SOLVER_NAMES:
        ref = prep.work / f"run-{solver}.csv"
        code, text = _cli(["run", "--scenario", str(prep.paths[0]), "--solver", solver,
                           "--reps", str(reps), "--out", str(ref), "--verify"])
        if code != 0:
            failed += 1
            msgs.append(f"run --solver {solver}: {text.strip()}")
            continue
        rows[solver] = _read_rows(ref)
        got = by_solver.get(solver)
        mean = sum(float(r["makespan"]) for r in rows[solver]) / len(rows[solver])
        if got is None or not _same(got.makespan, mean):
            failed += 1
            msgs.append(f"{solver}: compare makespan {got and got.makespan!r} != run {mean!r}")
    brute = [float(r["makespan"]) for r in rows.get("brute", ()) if r["feasible"] == "true"]
    if brute:
        opt = min(brute)
        for solver in ("greedy", "sa"):
            for r in rows.get(solver, ()):
                if r["feasible"] == "true" and float(r["makespan"]) < opt:
                    failed += 1
                    msgs.append(f"{solver} makespan {r['makespan']} beats the exhaustive optimum {opt!r}")
    else:
        failed += 1
        msgs.append("exhaustive search returned no feasible optimum")
    return failed, msgs


# -- annealing on benign scenarios ---------------------------------------------


def _benign_scenario(n: int, rng: np.random.Generator, seed: int) -> Scenario:
    """A random DAG in which every offload pays: chain40's platform (fog and
    cloud earn a margin per task), free forwarding, and no budget, so the
    annealer never stops early and never restarts."""
    base = scenario_io.load_scenario(scenario_io.bundled_scenario("chain40.scn"))
    sizes = rng.uniform(100.0, 1000.0, size=n)
    tasks = [TaskSpec(id=i + 1, workload=float(s), data_size=float(s)) for i, s in enumerate(sizes)]
    edges = []
    for j in range(2, n + 1):
        window = list(range(max(1, j - 8), j))
        k = min(len(window), int(rng.integers(1, 4)))
        edges += [(int(a), j) for a in rng.choice(window, size=k, replace=False)]
    return Scenario(
        graph=TaskGraph(tasks, edges),
        platform=replace(base.platform, fog_forward_power=0.0),
        budget=math.inf,
        seed=seed,
        solver_config=SAConfig(),
    )


def _prepare_benign(prep: Prepared) -> None:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=prep.seed, spawn_key=(7,)))
    prep.paths = []
    for n in prep.size["task_counts"]:
        path = prep.work / f"benign{n}.scn"
        scenario_io.save_scenario(_benign_scenario(n, rng, prep.seed), path)
        prep.paths.append(path)


def _run_batch(prep: Prepared, workers: int) -> Batch:
    del workers  # run is serial
    rows = []
    for path in prep.paths:
        rows += bench.run(path, solver="sa", reps=prep.size["reps"])
    return Batch(_solves(rows), _digest(_deterministic(r) for r in rows),
                 _timed(rows), rows)


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _run_check(prep: Prepared, first: Batch) -> tuple[int, list[str]]:
    """`fogsched run --verify` must give the timed rows, wall time aside."""
    want = []
    msgs = []
    for i, path in enumerate(prep.paths):
        ref = prep.work / f"run{i}.csv"
        code, text = _cli(["run", "--scenario", str(path), "--solver", "sa",
                           "--reps", str(prep.size["reps"]), "--out", str(ref), "--verify"])
        if code != 0:
            return len(first.solves), [f"run {path.name}: {text.strip()}"]
        want += _read_rows(ref)
    got = _read_rows(bench.write_csv(first.rows, prep.work / "timed.csv"))
    cols = [c for c in bench.CSV_COLUMNS if c != "wall_time"]
    failed = sum(
        any(g[c] != w[c] for c in cols) for g, w in zip(got, want)
    )
    failed += abs(len(got) - len(want))
    if failed:
        msgs.append(f"{failed} timed rows differ from `fogsched run --verify`")
    return failed, msgs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chain40-budget-sweep",
            pooled=True,
            sizes={
                "full": {"param": "budget", "from": 0.5, "to": 100.0, "steps": 21, "reps": 5,
                         "solvers": ["greedy", "sa"]},
                "tiny": {"param": "budget", "from": 0.5, "to": 100.0, "steps": 3, "reps": 1,
                         "solvers": ["greedy", "sa"]},
            },
            prepare=_prepare_chain40,
            batch=_sweep_batch,
            check=_sweep_check,
        ),
        Workload(
            name="task-count-sweep",
            pooled=False,
            sizes={
                "full": {"param": "task_count", "from": 100.0, "to": 1000.0, "steps": 5, "reps": 1,
                         "solvers": ["greedy"]},
                "tiny": {"param": "task_count", "from": 20.0, "to": 60.0, "steps": 2, "reps": 1,
                         "solvers": ["greedy"]},
            },
            prepare=_prepare_chain40,
            batch=_sweep_batch,
            check=_sweep_check,
        ),
        Workload(
            name="fig4-compare",
            pooled=False,
            sizes={"full": {"reps": 1}, "tiny": {"reps": 1}},
            prepare=_prepare_fig4,
            batch=_compare_batch,
            check=_compare_check,
        ),
        Workload(
            name="benign-anneal",
            pooled=False,
            sizes={
                "full": {"task_counts": [40, 45, 50, 55, 60], "reps": 4},
                "tiny": {"task_counts": [6, 8], "reps": 1},
            },
            prepare=_prepare_benign,
            batch=_run_batch,
            check=_run_check,
        ),
    )
}
