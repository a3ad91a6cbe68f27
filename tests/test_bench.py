"""Harness: run/sweep/compare/validate behavior, CSV determinism, CLI."""
import csv
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import re
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fogsched import bench, cli, schedule, solvers
from fogsched import (
    BruteForceConfig,
    ParseError,
    Placement,
    SAConfig,
    Scenario,
    bundled_scenario,
    evaluate,
    load_scenario,
    save_scenario,
)
import gen
import oracles


def _row_key(row):
    """Row content without the fields that legitimately vary (seed, timing)."""
    return tuple(
        getattr(row, c) for c in bench.CSV_COLUMNS if c not in ("seed", "wall_time")
    )


def test_run_greedy_rows_identical_across_reps():
    rows = bench.run(bundled_scenario("fig4.scn"), solver="greedy", seed=3, reps=3)
    assert len(rows) == 3
    assert [r.seed for r in rows] == [3, 4, 5]
    assert len({_row_key(r) for r in rows}) == 1


def test_run_sa_deterministic_across_invocations():
    a = bench.run(bundled_scenario("fig4.scn"), solver="sa", seed=11, reps=2)
    b = bench.run(bundled_scenario("fig4.scn"), solver="sa", seed=11, reps=2)
    assert [_row_key(r) for r in a] == [_row_key(r) for r in b]
    assert [r.seed for r in a] == [11, 12]


def test_run_records_too_large_not_raises(tmp_path):
    sizes = np.linspace(100, 2000, 20)
    scn = Scenario(
        graph=gen.chain_graph(sizes),
        platform=gen.desk_platform(),
        budget=float("inf"),
        solver_config=BruteForceConfig(),
    )
    path = tmp_path / "big.scn"
    save_scenario(scn, path)
    rows = bench.run(path, solver="brute", reps=1)
    assert len(rows) == 1
    assert rows[0].error.startswith("TooLarge")
    assert not rows[0].feasible
    assert math.isnan(rows[0].makespan)


def test_row_counts_invariant():
    rows = bench.run(bundled_scenario("chain40.scn"), solver="greedy", reps=1)
    for r in rows:
        assert r.n_local + r.n_fog + r.n_cloud == r.n_tasks


def test_sweep_outputs_are_sorted_and_complete(tmp_path):
    spec = bench.SweepSpec(
        parameter="budget", start=1.0, stop=20.0, steps=4, reps=2,
        solvers=("sa", "greedy"),
    )
    out = tmp_path / "sweep.csv"
    rows = bench.sweep(bundled_scenario("fig4.scn"), spec, out, workers=1)
    assert len(rows) == 4 * 2 * 2
    keys = [(r.sweep_value, r.solver, r.seed) for r in rows]
    assert keys == sorted(keys)
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(bench.CSV_COLUMNS)
    assert len(text.splitlines()) == 1 + len(rows)
    assert text.endswith("\n")
    wall_col = bench.CSV_COLUMNS.index("wall_time")
    for line in text.splitlines()[1:]:
        assert line.split(",")[wall_col] == "0"  # zeroed for reproducible files
    for r in rows:
        if not r.error:  # error rows carry no placement, counts stay 0
            assert r.n_local + r.n_fog + r.n_cloud == r.n_tasks


def test_sweep_deterministic_bytes_and_parallel_equivalence(tmp_path):
    for scenario, spec in [
        ("fig4.scn", bench.SweepSpec(
            parameter="fog_price", start=0.0005, stop=0.003, steps=3, reps=2,
            solvers=("greedy", "sa"),
        )),
        ("chain40.scn", bench.SweepSpec("budget", 0.5, 100.0, 7, reps=2, solvers=("greedy", "sa"))),
        ("fig4.scn", bench.SweepSpec("data_size", 0.5, 3.0, 5, reps=2, solvers=("greedy", "sa"))),
        ("chain40.scn", bench.SweepSpec("task_count", 5, 60, 6, reps=2, solvers=("greedy", "sa"))),
    ]:
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        bench.sweep(bundled_scenario(scenario), spec, out1, workers=1)
        bench.sweep(bundled_scenario(scenario), spec, out2, workers=2)
        assert out1.read_bytes() == out2.read_bytes(), spec.parameter


def test_pooled_sweep_sends_the_base_scenario_once_per_worker(monkeypatch, tmp_path):
    # a one-worker stand-in for the process pool that pickles what a real
    # pool sends: the initializer's arguments once, then each chunk of cells
    import concurrent.futures

    sent = []

    class OneWorkerPool:
        def __init__(self, max_workers, initializer, initargs):
            initializer(*pickle.loads(pickle.dumps(initargs)))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells, chunksize):
            cells = list(cells)
            rows = []
            for k in range(0, len(cells), chunksize):
                blob = pickle.dumps((fn, cells[k:k + chunksize]))
                sent.append(blob)
                fn_copy, chunk = pickle.loads(blob)
                rows += map(fn_copy, chunk)
            return rows

    builds = []
    original = schedule.EvalContext.__init__

    def counting_init(ctx, graph, platform):
        builds.append(len(graph))
        original(ctx, graph, platform)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", OneWorkerPool)
    monkeypatch.setattr(bench, "_worker_cells", None)
    monkeypatch.setattr(schedule.EvalContext, "__init__", counting_init)
    spec = bench.SweepSpec("budget", 0.0, 50.0, 10, reps=3)
    chunks = {}
    for n in (5, 400):
        scn = Scenario(graph=gen.chain_graph(np.linspace(100.0, 1000.0, n)),
                       platform=gen.desk_platform(), budget=float("inf"))
        path = save_scenario(scn, tmp_path / f"chain{n}.scn")
        sent.clear()
        builds.clear()
        rows = bench.sweep(path, spec, tmp_path / f"pooled{n}.csv", workers=2)
        # one graph, so one context, for all 30 cells in 4 chunks
        assert len(rows) == 30 and len(sent) == 4 and builds == [n]
        assert all(b"TaskSpec" not in blob for blob in sent)
        chunks[n] = [len(blob) for blob in sent]
        bench.sweep(path, spec, tmp_path / f"serial{n}.csv", workers=1)
        assert (tmp_path / f"pooled{n}.csv").read_bytes() == (tmp_path / f"serial{n}.csv").read_bytes()
    assert chunks[5] == chunks[400]


def test_sweep_pool_has_no_more_workers_than_cells(monkeypatch, tmp_path):
    # an in-process stand-in that records the pool size asked for; a real
    # pool under fork starts every worker up front, idle or not, and a
    # worker takes 8 cells at a time, so a sweep asks for one per chunk
    import concurrent.futures

    asked = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells, chunksize):
            return list(map(fn, cells))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(bench, "_worker_cells", None)
    fig4 = bundled_scenario("fig4.scn")
    for steps, names, workers, pool in ((9, ("greedy",), 16, [2]),
                                         (17, ("greedy",), 16, [3]),
                                         (9, ("greedy", "brute"), 2, [2]),
                                         (8, ("greedy",), 16, []),
                                         (1, ("greedy",), 16, [])):
        spec = bench.SweepSpec("budget", 0.0, 8.0, steps, solvers=names)
        asked.clear()
        rows = bench.sweep(fig4, spec, tmp_path / "pooled.csv", workers=workers)
        assert asked == pool and len(rows) == steps * len(names)
        bench.sweep(fig4, spec, tmp_path / "serial.csv", workers=1)
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_sweep_builds_one_context_per_value(monkeypatch, tmp_path):
    # every solver and rep of one sweep value solves the same derived
    # scenario, whose EvalContext the sweep builds before its first cell:
    # one build per distinct graph, none inside a solve, and a pool writes
    # the same bytes as a serial run
    builds = []
    solving = []
    original_init = schedule.EvalContext.__init__
    original_solve = solvers.solve

    def counting_init(ctx, graph, platform):
        builds.append((len(graph), bool(solving)))
        original_init(ctx, graph, platform)

    def marked_solve(scn):
        solving.append(scn.seed)
        try:
            return original_solve(scn)
        finally:
            solving.pop()

    monkeypatch.setattr(schedule.EvalContext, "__init__", counting_init)
    monkeypatch.setattr(solvers, "solve", marked_solve)
    for parameter, start, stop, sizes in (("task_count", 7.0, 10.0, [7, 8, 9, 10]),
                                          ("data_size", 0.5, 2.0, [9, 9, 9, 9]),
                                          ("budget", 0.5, 10.0, [9]),
                                          ("fog_price", 0.0005, 0.003, [9, 9, 9, 9])):
        spec = bench.SweepSpec(parameter, start, stop, 4, reps=3, solvers=("greedy", "brute"))
        builds.clear()
        rows = bench.sweep(bundled_scenario("fig4.scn"), spec, tmp_path / "s.csv", workers=1)
        assert len(rows) == 24 and all(r.error == "" for r in rows)
        assert builds == [(n, False) for n in sizes], parameter
        bench.sweep(bundled_scenario("fig4.scn"), spec, tmp_path / "p.csv", workers=2)
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()


def test_run_and_compare_build_the_context_before_the_first_solve(monkeypatch):
    # every solve, the first included, finds its graph holding the context
    # for its platform, so no solve's wall time pays for the build
    seen = []
    original_solve = bench._solvers.solve

    def checking_solve(scn):
        kept = scn.graph.__dict__.get("_eval_context")
        seen.append(kept is not None and kept[0] == scn.platform)
        return original_solve(scn)

    monkeypatch.setattr(bench._solvers, "solve", checking_solve)
    for name in ("fig4.scn", "dag9.scn"):
        bench.run(bundled_scenario(name), solver="greedy", reps=2)
        bench.run(bundled_scenario(name), solver="brute", reps=1)
        bench.compare(bundled_scenario(name), reps=1)
    assert seen == [True] * 12


def test_sweep_does_not_mutate_source(tmp_path):
    src = bundled_scenario("fig4.scn")
    before = src.read_bytes()
    spec = bench.SweepSpec(parameter="budget", start=1.0, stop=2.0, steps=2)
    bench.sweep(src, spec, tmp_path / "o.csv", workers=1)
    assert src.read_bytes() == before


def test_sweep_task_count_regenerates_chains(tmp_path):
    spec = bench.SweepSpec(parameter="task_count", start=3, stop=7, steps=3)
    base = load_scenario(bundled_scenario("fig4.scn"))
    rows = bench.sweep(bundled_scenario("fig4.scn"), spec, tmp_path / "t.csv", workers=1)
    assert [r.n_tasks for r in rows] == [3, 5, 7]
    # each task's workload equals its data size, drawn from [100, 1000]
    for vi, value in enumerate(spec.values()):
        tasks = bench._apply_sweep_value(base, spec, value, vi).graph.tasks
        assert len(tasks) == value
        assert all(t.workload == t.data_size and 100.0 <= t.workload <= 1000.0 for t in tasks)


def test_sweep_data_size_scales_both(tmp_path):
    base = load_scenario(bundled_scenario("fig4.scn"))
    spec = bench.SweepSpec(parameter="data_size", start=0.5, stop=2.0, steps=2)
    scn = bench._apply_sweep_value(base, spec, 2.0, 1)
    for t_old, t_new in zip(base.graph.tasks, scn.graph.tasks):
        assert t_new.workload == 2.0 * t_old.workload
        assert t_new.data_size == 2.0 * t_old.data_size


def test_sweep_task_count_brute_growth(tmp_path):
    # measured wall time along a task_count sweep grows like 3^N; each N
    # is timed as the fastest of three one-rep sweeps, since load only ever
    # adds time, and a drift in the host's speed then hits every N alike
    spec = bench.SweepSpec(
        parameter="task_count", start=7, stop=10, steps=4, solvers=("brute",), reps=1
    )
    best = {}
    for k in range(3):
        rows = bench.sweep(bundled_scenario("fig4.scn"), spec, tmp_path / f"g{k}.csv",
                           workers=1)
        assert [r.n_tasks for r in rows] == [7, 8, 9, 10]
        assert all(r.error == "" for r in rows)
        for r in rows:
            best[r.n_tasks] = min(best.get(r.n_tasks, math.inf), r.wall_time)
    slope = np.polyfit(list(best), np.log(list(best.values())), 1)[0]
    assert 0.9 * math.log(3) <= slope <= 1.1 * math.log(3)


def test_worker_count_default_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("FOGSCHED_WORKERS", raising=False)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert bench._worker_count(None) == 2
    monkeypatch.delattr(bench.os, "sched_getaffinity")
    assert bench._worker_count(None) == 64
    monkeypatch.setenv("FOGSCHED_WORKERS", "3")
    assert bench._worker_count(None) == 3
    assert bench._worker_count(1) == 1


def test_run_verify_flag():
    rows = bench.run(bundled_scenario("fig4.scn"), solver="greedy", reps=1, verify=True)
    assert rows[0].feasible


def test_compare_brute_gap_zero():
    summary = bench.compare(bundled_scenario("fig4.scn"), seed=1, reps=1)
    assert summary["solvers"]["brute"]["gap_vs_brute"] == 0.0
    assert summary["solvers"]["greedy"]["gap_vs_brute"] >= 0.0


def test_compare_unique_feasible_point(tmp_path):
    # only the all-local placement is affordable, and local is also fastest
    # (huge inputs over a slow link), so every solver must land on it
    g = gen.chain_graph([0.001, 0.002], [1000.0, 1000.0])
    platform = gen.desk_platform()
    all_local_cost = sum(
        platform.kappa * t.workload * platform.device_cpu**2 for t in g.tasks
    )
    scn = Scenario(
        graph=g,
        platform=platform,
        budget=all_local_cost + 1e-9,
        seed=8,
        solver_config=SAConfig(),
    )
    path = tmp_path / "unique.scn"
    save_scenario(scn, path)
    summary = bench.compare(path, seed=8, reps=1)
    mk = [summary["solvers"][s]["mean_makespan"] for s in ("greedy", "sa", "brute")]
    assert mk[0] == pytest.approx(mk[2], rel=1e-12)
    assert mk[1] == pytest.approx(mk[2], rel=1e-12)


def test_compare_mean_gap_greedy_not_worse_than_sa(tmp_path):
    # exhaustive oracle on every instance; greedy tracks it closer than
    # annealing does in the mean
    rng = np.random.default_rng(4242)
    gaps_greedy = []
    gaps_sa = []
    for i in range(100):
        sizes = rng.uniform(50, 1000, size=8)
        scn = Scenario(
            graph=gen.chain_graph(sizes),
            platform=gen.desk_platform(rng),
            budget=float("inf"),
            seed=int(rng.integers(0, 2**31)),
            solver_config=SAConfig(),
        )
        path = tmp_path / f"c{i}.scn"
        save_scenario(scn, path)
        summary = bench.compare(path, reps=1)
        brute = summary["solvers"]["brute"]["mean_makespan"]
        assert not math.isnan(brute)
        gaps_greedy.append(summary["solvers"]["greedy"]["gap_vs_brute"])
        gaps_sa.append(summary["solvers"]["sa"]["gap_vs_brute"])
    assert np.mean(gaps_greedy) <= np.mean(gaps_sa)


def test_validate_defaults_clean():
    diag = bench.validate(bundled_scenario("defaults.scn"))
    assert diag.ok
    assert diag.errors == ()
    assert diag.warnings == ()


def test_validate_cycle_diagnostic(tmp_path):
    scn = load_scenario(bundled_scenario("fig4.scn"))
    text = bundled_scenario("fig4.scn").read_text()
    text = text.replace("- [8, 9]", "- [8, 9]\n    - [9, 1]")
    path = tmp_path / "cyclic.scn"
    path.write_text(text)
    diag = bench.validate(path)
    assert not diag.ok
    assert any("CycleDetected" in e for e in diag.errors)


def test_validate_budget_prescreen(tmp_path):
    scn = load_scenario(bundled_scenario("fig4.scn"))
    # below even the all-local energy floor of ~4.45e-8
    scn = replace(scn, budget=1e-9)
    path = tmp_path / "tight.scn"
    save_scenario(scn, path)
    diag = bench.validate(path)
    floor = oracles.cheapest_assignment_cost(scn.graph, scn.platform)
    assert floor > scn.budget
    assert any(f"already costs {floor!r}, above" in w for w in diag.warnings)


def _infeasible_warnings(path):
    return [w for w in bench.validate(path).warnings if "likely infeasible" in w]


def test_validate_prescreen_adds_in_topological_order(tmp_path):
    # the prescreen's floor is the cheapest placement's evaluated cost, to
    # the bit; on permuted ids the id-order sum of the cheapest terms can
    # differ from it by an ulp
    rng = np.random.default_rng(4501)
    id_order_differs = 0
    for k in range(60):
        graph = gen.permute_ids(rng, gen.random_dag(rng, int(rng.integers(3, 8)), p_edge=0.4))
        scn = Scenario(graph=graph, platform=gen.desk_platform(rng), budget=0.0)
        result = evaluate(graph, oracles.cheapest_placement(graph, scn.platform), scn.platform)
        id_order_differs += (oracles.cheapest_assignment_cost(graph, scn.platform)
                             != result.total_cost)
        path = save_scenario(scn, tmp_path / f"c{k}.scn")
        assert _infeasible_warnings(path) == [
            f"likely infeasible: cheapest per-task assignment already costs "
            f"{result.total_cost!r}, above the budget 0.0"
        ]
        path = save_scenario(replace(scn, budget=result.total_cost), path)
        assert not _infeasible_warnings(path)
    assert id_order_differs > 0


def test_validate_prescreen_allows_the_budget_tolerance(tmp_path):
    # C7 admits a cost up to the budget plus TIME_TOL, so a budget half a
    # tolerance under the cheapest cost is solved feasibly and draws no
    # warning; two tolerances under it do
    scn = load_scenario(bundled_scenario("fig4.scn"))
    result = evaluate(scn.graph, oracles.cheapest_placement(scn.graph, scn.platform),
                      scn.platform)
    tol = schedule.TIME_TOL
    for budget, warned in ((result.total_cost - tol / 2, False),
                           (result.total_cost - 2 * tol, True)):
        at = replace(scn, budget=budget)
        path = save_scenario(at, tmp_path / "tight.scn")
        assert bool(_infeasible_warnings(path)) == warned
        if not warned:
            assert solvers.greedy_solve(at).feasible


def test_validate_epsilon_warning(tmp_path):
    text = bundled_scenario("fig4.scn").read_text()
    text = text.replace(
        "fog: {cpu: 3.6, alpha: 1.0e-5, beta: 1.0e-4, epsilon: 3.0, price: 0.001}",
        "fog: {cpu: 3.6, alpha: 1.0e-5, beta: 1.0e-4, epsilon: 3.2, price: 0.001}",
    )
    path = tmp_path / "eps.scn"
    path.write_text(text)
    diag = bench.validate(path)
    assert diag.ok
    assert [w for w in diag.warnings if "power exponent" in w] == [
        "fog power exponent 3.2 outside the usual [2.5, 3] range"
    ]


def test_out_of_range_exponent_is_advice_of_validate_alone(tmp_path, capsys, monkeypatch):
    # the advice used to be a UserWarning from every spec built, which run,
    # compare and sweep printed and which failed them where warnings are
    # errors; the commands give the same bytes with warnings as errors
    text = bundled_scenario("fig4.scn").read_text()
    old = "fog: {cpu: 3.6, alpha: 1.0e-5, beta: 1.0e-4, epsilon: 3.0, price: 0.001}"
    assert text.count(old) == 1
    path = tmp_path / "eps.scn"
    path.write_text(text.replace(old, old.replace("epsilon: 3.0", "epsilon: 3.2")))
    monkeypatch.setenv("FOGSCHED_WORKERS", "1")
    # run reports measured wall time; a frozen clock makes its bytes repeat
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    out = tmp_path / "sweep.csv"
    commands = (["run", "--solver", "greedy"], ["compare"], ["validate"],
                ["sweep", "--param", "budget", "--from", "2", "--to", "8", "--steps", "3",
                 "--out", str(out)])

    def outputs():
        out.unlink(missing_ok=True)
        seen = []
        for argv in commands:
            assert cli.main(argv + ["--scenario", str(path)]) == 0, argv
            seen.append((capsys.readouterr(), out.read_bytes() if out.exists() else None))
        return seen

    plain = outputs()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outputs() == plain
    assert [captured.err for captured, _ in plain] == [""] * 4
    assert plain[2][0].out == (
        "warning: fog power exponent 3.2 outside the usual [2.5, 3] range\nscenario ok\n"
    )
    assert plain[3][1].count(b"\n") == 4


def test_validate_parse_error_propagates(tmp_path):
    path = tmp_path / "junk.scn"
    path.write_text("graph: [not, a, scenario")
    with pytest.raises(ParseError):
        bench.validate(path)


# ---------------------------------------------------------------- CLI


def test_cli_run_stdout(capsys):
    rc = cli.main(["run", "--scenario", str(bundled_scenario("fig4.scn")), "--solver", "greedy"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("scenario_id,")
    assert "fig4,greedy" in out


def test_cli_run_bundled_name(capsys):
    rc = cli.main(["run", "--scenario", "fig4.scn", "--solver", "greedy"])
    assert rc == 0


def test_cli_sweep_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = cli.main(
        [
            "sweep", "--scenario", "fig4.scn", "--param", "budget",
            "--from", "2", "--to", "8", "--steps", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.exists()


def test_sweep_rejects_bad_ranges_up_front(tmp_path, capsys):
    # a non-finite end point fails when the sweep is specified rather than
    # inside its cells
    for start, stop in [(0.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            bench.SweepSpec("task_count", start, stop, 2)
    out = tmp_path / "x.csv"
    argv = ["sweep", "--scenario", "fig4.scn", "--from", "5", "--steps", "2", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--param", "budget", "--to", "inf"]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: sweep stop must be finite, got inf\n"


def test_cli_names_malformed_sweep_inputs(tmp_path, capsys, monkeypatch):
    # FOGSCHED_WORKERS below 1 used to run serially; each bad value is
    # refused before any context is built, and no file is written
    built = []
    original = schedule.EvalContext.__init__

    def counting_init(ctx, graph, platform):
        built.append(len(graph))
        original(ctx, graph, platform)

    monkeypatch.setattr(schedule.EvalContext, "__init__", counting_init)
    out = tmp_path / "x.csv"
    argv = ["sweep", "--scenario", "fig4.scn", "--param", "task_count", "--from", "5",
            "--to", "6", "--steps", "2", "--out", str(out)]
    for env, message in (("two", "must be an integer, got 'two'"), ("0", "must be >= 1"),
                         ("-2", "must be >= 1")):
        monkeypatch.setenv("FOGSCHED_WORKERS", env)
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: FOGSCHED_WORKERS {message}\n"
    assert built == [] and not out.exists()


def test_task_counts_below_one_rejected_at_the_boundary(tmp_path, capsys):
    # a chain length is round(value), so a start that rounds below 1 task
    # (0.5 rounds to 0) is refused before any solve
    for start, stop, steps in ((-5, 3, 3), (0.5, 3, 2)):
        with pytest.raises(ValueError, match="task_count start"):
            bench.SweepSpec("task_count", start, stop, steps)
    assert [r.n_tasks for r in bench.sweep("fig4.scn", bench.SweepSpec("task_count", 0.51, 2, 2),
                                           tmp_path / "ok.csv", workers=1)] == [1, 2]
    out = tmp_path / "x.csv"
    argv = ["sweep", "--scenario", "fig4.scn", "--param", "task_count", "--from", "-5",
            "--to", "3", "--steps", "3", "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: task_count start -5.0 rounds to fewer than 1 task\n"


def test_cli_run_with_solver_errors_exits_zero(tmp_path, capsys):
    sizes = np.linspace(100, 2000, 20)
    scn = Scenario(
        graph=gen.chain_graph(sizes), platform=gen.desk_platform(), budget=float("inf")
    )
    path = tmp_path / "big.scn"
    save_scenario(scn, path)
    rc = cli.main(["run", "--scenario", str(path), "--solver", "brute"])
    assert rc == 0
    assert "TooLarge" in capsys.readouterr().out


def test_cli_compare(capsys):
    rc = cli.main(["compare", "--scenario", "fig4.scn", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "brute" in out and "greedy" in out
    # the README's example output, verbatim
    command = "$ fogsched compare --scenario fig4.scn --seed 1 --reps 3\n"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = readme.split(command, 1)[1].split("```", 1)[0]
    rc = cli.main(["compare", "--scenario", "fig4.scn", "--seed", "1", "--reps", "3"])
    assert rc == 0
    assert capsys.readouterr().out == documented


def test_cli_run_stdout_is_the_csv_file(tmp_path, capsys, monkeypatch):
    # budget 0: every greedy row is an error whose message holds a comma.
    # bench reads a clock that moves 0.25 s per reading, so each error row
    # measures the same wall time in both runs
    clock = itertools.count(0.0, 0.25)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    text = bundled_scenario("fig4.scn").read_text(encoding="utf-8")
    path = tmp_path / "fig4_b0.scn"
    path.write_text(text.replace("\nbudget: 6.0\n", "\nbudget: 0.0\n"), encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert cli.main(["run", "--scenario", str(path), "--reps", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["run", "--scenario", str(path), "--reps", "2"]) == 0
    stdout = capsys.readouterr().out
    assert stdout == out.read_text(encoding="utf-8")
    rows = list(csv.reader(io.StringIO(stdout)))
    assert len(rows) == 3
    assert all(len(r) == len(bench.CSV_COLUMNS) == 17 for r in rows)
    assert rows[1][-1].startswith("Infeasible: all tasks local, total energy")
    assert [float(r[bench.CSV_COLUMNS.index("wall_time")]) for r in rows[1:]] == [0.25, 0.25]


def test_solved_rows_are_timed_by_the_harness(capsys, monkeypatch):
    # bench reads a clock that moves 0.25 s per reading, right before and
    # right after each solve, and the solver reads none: a feasible greedy
    # row and a verified exhaustive row each span one step of it
    clock = itertools.count(0.0, 0.25)
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    for argv in (["--solver", "greedy"], ["--solver", "brute", "--verify"]):
        assert cli.main(["run", "--scenario", "fig4.scn", *argv]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert (row["error"], row["feasible"], row["wall_time"]) == ("", "true", "0.25"), argv


def _raising_solve(calls):
    """A stand-in for solvers.solve that counts its calls, takes at least
    10 ms and raises Infeasible."""
    def solve(scn):
        calls.append(scn.seed)
        time.sleep(0.01)
        raise solvers.Infeasible("nothing fits")
    return solve


def test_error_rows_report_their_wall_time(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(solvers, "solve", _raising_solve(calls))
    fig4 = bundled_scenario("fig4.scn")
    rows = bench.run(fig4, solver="greedy", reps=2)
    assert [r.error for r in rows] == ["Infeasible: nothing fits"] * 2
    assert all(r.wall_time >= 0.01 for r in rows)
    summary = bench.compare(fig4, reps=2)
    assert all(st["mean_wall_time"] >= 0.01 for st in summary["solvers"].values())
    # a sweep's file still zeroes the column; its returned rows keep the time
    out = tmp_path / "s.csv"
    rows = bench.sweep(fig4, bench.SweepSpec("budget", 2.0, 8.0, 2), out, workers=1)
    assert all(r.wall_time >= 0.01 for r in rows)
    written = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert [r["wall_time"] for r in written] == ["0", "0"]
    assert len(calls) == 2 + 3 * 2 + 2


def test_cli_bad_out_fails_before_any_solve(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(solvers, "solve", _raising_solve(calls))
    monkeypatch.setenv("FOGSCHED_WORKERS", "1")
    out = tmp_path / "missing" / "x.csv"
    for argv in (
        ["sweep", "--scenario", "fig4.scn", "--param", "budget", "--from", "2", "--to", "8",
         "--steps", "2", "--out", str(out)],
        ["run", "--scenario", "fig4.scn", "--out", str(out)],
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: no directory {str(out.parent)!r} to write "
                                f"{str(out)!r} in\n")
    assert calls == []
    assert not out.parent.exists()


def test_cli_directory_out_fails_before_any_solve(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(solvers, "solve", _raising_solve(calls))
    monkeypatch.setenv("FOGSCHED_WORKERS", "1")
    for argv in (
        ["sweep", "--scenario", "fig4.scn", "--param", "budget", "--from", "2", "--to", "8",
         "--steps", "2", "--out", str(tmp_path)],
        ["run", "--scenario", "fig4.scn", "--solver", "brute", "--reps", "3",
         "--out", str(tmp_path)],
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {str(tmp_path)!r} is a directory, not a file to write\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(IsADirectoryError):
        bench.check_out_path(tmp_path)


def test_library_sweep_bad_out_fails_before_any_solve(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(solvers, "solve", _raising_solve(calls))
    spec = bench.SweepSpec("budget", 0.0, 8.0, 9, solvers=("greedy", "brute"))
    with pytest.raises(IsADirectoryError):
        bench.sweep(bundled_scenario("fig4.scn"), spec, tmp_path, workers=1)
    with pytest.raises(FileNotFoundError):
        bench.sweep(bundled_scenario("fig4.scn"), spec, tmp_path / "missing" / "x.csv",
                    workers=1)
    assert calls == []
    assert list(tmp_path.iterdir()) == []


# one-token mutants of fig4.scn (two for the slow device CPU) that passed
# every field check and then printed a traceback and exited 1, or solved to
# a total that is not finite
UNUSABLE_DERIVED = {
    "edge_inf": ((("    - [8, 9]", "    - [8, .inf]"),),
                 "edge succ: expected an integer, got inf"),
    "noise": ((("noise: 1.0", "noise: 99999999999999999999"),),
              "uplink rate is 0.0; it must be finite and > 0"),
    "epsilon": ((("epsilon: 3.0, price: 0.004", "epsilon: 1000.0, price: 0.004"),),
                "cloud energy coefficient alpha * cpu**epsilon + beta is not finite"),
    "device_cpu": ((("device_cpu: 1.0", "device_cpu: 1e-320"), ("budget: 6.0", "budget: 0")),
                   "local execution time of task 1 is inf, not finite"),
    "device_cpu_squared": ((("device_cpu: 1.0", "device_cpu: 1e308"),),
                           "local energy of task 1 is inf, not finite"),
    # every column is finite, but the finish times from task 3 on add up to inf
    "workload": ((("workload: 536.0", "workload: 1e308"),),
                 "the sum of finish times can add up to inf, not finite"),
}


@pytest.mark.parametrize("name", sorted(UNUSABLE_DERIVED))
def test_cli_rejects_unusable_derived_quantities(name, tmp_path, capsys, monkeypatch):
    edits, message = UNUSABLE_DERIVED[name]
    text = bundled_scenario("fig4.scn").read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "mutant.scn"
    path.write_text(text)
    monkeypatch.setenv("FOGSCHED_WORKERS", "1")
    out = tmp_path / "sweep.csv"
    for argv in (["run", "--solver", "greedy"], ["run", "--solver", "sa"],
                 ["run", "--solver", "brute"], ["compare"], ["validate"],
                 ["sweep", "--param", "budget", "--from", "0", "--to", "8", "--steps", "3",
                  "--solvers", "greedy,sa,brute", "--out", str(out)]):
        assert cli.main(argv + ["--scenario", str(path)]) == 2, argv
        captured = capsys.readouterr()
        # validate prints a derived quantity among its diagnostics
        where = captured.out if argv == ["validate"] and name != "edge_inf" else captured.err
        assert where.startswith("error: ") and message in where, argv
        assert "Traceback" not in captured.err + captured.out
    assert not out.exists()
    if name != "edge_inf":
        scn = load_scenario(path)
        with pytest.raises(schedule.DerivedValueError, match=re.escape(message)):
            schedule.EvalContext(scn.graph, scn.platform)


def _tampered(result, step=None, totals=None):
    """A copy of the evaluation `result` with task 1's step or the totals
    changed, built as the evaluator builds its results."""
    steps = list(result._steps)
    if step is not None:
        steps[0] = step(steps[0])
    run = list(result._run)
    if totals is not None:
        run[-1] = totals(run[-1])
    return schedule.ScheduleResult(result._ctx, result._tiers, result._chosen, steps, run,
                                   result.makespan)


def test_verify_checks_the_returned_result(monkeypatch):
    """--verify compares every solved row's result, feasible or not, with a
    fresh evaluation of its placement, and the solver's verdict with a
    fresh check; a result that differs in one step or total, or a wrong
    verdict, fails the batch."""
    real = solvers.solve
    tamper = [None]

    def solve(scn):
        out = real(scn)
        return out if tamper[0] is None else tamper[0](out)

    monkeypatch.setattr(solvers, "solve", solve)
    changes = (
        lambda out: replace(out, result=_tampered(
            out.result, step=lambda s: (s[0] - 1e-6,) + s[1:])),
        lambda out: replace(out, result=_tampered(
            out.result, step=lambda s: s[:1] + (s[1] + 1.0,) + s[2:])),
        lambda out: replace(out, result=_tampered(
            out.result, totals=lambda t: (t[0], t[1] + 1e-9, t[2], t[3]))),
        lambda out: replace(out, result=_tampered(
            out.result, totals=lambda t: (t[0], t[1], t[2] - 1.0, t[3]))),
        lambda out: replace(out, feasible=not out.feasible),
    )
    for scenario, solver, feasible in (("fig4.scn", "greedy", True),
                                       ("fig4.scn", "brute", True),
                                       ("chain40.scn", "greedy", True),
                                       ("chain40.scn", "sa", False)):
        path = bundled_scenario(scenario)
        tamper[0] = None
        rows = bench.run(path, solver=solver, reps=2, verify=True)
        assert [r.feasible for r in rows] == [feasible] * 2
        for change in changes:
            tamper[0] = change
            # the same solve, unverified, writes its row
            assert bench.run(path, solver=solver, reps=1)[0].error == ""
            with pytest.raises(AssertionError, match="verification failed"):
                bench.run(path, solver=solver, reps=1, verify=True)


def test_no_solve_builds_a_placement(monkeypatch, tmp_path):
    """A serial chain40 budget sweep, run and compare read every row off the
    solver's result and construct no Placement; --verify builds one per
    solved row, for the fresh evaluation."""
    built = []
    checked = Placement.__post_init__

    def counting(self):
        built.append(len(self.assignment))
        checked(self)

    monkeypatch.setattr(Placement, "__post_init__", counting)
    chain40, fig4 = bundled_scenario("chain40.scn"), bundled_scenario("fig4.scn")
    spec = bench.SweepSpec("budget", 0.5, 100.0, 21, reps=5, solvers=("greedy", "sa"))
    rows = bench.sweep(chain40, spec, tmp_path / "sweep.csv", workers=1)
    for solver in ("greedy", "sa", "brute"):
        rows += bench.run(chain40, solver=solver, reps=2)
        rows += bench.run(fig4, solver=solver, reps=2)
    bench.compare(fig4, reps=2)
    assert built == []
    # 28 of the sweep's annealing rows exhaust their restarts, and brute
    # refuses chain40: 192 solved rows
    assert len(rows) == 222 and sum(not r.error for r in rows) == 192
    verified = bench.run(fig4, solver="brute", reps=2, verify=True)
    verified += bench.run(chain40, solver="sa", reps=2, verify=True)
    assert built == [9, 9, 40, 40]
    assert [r.feasible for r in verified] == [True, True, False, False]


def test_reps_below_one_rejected(capsys):
    fig4 = bundled_scenario("fig4.scn")
    with pytest.raises(ValueError, match="reps must be >= 1"):
        bench.run(fig4, reps=0)
    with pytest.raises(ValueError, match="reps must be >= 1"):
        bench.compare(fig4, reps=0)
    assert cli.main(["compare", "--scenario", "fig4.scn", "--reps", "0"]) == 2
    assert cli.main(["run", "--scenario", "fig4.scn", "--reps", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: reps must be >= 1\n" * 2


@pytest.mark.parametrize(
    "call, kwargs, exc, message",
    [
        ("run", {"reps": True}, TypeError, "reps must be an integer, got True"),
        ("run", {"reps": 2.0}, TypeError, "reps must be an integer, got 2.0"),
        ("run", {"seed": True}, TypeError, "seed must be an integer, got True"),
        ("compare", {"reps": True}, TypeError, "reps must be an integer, got True"),
        ("compare", {"reps": 2.0}, TypeError, "reps must be an integer, got 2.0"),
        ("compare", {"seed": True}, TypeError, "seed must be an integer, got True"),
        ("run", {"solver": "x"}, ValueError, "unknown solver 'x'"),
        # an empty name used to solve with the scenario's own kind
        ("run", {"solver": ""}, ValueError, "unknown solver ''"),
    ],
)
def test_run_and_compare_refuse_bad_arguments(call, kwargs, exc, message):
    # reps and seed are taken as SweepSpec takes steps and reps: a bool
    # would run as 0 or 1, and a float would fail inside range()
    with pytest.raises(exc) as err:
        getattr(bench, call)(bundled_scenario("fig4.scn"), **kwargs)
    assert type(err.value) is exc and str(err.value) == message


def test_run_and_compare_take_numpy_integers():
    fig4 = bundled_scenario("fig4.scn")
    rows = bench.run(fig4, solver="greedy", seed=np.int64(4), reps=np.uint8(2))
    assert [(r.seed, type(r.seed)) for r in rows] == [(4, int), (5, int)]
    summary = bench.compare(fig4, seed=np.int32(1), reps=np.int64(1))
    assert [(v, type(v)) for v in (summary["seed"], summary["reps"])] == [(1, int), (1, int)]


@pytest.mark.parametrize(
    "workers, exc, message",
    [
        (True, TypeError, "workers must be an integer, got True"),
        (2.5, TypeError, "workers must be an integer, got 2.5"),
        (0, ValueError, "workers must be >= 1"),
    ],
)
def test_sweep_refuses_bad_workers_before_any_work(workers, exc, message, tmp_path,
                                                  monkeypatch):
    # a bool would run serially, as would 0, and a float would fail in the
    # pool once every context was built: each is refused before any context
    # is built, and no file is written
    built = []
    original = schedule.EvalContext.__init__

    def counting_init(ctx, graph, platform):
        built.append(len(graph))
        original(ctx, graph, platform)

    monkeypatch.setattr(schedule.EvalContext, "__init__", counting_init)
    out = tmp_path / "sweep.csv"
    with pytest.raises(exc) as err:
        bench.sweep(bundled_scenario("fig4.scn"), bench.SweepSpec("budget", 1.0, 2.0, 2), out,
                    workers=workers)
    assert type(err.value) is exc and str(err.value) == message
    assert built == [] and not out.exists()


@pytest.mark.parametrize(
    "kwargs, exc, message",
    [
        ({"parameter": "x"}, ValueError,
         "parameter must be one of ('data_size', 'budget', 'fog_price', 'task_count')"),
        ({"steps": 0}, ValueError, "steps must be >= 1"),
        ({"reps": 0}, ValueError, "reps must be >= 1"),
        ({"start": 3.0}, ValueError, "start must be <= stop"),
        ({"solvers": ("greedy", "x", "y")}, ValueError, "unknown solvers ['x', 'y']"),
        # a str used to be read as one-letter solver names
        ({"solvers": "sa"}, TypeError,
         "solvers must be a sequence of solver names, got 'sa'"),
    ],
)
def test_sweep_spec_refusals(kwargs, exc, message):
    with pytest.raises(exc) as err:
        bench.SweepSpec(**{"parameter": "budget", "start": 1.0, "stop": 2.0, "steps": 2,
                           **kwargs})
    assert type(err.value) is exc and str(err.value) == message


def test_sweep_spec_keeps_its_solvers_as_a_tuple():
    # a list of solvers used to be kept, so the frozen spec could not be hashed
    spec = bench.SweepSpec("budget", 1.0, 2.0, 2, solvers=["greedy", "sa"])
    assert spec.solvers == ("greedy", "sa")
    assert spec == bench.SweepSpec("budget", 1.0, 2.0, 2, solvers=("greedy", "sa"))
    assert hash(spec) == hash(bench.SweepSpec("budget", 1.0, 2.0, 2, solvers=("greedy", "sa")))


def test_cli_compare_names_solver_errors(capsys):
    # exhaustive search refuses chain40's 40 tasks: its row reads error and a
    # line under the table names the error
    assert cli.main(["compare", "--scenario", "chain40.scn", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2].split() == ["brute", "error", "n/a", "n/a", "0%"]
    assert lines[-1] == "  brute: TooLarge: 40 tasks exceed the exhaustive-search cap of 14"


def test_cli_validate_bad_file_nonzero(tmp_path, capsys):
    path = tmp_path / "junk.scn"
    path.write_text("]]]")
    rc = cli.main(["validate", "--scenario", str(path)])
    assert rc == 2


def test_cli_missing_scenario_nonzero(capsys):
    rc = cli.main(["run", "--scenario", "nope.scn"])
    assert rc == 2


def test_csv_floats_roundtrip(tmp_path):
    rows = bench.run(bundled_scenario("fig4.scn"), solver="greedy", reps=1)
    out = tmp_path / "r.csv"
    bench.write_csv(rows, out)
    header, line = out.read_text().splitlines()
    values = dict(zip(header.split(","), line.split(",")))
    assert float(values["makespan"]) == rows[0].makespan
    assert float(values["total_cost"]) == rows[0].total_cost
    assert values["feasible"] == "true"


def test_negative_seeds_rejected_at_the_boundary(tmp_path, capsys):
    # the solvers' seed streams refuse negative entropy, so a negative seed
    # would only fail inside the annealing solves
    text = bundled_scenario("fig4.scn").read_text(encoding="utf-8")
    assert "\nseed: 1\n" in text
    path = tmp_path / "negative.scn"
    path.write_text(text.replace("\nseed: 1\n", "\nseed: -3\n"), encoding="utf-8")
    with pytest.raises(ParseError, match="seed must be >= 0, got -3"):
        load_scenario(path)
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        bench.run(bundled_scenario("fig4.scn"), solver="greedy", seed=-5)
    out = tmp_path / "rows.csv"
    assert cli.main(["validate", "--scenario", str(path)]) == 2
    assert cli.main(["run", "--scenario", "fig4.scn", "--seed", "-5", "--solver", "greedy",
                     "--out", str(out)]) == 2
    assert cli.main(["compare", "--scenario", "fig4.scn", "--seed", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        "error: seed must be >= 0, got -3\n" + "error: seed must be >= 0, got -5\n" * 2
    )
    assert cli.main(["run", "--scenario", "fig4.scn", "--seed", "0", "--solver", "sa"]) == 0


def test_sweep_solver_list_must_be_nonempty_and_distinct(tmp_path, capsys):
    with pytest.raises(ValueError, match="at least one solver"):
        bench.SweepSpec("budget", 1.0, 2.0, 2, solvers=())
    with pytest.raises(ValueError, match="must not repeat"):
        bench.SweepSpec("budget", 1.0, 2.0, 2, solvers=("greedy", "sa", "greedy"))
    out = tmp_path / "x.csv"
    argv = ["sweep", "--scenario", "fig4.scn", "--param", "budget", "--from", "1",
            "--to", "2", "--steps", "2", "--out", str(out), "--solvers"]
    assert cli.main(argv + [""]) == 2
    assert cli.main(argv + ["greedy,greedy"]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: solvers must name at least one solver\n"
        "error: solvers must not repeat, got ['greedy', 'greedy']\n"
    )


# sha256 of two CLI outputs, recorded before the evaluation set-up was cached
# on the graph and the result rows were built lazily: every performance change
# must leave them byte-identical
GOLDEN_SHA256 = {
    "chain40 budget sweep": "4252ab0d6c39789adbdab1bf5a875fb05a0336d1b1b36742c17fe4e6f46aea66",
    "fig4 compare": "70941376fd5540f6bf68c2fd37032b1d166ede5ba4bedde92a556f06b80990aa",
}


def test_golden_output_digests(tmp_path, capsys):
    # the benchmark's chain40 workload: budget 0.5..100, 21 steps, 5 reps
    out = tmp_path / "budget.csv"
    spec = bench.SweepSpec("budget", 0.5, 100.0, 21, reps=5, solvers=("greedy", "sa"))
    bench.sweep("chain40.scn", spec, out, workers=1)
    assert cli.main(["compare", "--scenario", "fig4.scn", "--reps", "3"]) == 0
    got = {
        "chain40 budget sweep": hashlib.sha256(out.read_bytes()).hexdigest(),
        "fig4 compare": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
    }
    assert got == GOLDEN_SHA256


# sha256 of sweep CSVs over the paths the golden digests above do not reach:
# task_count chains (sizes drawn uniformly from their own streams) and
# linspace values that are not exact multiples; recorded while numpy still
# drew the streams and spaced the values.  The fig4 budget sweep pins
# exhaustive search across budgets; it was recorded before the exhaustive
# walk tested a last-depth node's leaves ahead of its finish times.  The
# dag9 entries pin a DAG with several sinks and multi-predecessor tasks, on
# which greedy makes both kinds of repair move; they were recorded while the
# solvers still carried a second, sum-of-finish-times objective
SWEEP_SHA256 = {
    "chain40 task_count sweep": "553f13ba2719d02c04a116c837e9c5851af13aa75c202a110eb1a7cf589dd03d",
    "fig4 data_size sweep": "de1ae4f74a6eee572774ed695e3fc3a875109b0f8d5b7ae2153b38727586378f",
    "fig4 fog_price sweep": "68fda52a0e3b291b1726a027d61cd9b686b87ea1372c446f1c59d4b99970c93f",
    "fig4 budget sweep": "80b83a28f9871d587cebd2a55dd6d1180e489ff5186f981c68f3cbf714a64930",
    "dag9 budget sweep": "0c579969707b8b4437623ebe3fd1d89fcbff40165d2d4d94ff8ad0ed136d5399",
    "dag9 compare": "ac69b8fba0dd33f1484dd7751da9e2736bf84dac242c9c1ad068c3bf472dac4a",
    "chain40 long greedy task_count sweep":
        "272becca9a8c0d17f79614191447f9d11aebc79ac7e2a9d011c6edba043e9b58",
}


def test_sweep_output_digests(tmp_path, capsys):
    sweeps = {
        "chain40 task_count sweep": ("chain40.scn", bench.SweepSpec(
            "task_count", 5.0, 60.0, 10, reps=2, solvers=("greedy", "sa"))),
        "fig4 data_size sweep": ("fig4.scn", bench.SweepSpec(
            "data_size", 0.25, 3.0, 7, reps=2, solvers=("greedy", "sa"))),
        "fig4 fog_price sweep": ("fig4.scn", bench.SweepSpec(
            "fog_price", 0.0005, 0.003, 6, reps=2, solvers=("greedy", "sa", "brute"))),
        # exhaustive last-depth nodes with no passing leaf (budget 0), some
        # (budget 1) and every utility-feasible one (budget 5 on)
        "fig4 budget sweep": ("fig4.scn", bench.SweepSpec(
            "budget", 0.0, 8.0, 9, reps=1, solvers=("greedy", "brute"))),
        # every solver infeasible at budget 0; greedy makes budget repairs
        # only at 3 to 12, both kinds at 15 to 21, fog-utility repairs only
        # at 24
        "dag9 budget sweep": ("dag9.scn", bench.SweepSpec(
            "budget", 0.0, 24.0, 9, reps=2, solvers=("greedy", "sa", "brute"))),
        # chains of 100 to 1000 tasks: long budget repairs, up to 1970 moves
        "chain40 long greedy task_count sweep": ("chain40.scn", bench.SweepSpec(
            "task_count", 100.0, 1000.0, 5, solvers=("greedy",))),
    }
    got = {}
    for name, (scenario, spec) in sweeps.items():
        out = tmp_path / "sweep.csv"
        bench.sweep(scenario, spec, out, workers=1)
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert cli.main(["compare", "--scenario", "dag9.scn", "--seed", "1", "--reps", "3"]) == 0
    got["dag9 compare"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == SWEEP_SHA256


# runs `cli.main` on each (argv, stdout file) pair of argv[1] with numpy
# blocked: any import of it raises ImportError, in pool workers too (forked)
_WITHOUT_NUMPY = """
import contextlib, json, sys
sys.modules["numpy"] = None
from fogsched import cli
for argv, out in json.loads(sys.argv[1]):
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        rc = cli.main(argv)
    if rc:
        sys.exit(f"{argv} exited {rc}")
"""


def _without_wall_time(text):
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("wall_time")
    return [row[:col] + row[col + 1:] for row in rows]


def test_cli_runs_without_numpy(tmp_path, monkeypatch, capsys):
    src = str(Path(bench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "FOGSCHED_WORKERS": "2"}
    probe = "import sys, fogsched.cli; print('numpy' in sys.modules)"
    imported = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True, timeout=60)
    assert imported.stdout == "False\n"

    calls = [
        ["validate", "--scenario", "chain40.scn"],
        ["run", "--scenario", "fig4.scn", "--solver", "sa", "--reps", "3"],
        ["compare", "--scenario", "fig4.scn", "--reps", "3"],
        ["sweep", "--scenario", "chain40.scn", "--param", "budget", "--from", "0.5",
         "--to", "100", "--steps", "21", "--reps", "2", "--solvers", "greedy,sa",
         "--out", "budget.csv"],
        ["sweep", "--scenario", "fig4.scn", "--param", "task_count", "--from", "3",
         "--to", "9", "--steps", "4", "--solvers", "greedy,sa,brute", "--out", "chains.csv"],
    ]
    outputs = [f"{argv[0]}{k}.out" for k, argv in enumerate(calls)]
    sub, here = tmp_path / "sub", tmp_path / "here"
    sub.mkdir()
    here.mkdir()
    subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(list(zip(calls, outputs)))],
                   cwd=sub, env=env, check=True, timeout=300)

    monkeypatch.chdir(here)
    monkeypatch.setenv("FOGSCHED_WORKERS", "2")
    for argv, out in zip(calls, outputs):
        assert cli.main(argv) == 0
        Path(out).write_text(capsys.readouterr().out, encoding="utf-8")
    names = sorted(p.name for p in here.iterdir())
    assert names == sorted(p.name for p in sub.iterdir())
    for name in names:
        blocked, plain = (d / name for d in (sub, here))
        if name.startswith("run"):
            # `run` reports measured wall time
            text = [p.read_text(encoding="utf-8") for p in (blocked, plain)]
            assert _without_wall_time(text[0]) == _without_wall_time(text[1])
        else:
            assert blocked.read_bytes() == plain.read_bytes(), name
