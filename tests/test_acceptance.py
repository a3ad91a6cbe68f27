"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run `pytest -s tests/test_acceptance.py` to see the lines as they complete.
Every tolerance is pinned here; nothing is calibrated at runtime.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fogsched import (
    BruteForceConfig,
    CloudSpec,
    FogSpec,
    GraphError,
    Infeasible,
    Platform,
    RadioLink,
    RestartsExhausted,
    SAConfig,
    Scenario,
    SolverError,
    Tier,
    bench,
    brute_force_solve,
    bundled_scenario,
    check_feasibility,
    evaluate,
    greedy_solve,
    load_scenario,
    metropolis_accept,
    sa_solve,
)
import gen
import oracles


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def _repair_free_platform():
    """Cloud per-task unprofitable: greedy's initial pass lands on the fog
    and neither repair phase runs, isolating the O(N) initial pass."""
    return Platform(
        device_cpu=1.0,
        kappa=1e-11,
        fog=FogSpec(cpu=3.6, alpha=1e-5, beta=1e-4, epsilon=3.0, price=0.001),
        cloud=CloudSpec(cpu=36.0, alpha=4e-6, beta=1e-4, epsilon=3.0, price=0.004),
        fog_cloud_bandwidth=100.0,
        fog_forward_power=0.1,
        radio=RadioLink(bandwidth=5.0, tx_power_max=1.0),
    )


def _literal_platform():
    """The baseline constants exactly as configured in defaults.scn."""
    return load_scenario(bundled_scenario("defaults.scn")).platform


def test_criterion_01_evaluator_matches_fixed_point_oracle():
    rng = np.random.default_rng(1001)
    t_start = time.perf_counter()
    worst = 0.0
    checked = 0
    for _ in range(1000):
        scn = gen.random_scenario(rng)
        placement = gen.random_placement(rng, scn.graph)
        res = evaluate(scn.graph, placement, scn.platform)
        expected = oracles.fixed_point_times(scn.graph, placement, scn.platform)
        for row in res.tasks:
            tx, fwd, fin = expected[row.task_id]
            worst = max(worst, _rel_err(row.finish, fin))
            if row.tier is not Tier.LOCAL:
                worst = max(worst, _rel_err(row.finish_tx, tx))
            if row.tier is Tier.CLOUD:
                worst = max(worst, _rel_err(row.finish_fwd, fwd))
            checked += 1
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(
        1,
        ok,
        f"evaluator vs fixed-point oracle: {checked} finish times over 1000 "
        f"scenarios, worst rel err {worst:.2e} (<=1e-12), {elapsed:.1f}s (<10s)",
    )


def test_criterion_02_exhaustive_dominance():
    rng = np.random.default_rng(2002)
    t_start = time.perf_counter()
    violations = 0
    brute_feasible = 0
    greedy_compared = 0
    sa_compared = 0
    while brute_feasible < 200:
        # alternate constraint-rich and benign families so both repair-heavy
        # greedy runs and full-length annealing runs get compared
        scn = gen.random_scenario(rng, benign=brute_feasible % 2 == 0)
        brute = brute_force_solve(replace(scn, solver_config=BruteForceConfig()))
        if not brute.feasible:
            continue
        brute_feasible += 1
        b = brute.result.makespan
        try:
            g = greedy_solve(scn)
            if g.feasible:
                greedy_compared += 1
                if b > g.result.makespan + 1e-12:
                    violations += 1
        except Infeasible:
            pass
        try:
            s = sa_solve(replace(scn, solver_config=SAConfig()))
            if s.feasible:
                sa_compared += 1
                if b > s.result.makespan + 1e-12:
                    violations += 1
        except RestartsExhausted:
            pass
    elapsed = time.perf_counter() - t_start
    ok = violations == 0 and elapsed < 60.0 and greedy_compared > 100 and sa_compared > 50
    _report(
        2,
        ok,
        f"brute <= greedy/sa on 200 feasible optima ({greedy_compared} greedy, "
        f"{sa_compared} sa comparisons), {violations} violations, "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_03_constraint_soundness():
    rng = np.random.default_rng(3003)
    checked = 0
    unsound = 0
    for _ in range(1000):
        scn = gen.random_scenario(rng)
        outcomes = []
        try:
            outcomes.append(greedy_solve(scn))
        except (Infeasible, GraphError):
            pass
        try:
            outcomes.append(sa_solve(replace(scn, solver_config=SAConfig())))
        except RestartsExhausted:
            pass
        if len(scn.graph) <= 5:
            try:
                outcomes.append(
                    brute_force_solve(replace(scn, solver_config=BruteForceConfig()))
                )
            except Infeasible:
                pass
        for out in outcomes:
            if not out.feasible:
                continue
            checked += 1
            res = evaluate(scn.graph, out.placement, scn.platform)
            report = check_feasibility(res, scn)
            if not report.feasible:
                unsound += 1
    ok = unsound == 0 and checked > 800
    _report(
        3,
        ok,
        f"{checked} feasible outcomes re-verified against all seven "
        f"constraints, {unsound} unsound",
    )


def test_criterion_04_greedy_linear_complexity():
    # iteration bound on every tested instance, budget-repair load included
    rng = np.random.default_rng(4004)
    bound_ok = True
    tested = 0
    for _ in range(300):
        scn = gen.random_scenario(rng, allow_infinite_budget=False)
        try:
            out = greedy_solve(scn)
        except Infeasible:
            continue
        tested += 1
        if out.iterations > 3 * len(scn.graph):
            bound_ok = False
    # wall-time linearity on repair-free chains
    platform = _repair_free_platform()
    ns = (100, 1000, 10000)
    times = []
    for n in ns:
        sizes = np.random.default_rng(n).uniform(100, 1000, size=n)
        scn = Scenario(
            graph=gen.chain_graph(sizes), platform=platform, budget=float("inf")
        )
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            out = greedy_solve(scn)
            best = min(best, time.perf_counter() - t0)
        assert out.iterations == n  # no repair moves on this family
        times.append(best)
    x = np.array(ns, dtype=float)
    y = np.array(times)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    ok = bound_ok and tested > 200 and r2 >= 0.95
    _report(
        4,
        ok,
        f"iterations <= 3N on {tested} repaired instances; wall time over "
        f"N={ns} fits linear with R^2={r2:.4f} (>=0.95)",
    )


def test_criterion_05_brute_force_exponential_growth():
    platform = gen.desk_platform()
    ns = list(range(6, 13))
    scenarios = [
        Scenario(
            graph=gen.chain_graph(np.random.default_rng(n).uniform(100, 1000, size=n)),
            platform=platform,
            budget=float("inf"),
            solver_config=BruteForceConfig(),
        )
        for n in ns
    ]
    # the fastest of three solves per N: a first solve and a load spike only
    # ever add time; the solves run in three passes over every N, so that a
    # drift in the host's speed hits every N alike
    times = [math.inf] * len(ns)
    for _ in range(3):
        for j, (n, scn) in enumerate(zip(ns, scenarios)):
            t0 = time.perf_counter()
            out = brute_force_solve(scn)
            times[j] = min(times[j], time.perf_counter() - t0)
            assert out.iterations == 3**n
    x = np.array(ns, dtype=float)
    y = np.log(np.array(times))
    slope = float(np.polyfit(x, y, 1)[0])
    lo, hi = 0.9 * math.log(3.0), 1.1 * math.log(3.0)
    ok = lo <= slope <= hi
    _report(
        5,
        ok,
        f"log wall-time slope over N=6..12 is {slope:.3f}, "
        f"within [{lo:.3f}, {hi:.3f}] (ln 3 = {math.log(3):.3f})",
    )


def test_criterion_06_sa_vs_greedy_gap():
    # baseline-platform family, budgets disabled; workload 100x data size
    platform = _literal_platform()
    rng = np.random.default_rng(6006)
    greedy_makespans = []
    sa_makespans = []
    for rep in range(1000):
        w = rng.uniform(1e9, 9e9, size=9)
        graph = gen.chain_graph(w, w / 100.0)
        scn = Scenario(
            graph=graph,
            platform=platform,
            budget=float("inf"),
            seed=rep,
            solver_config=SAConfig(),
        )
        greedy_makespans.append(greedy_solve(scn).result.makespan)
        sa_makespans.append(sa_solve(scn).result.makespan)
    g_mean = float(np.mean(greedy_makespans))
    s_mean = float(np.mean(sa_makespans))
    gap = (s_mean - g_mean) / g_mean
    consistent = 0.10 <= gap <= 0.50
    ok = s_mean > g_mean
    _report(
        6,
        ok,
        f"mean makespan over 1000 reps: sa {s_mean:.1f} vs greedy {g_mean:.1f}, "
        f"gap {gap:+.1%} ({'consistent with' if consistent else 'outside'} the "
        f"reported 28.13% band [10%, 50%])",
    )


def test_criterion_07_budget_sweep_shape(tmp_path):
    spec = bench.SweepSpec(
        parameter="budget", start=0.5, stop=100.0, steps=21, solvers=("greedy",)
    )
    rows = bench.sweep(
        bundled_scenario("chain40.scn"), spec, tmp_path / "budget.csv", workers=1
    )
    assert all(r.error == "" for r in rows)
    offloaded = [r.n_fog + r.n_cloud for r in rows]
    n_fog = [r.n_fog for r in rows]
    n_cloud = [r.n_cloud for r in rows]
    sum_ok = all(b >= a for a, b in zip(offloaded, offloaded[1:]))
    peak = max(range(len(n_fog)), key=lambda i: n_fog[i])
    before_ok = all(c == 0 for c in n_cloud[: peak + 1])
    after_ok = all(b >= a for a, b in zip(n_cloud, n_cloud[1:])) and n_cloud[-1] > 0
    ok = sum_ok and before_ok and after_ok
    _report(
        7,
        ok,
        f"fog+cloud non-decreasing ({sum_ok}); cloud flat at 0 until the fog "
        f"peak of {n_fog[peak]} at step {peak} ({before_ok}); cloud rises "
        f"after, to {n_cloud[-1]} ({after_ok})",
    )


def test_criterion_08_fog_price_sweep_shape(tmp_path):
    spec = bench.SweepSpec(
        parameter="fog_price",
        start=0.0005,
        stop=0.003,
        steps=6,
        solvers=("brute", "greedy"),
    )
    rows = bench.sweep(
        bundled_scenario("fig4.scn"), spec, tmp_path / "price.csv", workers=1
    )
    assert all(r.error == "" for r in rows)
    by_solver = {}
    for r in rows:
        by_solver.setdefault(r.solver, []).append((r.sweep_value, r.n_fog))
    details = []
    ok = True
    for solver in ("greedy", "brute"):
        series = [nf for _, nf in sorted(by_solver[solver])]
        mono = all(b <= a for a, b in zip(series, series[1:]))
        ok = ok and mono
        details.append(f"{solver} n_fog {series} ({'monotone' if mono else 'BUMP'})")
    _report(8, ok, "; ".join(details))


def test_criterion_09_fig4_budget_compliance():
    scn = load_scenario(bundled_scenario("fig4.scn"))
    outcomes = []
    try:
        outcomes.append(("greedy", greedy_solve(scn)))
    except SolverError as exc:
        outcomes.append(("greedy", exc))
    try:
        outcomes.append(("brute", brute_force_solve(replace(scn, solver_config=BruteForceConfig()))))
    except SolverError as exc:
        outcomes.append(("brute", exc))
    for seed in range(1, 6):
        try:
            outcomes.append(
                (f"sa[{seed}]", sa_solve(replace(scn, solver_config=SAConfig(), seed=seed)))
            )
        except SolverError as exc:
            outcomes.append((f"sa[{seed}]", exc))
    silent = []
    summary = []
    for name, out in outcomes:
        if isinstance(out, SolverError):
            summary.append(f"{name}: {type(out).__name__}")
            continue
        cost = out.result.total_cost
        summary.append(f"{name}: cost {cost:.3f}")
        if cost > scn.budget + 1e-9:
            silent.append(name)
    ok = not silent
    _report(
        9,
        ok,
        f"budget 6 respected or explicitly refused by every solver "
        f"({'; '.join(summary)}); silent violations: {silent or 'none'}",
    )


def test_criterion_10_metropolis_calibration():
    trials = 100_000
    worst = 0.0
    details = []
    for delta, tem in ((1.0, 1.0), (2.0, 1.5), (0.5, 1.0)):
        rng = np.random.default_rng(hash((delta, tem)) % 2**32)
        accepted = sum(metropolis_accept(delta, tem, rng) for _ in range(trials))
        freq = accepted / trials
        target = math.exp(-delta / tem)
        err = abs(freq - target)
        worst = max(worst, err)
        details.append(f"dT={delta}/T={tem}: {freq:.4f} vs {target:.4f}")
    ok = worst <= 0.01
    _report(
        10,
        ok,
        f"acceptance frequency over {trials} trials within {worst:.4f} "
        f"(<=0.01) of exp(-dT/T): " + "; ".join(details),
    )


def test_criterion_11_sweep_determinism(tmp_path):
    spec = bench.SweepSpec(
        parameter="budget",
        start=2.0,
        stop=20.0,
        steps=5,
        reps=2,
        solvers=("greedy", "sa"),
    )
    out1 = tmp_path / "first.csv"
    out2 = tmp_path / "second.csv"
    bench.sweep(bundled_scenario("chain40.scn"), spec, out1, workers=1)
    bench.sweep(bundled_scenario("chain40.scn"), spec, out2, workers=2)
    identical = out1.read_bytes() == out2.read_bytes()
    _report(
        11,
        identical,
        f"repeated sweep invocations (serial and 2 workers) produced "
        f"byte-identical CSV ({out1.stat().st_size} bytes)",
    )
