"""Solvers: greedy phases, annealing contract, exhaustive search."""
import hashlib
import math
import pickle

import numpy as np
import pytest

from fogsched import bench, cli, schedule, solvers
from fogsched.model import SOLVER_KINDS
from fogsched import (
    BruteForceConfig,
    RestartsExhausted,
    CloudSpec,
    FogSpec,
    GraphError,
    GreedyConfig,
    Infeasible,
    Placement,
    Platform,
    RadioLink,
    SAConfig,
    Scenario,
    SolverError,
    TaskGraph,
    TaskSpec,
    Tier,
    TooLarge,
    brute_force_solve,
    bundled_scenario,
    check_feasibility,
    evaluate,
    greedy_solve,
    load_scenario,
    metropolis_accept,
    sa_solve,
    save_scenario,
    solve,
)
from collections import Counter
from dataclasses import fields, replace

import gen
import oracles


def test_metropolis_accepts_non_worsening():
    rng = np.random.default_rng(0)
    for delta in (-5.0, -1e-12, 0.0):
        assert metropolis_accept(delta, 1e-9, rng)
    assert not metropolis_accept(1.0, 0.0, rng)


# ---------------------------------------------------------------- greedy


def _single_task_platform():
    """Local is slow (10), fog finishes at 1.2, cloud at 1.3, cloud profitable."""
    return Platform(
        device_cpu=0.1,
        kappa=0.0,
        fog=FogSpec(cpu=1.0, alpha=0.0, beta=0.0, price=0.001),
        cloud=CloudSpec(cpu=10.0, alpha=0.0, beta=1.0, price=0.2),
        fog_cloud_bandwidth=1.0,
        fog_forward_power=0.0,
        radio=RadioLink(bandwidth=5.0, tx_power_max=1.0),
    )


def test_greedy_all_local_when_local_dominates():
    # tiny workloads over a slow link: the first branch fires for every task
    sizes = [0.001, 0.002, 0.003]
    tasks = [TaskSpec(i + 1, w, 1000.0) for i, w in enumerate(sizes)]
    g = TaskGraph(tasks, [(1, 2), (2, 3)])
    scn = Scenario(graph=g, platform=gen.desk_platform(), budget=float("inf"))
    out = greedy_solve(scn)
    assert out.result.tiers == (Tier.LOCAL,) * 3
    assert out.iterations == 3  # no repair moves
    assert out.feasible


def test_greedy_single_task_goes_cloud():
    g = TaskGraph([TaskSpec(1, 1.0, 1.0)])
    scn = Scenario(graph=g, platform=_single_task_platform(), budget=float("inf"))
    out = greedy_solve(scn)
    assert out.placement.assignment[1] is Tier.CLOUD
    assert out.feasible


def test_greedy_fig4_within_budget():
    scn = load_scenario(bundled_scenario("fig4.scn"))
    out = greedy_solve(scn)
    assert out.feasible
    assert out.result.total_cost <= 6.0 + 1e-9
    # exhaustive feasibility oracle for the same scenario
    oracle = brute_force_solve(replace(scn, solver_config=BruteForceConfig()))
    assert oracle.feasible
    assert oracle.result.total_cost <= 6.0 + 1e-9
    assert oracle.result.makespan <= out.result.makespan + 1e-12


def test_greedy_budget_repair_cost_monotone():
    rng = np.random.default_rng(42)
    repaired = 0
    for _ in range(100):
        scn = gen.random_scenario(rng, allow_infinite_budget=False)
        trace: list = []
        try:
            out = greedy_solve(scn, trace=trace)
        except Infeasible:
            continue
        phase2 = [cost for phase, _, cost in trace if phase == 2]
        if phase2:
            repaired += 1
            for earlier, later in zip(phase2, phase2[1:]):
                assert later <= earlier + 1e-9
        assert out.iterations <= 3 * len(scn.graph)
    assert repaired > 10  # the property must actually have been exercised


def test_greedy_infeasible_when_budget_zero():
    tasks = [TaskSpec(1, 100.0, 100.0)]
    platform = Platform(
        device_cpu=1.0,
        kappa=1e-3,  # local energy 0.1 > budget
        fog=FogSpec(cpu=3.6, alpha=1.0, beta=1.0, price=0.5),
        cloud=CloudSpec(cpu=36.0, alpha=1.0, beta=1.0, price=0.5),
        fog_cloud_bandwidth=100.0,
        fog_forward_power=0.1,
        radio=RadioLink(bandwidth=5.0, tx_power_max=1.0),
    )
    scn = Scenario(graph=TaskGraph(tasks), platform=platform, budget=0.0)
    with pytest.raises(Infeasible):
        greedy_solve(scn)


def test_greedy_matches_reference_when_ids_are_not_topological():
    # phase 1 walks the topological order, so it picks each task's tier as
    # it does under topological ids, and the whole solve matches the
    # reference loop
    rng = np.random.default_rng(66)
    seen = Counter()
    for _ in range(200):
        scn = gen.random_scenario(rng, n_max=12)
        shuffled = replace(scn, graph=gen.permute_ids(rng, scn.graph))
        # the sizes are continuous draws, so they tell which task got which id
        old_id = {(t.workload, t.data_size): t.id for t in scn.graph.tasks}
        start = solvers._greedy_start(schedule.EvalContext(scn.graph, scn.platform))
        got = solvers._greedy_start(schedule.EvalContext(shuffled.graph, scn.platform))
        assert got == [start[old_id[t.workload, t.data_size] - 1] for t in shuffled.graph.tasks]
        got_trace, want_trace = [], []
        got = _outcome_or_error(greedy_solve, shuffled, got_trace)
        assert got == _outcome_or_error(oracles.greedy_reference, shuffled, want_trace)
        assert repr(got_trace) == repr(want_trace)
        seen["shuffled"] += any(a > b for a, b in shuffled.graph.edges)
        seen["error"] += got[0] is Infeasible
        seen["moves"] += len(got_trace)
    assert seen["shuffled"] > 120 and seen["moves"] > 300, seen


def test_greedy_fog_utility_repair_runs():
    # cloud profitable, forwarding expensive: the initial all-cloud pass
    # leaves fog utility negative, phase 3 claws tasks back to the fog
    scn = load_scenario(bundled_scenario("chain40.scn"))
    scn = replace(scn, budget=100.0)
    trace: list = []
    out = greedy_solve(scn, trace=trace)
    assert any(phase == 3 for phase, _, _ in trace)
    assert out.feasible
    assert out.result.fog_utility >= -1e-9


def _outcome_or_error(solver, scn, *trace):
    try:
        out = solver(scn, *trace)
    except (SolverError, GraphError) as exc:
        return type(exc), str(exc)
    return out.placement, repr(out.result), out.feasible, out.iterations


def test_greedy_matches_reference_loop():
    # running sums and sorted orders against full re-evaluation and rescans: same
    # moves in the same order, same outcome or the same error
    rng = np.random.default_rng(61)
    seen = Counter()
    for k in range(320):
        scn = gen.random_scenario(rng, n_max=12, allow_infinite_budget=k % 4 == 0)
        n = len(scn.graph)
        if k % 5 == 0:
            # equal tasks: every pick is decided by the lowest-index tie rule
            scn = replace(scn, graph=gen.chain_graph([400.0] * n, [600.0] * n))
        elif k % 5 == 1:
            # forwarding-heavy cloud: the fog-utility repair does most moves
            sizes = rng.uniform(100.0, 1000.0, size=n)
            scn = replace(scn, graph=gen.chain_graph(sizes), platform=gen.desk_platform(),
                          budget=float("inf"))
        elif k % 10 == 9:
            # device energy above any budget: all-local still does not fit
            scn = replace(scn, platform=replace(scn.platform, kappa=1e-6), budget=0.0)
        got_trace, want_trace = [], []
        got = _outcome_or_error(greedy_solve, scn, got_trace)
        want = _outcome_or_error(oracles.greedy_reference, scn, want_trace)
        assert got == want
        assert repr(got_trace) == repr(want_trace)
        seen.update(phase for phase, _, _ in got_trace)
        seen["error"] += got[0] is Infeasible
    assert seen[2] > 1000 and seen[3] > 200 and seen["error"] > 20, seen


def test_greedy_repairs_evaluate_only_the_returned_placement(monkeypatch):
    calls = []
    original = schedule._core_eval

    def counting_eval(ctx, tiers, *resume):
        calls.append(list(tiers))
        return original(ctx, tiers, *resume)

    monkeypatch.setattr(solvers, "_core_eval", counting_eval)
    platform = gen.desk_platform()
    for n, repairs in ((300, 165), (1000, 531), (3000, 1631)):
        sizes = np.random.default_rng(n).uniform(100, 1000, size=n)
        scn = Scenario(graph=gen.chain_graph(sizes), platform=platform, budget=float("inf"))
        calls.clear()
        out = greedy_solve(scn)
        assert out.iterations == n + repairs
        assert calls == [[int(out.placement.assignment[i + 1]) for i in range(n)]]


def _fresh_graph(scn):
    return replace(scn, graph=TaskGraph(scn.graph.tasks, scn.graph.edges))


def _phase2_totals(scn):
    """The cost totals a budget of 0 makes phase 2 pass through."""
    trace: list = []
    _outcome_or_error(oracles.greedy_reference, replace(_fresh_graph(scn), budget=0.0), trace)
    return [total for phase, _, total in trace if phase == 2]


def _budget_at_limit(total):
    """A budget whose limit, budget + TIME_TOL, is exactly `total`, so that
    only a comparison that includes equality lets the total through (the
    total itself where no float budget gives that limit)."""
    b = total - schedule.TIME_TOL
    for _ in range(8):
        if b + schedule.TIME_TOL == total:
            return b
        b = math.nextafter(b, total if b + schedule.TIME_TOL < total else -math.inf)
    return total


def _prefix_cases():
    """(scenario, budgets): chain40, desk-platform chains and random cases,
    each with budgets whose limit is on, just above and just below phase-2
    totals (about ten of them, the last included)."""
    chain40 = load_scenario(bundled_scenario("chain40.scn"))
    rng = np.random.default_rng(65)
    scenarios = [chain40, replace(chain40, platform=gen.desk_platform())]
    for n in (5, 17, 40):
        sizes = rng.uniform(100.0, 1000.0, size=n)
        scenarios.append(Scenario(graph=gen.chain_graph(sizes), platform=gen.desk_platform(),
                                  budget=float("inf")))
    for k in range(60):
        scn = gen.random_scenario(rng, n_max=12)
        if k % 10 == 9:
            # device energy above any budget: all-local still does not fit
            scn = replace(scn, platform=replace(scn.platform, kappa=1e-6))
        scenarios.append(scn)
    for scn in scenarios:
        budgets = {0.0, float("inf"), 2.0 * schedule.TIME_TOL}
        totals = _phase2_totals(scn)
        for total in totals[:: 1 + len(totals) // 10] + totals[-1:]:
            budgets.update((_budget_at_limit(total), total - 2 * schedule.TIME_TOL, total))
        yield scn, sorted(budgets)


def test_greedy_prefix_matches_fresh_reference_in_any_budget_order():
    # one graph object solved over a budget sweep in ascending, descending
    # and shuffled order: every solve, read from the kept prefix, matches
    # the reference on a fresh graph, trace entries and error included
    rng = np.random.default_rng(66)
    seen = Counter()
    for scn, budgets in _prefix_cases():
        want = {}
        for b in budgets:
            trace: list = []
            want[b] = _outcome_or_error(oracles.greedy_reference,
                                        replace(_fresh_graph(scn), budget=b), trace), repr(trace)
        shuffled = list(budgets)
        rng.shuffle(shuffled)
        for order in (budgets, budgets[::-1], shuffled):
            one = _fresh_graph(scn)
            for b in order:
                trace = []
                got = _outcome_or_error(greedy_solve, replace(one, budget=b), trace)
                assert (got, repr(trace)) == want[b], (b, order)
                seen["error" if got[0] is Infeasible else "solved"] += 1
                seen["phase 2"] += any(phase == 2 for phase, _, _ in trace)
    assert seen["error"] > 300 and seen["solved"] > 3000 and seen["phase 2"] > 3000, seen


def test_greedy_prefix_makes_only_the_moves_a_budget_needs():
    # the kept prefix grows only to the longest phase-2 repair solved so
    # far, so no solve makes more budget-repair moves than its own repair
    # takes, and a budget that needs none adds none
    for scn, budgets in _prefix_cases():
        one = _fresh_graph(scn)
        made = 0
        for b in [float("inf")] + budgets[::-1]:
            trace: list = []
            want = _outcome_or_error(oracles.greedy_reference,
                                     replace(_fresh_graph(scn), budget=b), trace)
            if want[0] is GraphError:
                break
            needs = sum(phase == 2 for phase, _, _ in trace)
            _outcome_or_error(greedy_solve, replace(one, budget=b))
            made = max(made, needs)
            prefix, _ = oracles.greedy_kept(one)
            assert len(prefix.totals) - 1 == made
    # repair-heavy desk chains with no budget: phase 3 only, no phase-2 move;
    # the 300-task chain against the reference, the 3000-task one (where the
    # reference takes seconds) against values it gave
    for n in (300, 3000):
        sizes = np.random.default_rng(n).uniform(100, 1000, size=n)
        scn = Scenario(graph=gen.chain_graph(sizes), platform=gen.desk_platform(),
                       budget=float("inf"))
        got = _full_outcome(greedy_solve, scn)
        assert len(oracles.greedy_kept(scn)[0].totals) == 1
        if n == 300:
            assert got == _full_outcome(oracles.greedy_reference, scn)
            continue
        (_, result, _, _, iterations), trace = got
        assert iterations == 4631 and trace.count("(3, ") == 1631 and "(2, " not in trace
        assert result.makespan.hex() == "0x1.0e2e2f195bd87p+18"
        assert result.fog_utility.hex() == "0x1.ed7710f0aa124p-3"
        assert hashlib.sha256(bytes(result.tiers)).hexdigest().startswith("955a08e8cc88e12f")


def test_greedy_sorts_repair_orders_only_for_a_move(monkeypatch):
    # chain40 at budget 20: the first solve on a fresh graph sorts the budget
    # repair's order once and keeps it with its totals, and its fog utility
    # needs no move; a second solve reads the kept totals and sorts nothing
    scn = replace(load_scenario(bundled_scenario("chain40.scn")), budget=20.0)
    calls = []
    original = solvers._demotions

    def counting(*args):
        calls.append(tuple(args[0]))
        return original(*args)

    monkeypatch.setattr(solvers, "_demotions", counting)
    trace: list = []
    first = greedy_solve(scn, trace)
    assert trace and not any(phase == 3 for phase, _, _ in trace)
    prefix, _ = oracles.greedy_kept(scn)
    assert calls == [prefix.start]
    calls.clear()
    second = greedy_solve(scn)
    assert calls == []
    assert second == first


def _kept_totals(scn):
    """Every phase-2 cost total greedy keeps for `scn`, the phase-1 total
    first, read from a fresh graph solved at budget 0."""
    one = _fresh_graph(replace(scn, budget=0.0))
    _outcome_or_error(greedy_solve, one)
    return list(oracles.greedy_kept(one)[0].totals)


def _full_outcome(solver, scn):
    """`solver`'s outcome on `scn`, or its error, with the trace entries
    of a solver that takes a trace."""
    trace: list = []
    try:
        out = (solver(scn, trace) if solver in (greedy_solve, oracles.greedy_reference)
               else solver(scn))
    except (SolverError, GraphError) as exc:
        return (type(exc), str(exc)), repr(trace)
    res = out.result
    return (out.placement, res, hash(res), out.feasible, out.iterations), repr(trace)


def test_any_solve_order_matches_cold_solves_and_reference():
    # one graph solved by a shuffled sequence of (solver, budget, seed): each
    # budget twice by greedy, so that most greedy solves read the fog-utility
    # repair and final evaluation kept for their phase-2 length, with
    # annealing and exhaustive solves (the latter on at most 9 tasks) at
    # random places, budgets and seeds among them; every outcome matches a
    # solve on a freshly unpickled copy of the unsolved graph, every greedy
    # one the reference too, and so does every second solve of the sequence
    # on an unpickled copy of the solved graph, which carries what was kept
    rng = np.random.default_rng(67)
    mix = np.random.default_rng(68)
    seen = Counter()
    for k in range(40):
        scn = gen.random_scenario(rng, n_max=12, allow_infinite_budget=False)
        if k % 3 == 0:
            scn = replace(scn, graph=gen.permute_ids(rng, scn.graph))
        if k % 10 == 9:
            # device energy above any budget: all-local still does not fit
            scn = replace(scn, platform=replace(scn.platform, kappa=1e-6))
        budgets = {0.0, math.inf}
        for total in _kept_totals(scn):
            budgets.update(b for b in (total - schedule.TIME_TOL, total + schedule.TIME_TOL)
                           if b >= 0)
        budgets = sorted(budgets)
        order = budgets * 2
        rng.shuffle(order)
        order = [(greedy_solve, b, scn.seed) for b in order]
        others = (sa_solve, brute_force_solve) if len(scn.graph) <= 9 else (sa_solve,)
        for _ in range(3):
            order.insert(mix.integers(len(order) + 1),
                         (others[mix.integers(len(others))],
                          budgets[mix.integers(len(budgets))], scn.seed + int(mix.integers(2))))
        cold = pickle.dumps(scn)
        one = _fresh_graph(scn)
        want = {}
        got = []
        for solver, b, seed in order:
            got.append(_full_outcome(solver, replace(one, budget=b, seed=seed)))
            fresh = _full_outcome(solver, replace(pickle.loads(cold), budget=b, seed=seed))
            assert got[-1] == fresh, (k, solver.__name__, b, seed)
            seen[solver.__name__] += 1
            if solver is not greedy_solve:
                continue
            if b not in want:
                want[b] = _full_outcome(oracles.greedy_reference,
                                        replace(_fresh_graph(scn), budget=b))
            assert got[-1] == want[b], (k, b)
            seen["error" if got[-1][0][0] is Infeasible else "solved"] += 1
        _, tails = oracles.greedy_kept(one)
        # one tail per phase-2 length, and a budget repair makes at most 2N moves
        assert len(tails) <= 2 * len(scn.graph) + 1
        seen["tails"] += len(tails)
        seen["solves"] += 2 * len(budgets)
        warm = pickle.loads(pickle.dumps(one))
        assert len(oracles.greedy_kept(warm)[1]) == len(tails)
        for (solver, b, seed), outcome in list(zip(order, got))[::2]:
            assert _full_outcome(solver, replace(warm, budget=b, seed=seed)) == outcome, (k, b)
    assert seen["error"] > 40 and seen["solved"] > 1000, seen
    assert seen["sa_solve"] >= 40 and seen["brute_force_solve"] >= 20, seen
    # most greedy solves read a kept tail
    assert seen["tails"] < seen["solves"] // 3, seen


def test_greedy_budget_sweep_evaluates_once_per_phase2_length(tmp_path, monkeypatch):
    # a serial chain40 budget sweep, 21 budgets x 5 reps, on one graph: its
    # 105 greedy solves take 17 distinct phase-2 lengths, and greedy
    # evaluates a schedule once per length
    calls = Counter()
    original = schedule._core_eval

    def counting_eval(ctx, tiers, *resume):
        calls["full" if not resume else "resumed"] += 1
        return original(ctx, tiers, *resume)

    def no_walk(*args):
        calls["outside the solver"] += 1
        return original(*args)

    monkeypatch.setattr(solvers, "_core_eval", counting_eval)
    monkeypatch.setattr(schedule, "_core_eval", no_walk)
    spec = bench.SweepSpec("budget", 0.5, 100.0, 21, reps=5, solvers=("greedy",))
    rows = bench.sweep(bundled_scenario("chain40.scn"), spec, tmp_path / "b.csv", workers=1)
    assert len(rows) == 105 and all(r.error == "" for r in rows)
    assert len({r.iterations for r in rows}) == 17
    # each kept evaluation is one full walk, which records every task's
    # step, and no feasibility check of the solves sharing it walks again
    assert calls == Counter({"full": 17})


# ---------------------------------------------------------------- annealing


def test_anneal_matches_reference_loop(monkeypatch):
    # resumed walks, the seed mixed once per solve and the start drawn in
    # one call, against a full evaluation per proposal and numpy's streams;
    # every fifth case has a seed of 2^64 or more (three to five 32-bit
    # words).  A case is long when its solve made more than three runs,
    # counted as the restart streams it drew.
    runs = []
    from_pool = solvers.Stream.from_pool

    def counting_from_pool(pool, spawn_key=()):
        runs.append(spawn_key)
        return from_pool(pool, spawn_key)

    monkeypatch.setattr(solvers.Stream, "from_pool", counting_from_pool)
    rng = np.random.default_rng(62)
    seen = Counter()
    for k in range(440):
        scn = gen.random_scenario(rng, n_max=10, benign=k % 6 == 0)
        if k < 120:
            scn = replace(scn, graph=gen.permute_ids(rng, scn.graph))
        if k % 5 == 4:
            scn = replace(scn, seed=scn.seed + 2 ** (64 + k % 70))
        runs.clear()
        got = _outcome_or_error(sa_solve, scn)
        assert got == _outcome_or_error(oracles.anneal_reference, scn)
        kind = got[0] if isinstance(got[0], type) else "solved"
        seen[kind] += 1
        if len(runs) > 3:
            seen["long", kind] += 1
    assert seen[RestartsExhausted] > 50 and seen["solved"] > 150, seen
    assert seen["long", RestartsExhausted] > 5 and seen["long", "solved"] > 5, seen


def test_anneal_evaluates_each_proposal_once(monkeypatch):
    # one evaluation, then one Metropolis test, per proposal, including the
    # proposals whose clamped step leaves the tier unchanged
    calls = []
    original_eval = schedule._core_eval
    original_accept = solvers.metropolis_accept

    def counting_eval(ctx, tiers, *resume):
        calls.append("eval")
        return original_eval(ctx, tiers, *resume)

    def counting_accept(delta, temperature, rng):
        calls.append("accept")
        return original_accept(delta, temperature, rng)

    monkeypatch.setattr(solvers, "_core_eval", counting_eval)
    monkeypatch.setattr(solvers, "metropolis_accept", counting_accept)
    rng = np.random.default_rng(64)
    for k in range(6):
        scn = gen.random_scenario(rng, n_max=10, benign=True)
        scn = replace(scn, budget=float("inf"), solver_config=SAConfig())
        calls.clear()
        out = sa_solve(scn)
        assert out.iterations > 0
        assert calls == ["eval"] + ["eval", "accept"] * out.iterations + ["eval"]


def test_sa_determinism():
    rng = np.random.default_rng(56)
    scn = gen.random_scenario(rng)
    scn = replace(scn, seed=1234)
    a = sa_solve(scn)
    b = sa_solve(scn)
    assert a.placement == b.placement
    assert a.result == b.result
    assert a.iterations == b.iterations


def _free_forwarding_chain() -> Scenario:
    """A 6-task chain on a free-forwarding platform with no budget, where
    every placement is feasible and no utility turns negative."""
    platform = Platform(
        device_cpu=1.0,
        kappa=1e-11,
        fog=FogSpec(cpu=3.6, alpha=1e-5, beta=1e-4, price=0.001),
        cloud=CloudSpec(cpu=36.0, alpha=1e-7, beta=1e-4, price=0.004),
        fog_cloud_bandwidth=100.0,
        fog_forward_power=0.0,
        radio=RadioLink(bandwidth=5.0, tx_power_max=1.0),
    )
    g = gen.chain_graph([100.0, 400.0, 250.0, 800.0, 150.0, 600.0])
    return Scenario(graph=g, platform=platform, solver_config=SAConfig())


def test_sa_schedule_is_fixed():
    # Kirkpatrick et al.'s schedule, as constants: no field to set, and the
    # same values read off an instance
    assert fields(SAConfig) == ()
    cfg = SAConfig()
    assert (cfg.t0, cfg.cool, cfg.t_stop, cfg.neighbor_range, cfg.max_restarts) == (
        100.0, 0.98, 0.1, 3, 50)
    with pytest.raises(TypeError):
        SAConfig(t0=5)
    # it cools in 342 proposals, every run's length when the utility guard
    # never stops it: budget-free, the first run is returned
    scn = _free_forwarding_chain()
    for seed in range(3):
        assert sa_solve(replace(scn, seed=seed)).iterations == 342


def test_sa_not_below_exhaustive_optimum():
    # on a platform where every placement is feasible the exhaustive
    # optimum is a true lower bound of every annealing run
    scn = _free_forwarding_chain()
    best = brute_force_solve(replace(scn, solver_config=BruteForceConfig()))
    for seed in range(5):
        out = sa_solve(replace(scn, seed=seed))
        assert out.result.makespan >= best.result.makespan - 1e-12


def test_sa_respects_budget_via_restarts():
    scn = load_scenario(bundled_scenario("fig4.scn"))
    for seed in range(5):
        out = sa_solve(replace(scn, solver_config=SAConfig(), seed=seed))
        assert out.result.total_cost <= scn.budget + 1e-9


def test_sa_guard_ignores_random_start():
    # The utility guard starts from u_f = u_c = 0, not from the random start's
    # utilities, so even a start with negative utilities gets one proposal.
    scn = load_scenario(bundled_scenario("defaults.scn"))
    scn = replace(scn, solver_config=SAConfig())
    stream = np.random.default_rng(np.random.SeedSequence(entropy=scn.seed, spawn_key=(0,)))
    start = Placement({i + 1: Tier(int(v)) for i, v in enumerate(stream.integers(1, 4, size=9))})
    res = evaluate(scn.graph, start, scn.platform)
    assert res.fog_utility < 0 or res.cloud_utility < 0
    out = sa_solve(scn)  # budget .inf: the first run is the one returned
    assert out.iterations >= 1


# ---------------------------------------------------------------- shared


def test_one_eval_context_per_graph_and_platform(monkeypatch, tmp_path):
    builds = []
    original = schedule.EvalContext.__init__

    def counting_init(ctx, graph, platform):
        builds.append(len(graph))
        original(ctx, graph, platform)

    monkeypatch.setattr(schedule.EvalContext, "__init__", counting_init)
    fig4 = load_scenario(bundled_scenario("fig4.scn"))
    small = replace(
        fig4, graph=gen.chain_graph(gen.FIG4_SIZES[:5]), solver_config=BruteForceConfig()
    )
    sa = SAConfig()
    cases = [
        (greedy_solve, fig4, None),
        (greedy_solve, replace(fig4, budget=0.0), Infeasible),
        (sa_solve, replace(fig4, solver_config=sa), None),
        (sa_solve, replace(fig4, budget=0.0, solver_config=sa), RestartsExhausted),
        (brute_force_solve, small, None),
        (brute_force_solve, replace(small, budget=0.0), Infeasible),
    ]
    outcomes = []
    for fn, scn, error in cases:
        if error is None:
            out = fn(scn)
            outcomes.append((fn, scn, out))
            evaluate(scn.graph, out.placement, scn.platform)
        else:
            with pytest.raises(error):
                fn(scn)
    # one build per (graph, platform), shared by every solve and evaluation
    assert builds == [9, 5]

    # another platform builds anew, once; an equal but distinct one does not
    pricier = replace(fig4.platform, fog=replace(fig4.platform.fog, price=0.5))
    for platform in (pricier, pricier, replace(pricier), replace(fig4.platform)):
        greedy_solve(replace(fig4, platform=platform))
    assert builds == [9, 5, 9, 9]

    # an unpickled graph keeps its context and solves bit-identically
    builds.clear()
    for fn, scn, out in outcomes:
        copy = replace(scn, graph=pickle.loads(pickle.dumps(scn.graph)))
        again = fn(copy)
        assert repr(again) == repr(out)
    assert builds == []

    # a serial budget sweep builds one context for all of its solves
    spec = bench.SweepSpec("budget", 0.5, 10.0, 4, reps=2, solvers=("greedy", "sa", "brute"))
    rows = bench.sweep("fig4.scn", spec, tmp_path / "budget.csv", workers=1)
    assert len(rows) == 24 and builds == [9]


# ---------------------------------------------------------------- exhaustive


def test_brute_single_task_picks_best_feasible_tier():
    g = TaskGraph([TaskSpec(1, 1.0, 1.0)])
    scn = Scenario(
        graph=g,
        platform=_single_task_platform(),
        budget=float("inf"),
        solver_config=BruteForceConfig(),
    )
    out = brute_force_solve(scn)
    # fog finishes at 1.2 vs local 10 and cloud 1.3
    assert out.placement.assignment[1] is Tier.FOG
    assert out.iterations == 3


def test_brute_on_no_tasks_tests_the_empty_placement():
    scn = Scenario(graph=TaskGraph([]), platform=_single_task_platform(), budget=0.0,
                   solver_config=BruteForceConfig())
    out = brute_force_solve(scn)
    assert (out.placement.assignment, out.iterations, out.feasible) == ({}, 1, True)


def test_no_tasks_solve_to_the_empty_placement(tmp_path, capsys, monkeypatch):
    # annealing has nothing to perturb: it proposes and draws nothing
    empty = replace(load_scenario(bundled_scenario("fig4.scn")), graph=TaskGraph([], []))

    def no_draw(*args):
        raise AssertionError("drew from the stream")

    monkeypatch.setattr(solvers.Stream, "integers", no_draw)
    for cfg, iterations in ((GreedyConfig(), 0), (SAConfig(), 0), (BruteForceConfig(), 1)):
        out = solve(replace(empty, solver_config=cfg))
        assert (out.placement.assignment, out.iterations, out.feasible) == ({}, iterations, True)
        assert (out.result.makespan, out.result.total_cost, out.result.tasks) == (0.0, 0.0, ())
    scn = replace(empty, solver_config=SAConfig())
    assert _outcome_or_error(sa_solve, scn) == _outcome_or_error(oracles.anneal_reference, scn)
    path = save_scenario(empty, tmp_path / "empty.scn")
    capsys.readouterr()
    assert cli.main(["compare", "--scenario", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [r.split()[0] for r in rows] == ["greedy", "sa", "brute"]
    assert all(r.split()[-1] == "100%" for r in rows)


def test_brute_infeasible_when_budget_zero():
    tasks = [TaskSpec(1, 100.0, 100.0)]
    platform = Platform(
        device_cpu=1.0,
        kappa=1e-3,
        fog=FogSpec(cpu=3.6, alpha=1.0, beta=1.0, price=0.5),
        cloud=CloudSpec(cpu=36.0, alpha=1.0, beta=1.0, price=0.5),
        fog_cloud_bandwidth=100.0,
        fog_forward_power=0.1,
        radio=RadioLink(bandwidth=5.0, tx_power_max=1.0),
    )
    scn = Scenario(
        graph=TaskGraph(tasks), platform=platform, budget=0.0,
        solver_config=BruteForceConfig(),
    )
    with pytest.raises(Infeasible):
        brute_force_solve(scn)


def test_brute_too_large():
    g = gen.chain_graph([1.0] * 15)
    scn = Scenario(graph=g, platform=gen.desk_platform(), solver_config=BruteForceConfig())
    with pytest.raises(TooLarge, match="15 tasks exceed the exhaustive-search cap of 14"):
        brute_force_solve(scn)


def _tie_platform():
    """Every tier of a TaskSpec(_, 1.0, 0.5) task takes exactly 1.0 and
    nothing costs or earns anything, so many placements tie exactly."""
    return Platform(
        device_cpu=1.0,
        kappa=0.0,
        fog=FogSpec(cpu=2.0, alpha=0.0, beta=0.0, price=0.0),
        cloud=CloudSpec(cpu=4.0, alpha=0.0, beta=0.0, price=0.0),
        fog_cloud_bandwidth=2.0,
        fog_forward_power=0.0,
        radio=RadioLink(bandwidth=1.0, tx_power_max=1.0),
    )


def test_brute_tie_break_prefers_local():
    # all three tiers finish at exactly 1.0 and cost nothing
    g = TaskGraph([TaskSpec(1, 1.0, 0.5)])
    out = brute_force_solve(
        Scenario(graph=g, platform=_tie_platform(), solver_config=BruteForceConfig())
    )
    assert out.result.makespan == 1.0
    assert out.placement.assignment[1] is Tier.LOCAL


def _assert_brute_matches_oracle(scn):
    """The prefix-sharing walk against the straightforward enumeration:
    same placement, same evaluation, the same count of placements tested
    (3^N), or Infeasible from both."""
    want, count = oracles.exhaustive_optimum(scn)
    if want is None:
        with pytest.raises(Infeasible):
            brute_force_solve(scn)
        return False
    got = brute_force_solve(scn)
    placement = Placement({i + 1: Tier(t) for i, t in enumerate(want)})
    assert got.placement == placement
    assert repr(got.result) == repr(evaluate(scn.graph, placement, scn.platform))
    assert got.iterations == count == 3 ** len(scn.graph)
    return True


def test_brute_matches_oracle_on_random_scenarios():
    rng = np.random.default_rng(2024)
    solved = 0
    for _ in range(240):
        scn = gen.random_scenario(rng, n_max=7)
        solved += _assert_brute_matches_oracle(replace(scn, solver_config=BruteForceConfig()))
    assert solved == 240


def test_brute_matches_oracle_when_ids_are_not_topological():
    rng = np.random.default_rng(2025)
    shuffled = 0
    for _ in range(60):
        graph = gen.permute_ids(rng, gen.random_dag(rng, int(rng.integers(3, 8)), p_edge=0.5))
        shuffled += any(a > b for a, b in graph.edges)
        platform = gen.desk_platform(rng)
        all_fog_cost = platform.fog.price * sum(t.data_size for t in graph.tasks)
        scn = Scenario(
            graph=graph,
            platform=platform,
            budget=float(rng.uniform(0.3, 1.5)) * all_fog_cost,
            solver_config=BruteForceConfig(),
        )
        _assert_brute_matches_oracle(scn)
    assert shuffled > 40


def test_brute_matches_oracle_on_exact_ties():
    # zero-cost platform: the optimum is decided by the tie rule alone, in
    # id order even where the ids are not a topological order
    rng = np.random.default_rng(2026)
    for k in range(40):
        n = int(rng.integers(2, 7))
        graph = gen.random_dag(rng, n, p_edge=0.4)
        graph = TaskGraph([TaskSpec(t.id, 1.0, 0.5) for t in graph.tasks], graph.edges)
        if k % 2:
            graph = gen.permute_ids(rng, graph)
        scn = Scenario(
            graph=graph,
            platform=_tie_platform(),
            solver_config=BruteForceConfig(),
        )
        assert _assert_brute_matches_oracle(scn)


def test_brute_matches_oracle_at_the_budget_tolerance():
    # C7 admits a cost up to the budget plus TIME_TOL: a budget at exactly a
    # placement's cost, or half or a whole tolerance under it, admits the
    # placement, and one and a half tolerances under it refuse it.  The
    # placements are the unconstrained optimum and a random one.
    rng = np.random.default_rng(2028)
    tol = schedule.TIME_TOL
    refused = 0
    for _ in range(30):
        scn = replace(gen.random_scenario(rng, n_max=6), budget=float("inf"),
                      solver_config=BruteForceConfig())
        free = brute_force_solve(scn)
        other = evaluate(scn.graph, gen.random_placement(rng, scn.graph), scn.platform)
        for cost in (free.result.total_cost, other.total_cost):
            for budget in (cost, cost - tol / 2, cost - tol, cost - 1.5 * tol):
                if budget < 0:
                    continue
                at = replace(scn, budget=budget)
                admitted = budget > cost - 1.5 * tol
                if not _assert_brute_matches_oracle(at):
                    assert not (admitted and cost == free.result.total_cost)
                    continue
                got = brute_force_solve(at)
                assert got.result.total_cost <= budget + tol
                if cost == free.result.total_cost:
                    assert (got.placement == free.placement) == admitted
                    refused += not admitted
    assert refused > 20


def test_brute_matches_oracle_on_one_task():
    # the root is the last depth: its three leaves are tested in place
    rng = np.random.default_rng(2029)
    tiers = Counter()
    for _ in range(60):
        w = float(rng.uniform(50.0, 1000.0))
        graph = gen.chain_graph([w], [w * float(rng.uniform(0.5, 2.0))])
        platform = gen.desk_platform(rng)
        scn = Scenario(
            graph=graph,
            platform=platform,
            budget=float(rng.uniform(0.3, 1.5)) * platform.fog.price * graph.tasks[0].data_size,
            solver_config=BruteForceConfig(),
        )
        if _assert_brute_matches_oracle(scn):
            tiers[brute_force_solve(scn).placement.assignment[1]] += 1
    assert len(tiers) >= 2


def test_brute_matches_oracle_with_several_sinks():
    rng = np.random.default_rng(2030)
    sinks = []
    for k in range(60):
        graph = gen.random_dag(rng, int(rng.integers(3, 8)), p_edge=0.25)
        if k % 2:
            graph = gen.permute_ids(rng, graph)
        sinks.append(len(schedule.eval_context(graph, gen.desk_platform()).sinks))
        platform = gen.desk_platform(rng)
        all_fog_cost = platform.fog.price * sum(t.data_size for t in graph.tasks)
        scn = Scenario(
            graph=graph,
            platform=platform,
            budget=float(rng.uniform(0.3, 1.5)) * all_fog_cost,
            solver_config=BruteForceConfig(),
        )
        _assert_brute_matches_oracle(scn)
    assert sum(s >= 2 for s in sinks) > 40


def test_brute_ties_inside_a_last_depth_node_keep_the_first_leaf():
    # independent tasks that finish at exactly 1.0 on every tier; device
    # energy costs something and the budget is 0, so only offloaded
    # placements are feasible and fog ties with cloud at every depth, the
    # last one included: all-fog is the optimum
    platform = replace(_tie_platform(), kappa=1.0)
    for n in range(1, 6):
        graph = TaskGraph([TaskSpec(i, 1.0, 0.5) for i in range(1, n + 1)])
        scn = Scenario(graph=graph, platform=platform, budget=0.0,
                       solver_config=BruteForceConfig())
        assert _assert_brute_matches_oracle(scn)
        out = brute_force_solve(scn)
        assert set(out.placement.assignment.values()) == {Tier.FOG}
        assert out.result.makespan == 1.0


def test_brute_second_to_last_depth_matches_oracle():
    # a node at the second-to-last depth tests its children's leaves in its
    # own loop: at the root of a two-task graph, where its task is a sink,
    # where every leaf passes, and where its children tie exactly
    rng = np.random.default_rng(2031)

    def scenario(graph, platform, budget):
        return Scenario(graph=graph, platform=platform, budget=budget,
                        solver_config=BruteForceConfig())

    def budget(platform, graph):
        return float(rng.uniform(0.3, 1.5)) * platform.fog.price * sum(
            t.data_size for t in graph.tasks)

    # two tasks, chained or independent
    solved = 0
    for _ in range(40):
        graph = gen.random_dag(rng, 2, p_edge=0.5)
        platform = gen.desk_platform(rng)
        solved += _assert_brute_matches_oracle(scenario(graph, platform, budget(platform, graph)))
    assert solved > 10
    # the second-to-last task in topological order is a sink
    sink_before_last = 0
    while sink_before_last < 30:
        graph = gen.permute_ids(rng, gen.random_dag(rng, int(rng.integers(3, 8)), p_edge=0.3))
        structure = graph.structure
        if structure.topo[-2] not in structure.sinks:
            continue
        sink_before_last += 1
        platform = gen.desk_platform(rng)
        _assert_brute_matches_oracle(scenario(graph, platform, budget(platform, graph)))
    # no budget and no utility can go negative: every leaf passes
    for _ in range(30):
        graph = gen.random_dag(rng, int(rng.integers(2, 7)))
        assert _assert_brute_matches_oracle(
            scenario(graph, gen.benign_platform(rng), math.inf))
    # independent tasks that take exactly 1.0 on every tier: every child of
    # a second-to-last node ties with its siblings, and the optimum is the
    # first placement in id order that passes (all-local when nothing
    # costs anything, all-fog when only the device pays and the budget is 0)
    for n in range(2, 7):
        graph = TaskGraph([TaskSpec(i, 1.0, 0.5) for i in range(1, n + 1)])
        for platform, limit, tier in ((_tie_platform(), math.inf, Tier.LOCAL),
                                      (replace(_tie_platform(), kappa=1.0), 0.0, Tier.FOG)):
            scn = scenario(graph, platform, limit)
            assert _assert_brute_matches_oracle(scn)
            assert set(brute_force_solve(scn).placement.assignment.values()) == {tier}


def _straddling_platform(rng, graph):
    """A desk platform whose prices put each offloaded tier's per-task
    utility term near zero, above it on some tasks and below it on others,
    and whose device energy puts the local cost term near the fog's, so
    that each limit binds at many prefixes and on every tier.  Forwarding
    is free on about half of them, so that a cloud leaf can lift the cloud
    utility without lowering the fog's."""
    platform = gen.desk_platform(rng)
    ctx = schedule.EvalContext(graph, platform)

    def median_ratio(num, den):
        return float(np.median([a / b for a, b in zip(num, den)])) * rng.uniform(0.9, 1.1)

    data = [t.data_size for t in graph.tasks]
    fog = median_ratio(ctx.e_f, data)
    cloud = median_ratio(ctx.e_c, data)
    kappa = median_ratio([fog * d for d in data], [t.workload * platform.device_cpu**2
                                                   for t in graph.tasks])
    forward = 0.0 if rng.random() < 0.5 else platform.fog_forward_power
    return replace(platform, kappa=kappa, fog_forward_power=forward,
                   fog=replace(platform.fog, price=fog), cloud=replace(platform.cloud, price=cloud))


def test_brute_leaf_bound_matches_oracle():
    # a second-to-last-depth child is ruled out on one bound per limit from
    # the last task's three leaves; at budgets at, one ulp and one tolerance
    # either side of the costs of random placements and of the cheapest
    # one, on platforms whose utility terms straddle zero, the walk must
    # agree with full enumeration
    rng = np.random.default_rng(2032)
    tol = schedule.TIME_TOL
    graphs = []
    for n in (1, 2, 3, 1, 2, 3, 4, 5, 6):
        w = rng.uniform(50.0, 1000.0, size=n)
        graphs.append(gen.chain_graph(w, w * rng.uniform(0.5, 2.0, size=n)))
        graphs.append(gen.random_dag(rng, n, p_edge=0.5))
        graphs.append(gen.permute_ids(rng, gen.random_dag(rng, n, p_edge=0.5)))
    outcomes = Counter()
    for graph in graphs:
        platform = _straddling_platform(rng, graph)
        budgets = [math.inf]
        for placement in (gen.random_placement(rng, graph), gen.random_placement(rng, graph),
                          oracles.cheapest_placement(graph, platform)):
            cost = evaluate(graph, placement, platform).total_cost
            # the last budget is one ulp under cost - TIME_TOL, about where
            # C7 starts to refuse the placement
            budgets += [cost, math.nextafter(cost, -math.inf), math.nextafter(cost, math.inf),
                        cost - tol, cost + tol, math.nextafter(cost - tol, -math.inf)]
        for budget in budgets:
            if budget >= 0:
                scn = Scenario(graph=graph, platform=platform, budget=budget,
                               solver_config=BruteForceConfig())
                outcomes[(len(graph), _assert_brute_matches_oracle(scn))] += 1
    assert all(outcomes[(n, True)] > 10 for n in range(1, 4))
    assert sum(outcomes[(n, False)] for n in range(1, 7)) > 20


def test_brute_matches_oracle_when_infeasible():
    rng = np.random.default_rng(2027)
    for k in range(20):
        scn = gen.random_scenario(rng, n_max=6)
        # device energy well above the tolerance, so a budget just under the
        # cheapest placement's cost rules every placement out
        platform = replace(scn.platform, kappa=1e-6)
        cheapest = oracles.cheapest_assignment_cost(scn.graph, platform)
        budget = 0.0 if k % 2 else cheapest * (1.0 - 1e-3)
        scn = replace(scn, platform=platform, budget=budget, solver_config=BruteForceConfig())
        assert not _assert_brute_matches_oracle(scn)


def test_brute_evaluates_only_the_returned_placement(monkeypatch):
    calls = []
    original = schedule._core_eval

    def counting_eval(ctx, tiers):
        calls.append(list(tiers))
        return original(ctx, tiers)

    monkeypatch.setattr(schedule, "_core_eval", counting_eval)
    monkeypatch.setattr(solvers, "_core_eval", counting_eval)
    fig4 = replace(load_scenario(bundled_scenario("fig4.scn")), solver_config=BruteForceConfig())
    out = brute_force_solve(fig4)
    assert out.iterations == 3**9
    assert calls == [[int(out.placement.assignment[i + 1]) for i in range(9)]]
    calls.clear()
    with pytest.raises(Infeasible):
        brute_force_solve(replace(fig4, budget=0.0))
    assert calls == []


def test_brute_computes_last_depth_finishes_only_when_a_leaf_passes(monkeypatch):
    # every internal node scans its predecessors once, (3^N - 1) / 2 of
    # them at N tasks; a last-depth node scans only when a leaf passes the
    # budget and utility limits.  On fig4, 256 of the 3^8 last-depth nodes
    # have a leaf within the utility limits, and none within a zero budget.
    calls = []
    original = solvers._finishes

    def counting_finishes(ctx, i, tiers, chosen):
        calls.append(i)
        return original(ctx, i, tiers, chosen)

    monkeypatch.setattr(solvers, "_finishes", counting_finishes)
    fig4 = replace(load_scenario(bundled_scenario("fig4.scn")), solver_config=BruteForceConfig())
    internal = (3**8 - 1) // 2
    with pytest.raises(Infeasible):
        brute_force_solve(replace(fig4, budget=0.0))
    assert len(calls) == internal == 3280
    for budget in (6.0, math.inf):
        calls.clear()
        out = brute_force_solve(replace(fig4, budget=budget))
        assert out.iterations == 3**9
        assert len(calls) == internal + 256 == 3536
    # nothing costs or earns anything here: every leaf passes
    for n in range(1, 7):
        calls.clear()
        graph = TaskGraph([TaskSpec(i, 1.0, 0.5) for i in range(1, n + 1)],
                          [(i, i + 1) for i in range(1, n)])
        out = brute_force_solve(
            Scenario(graph=graph, platform=_tie_platform(), solver_config=BruteForceConfig()))
        assert out.iterations == 3**n
        assert len(calls) == (3**n - 1) // 2


def test_brute_dominates_other_solvers():
    rng = np.random.default_rng(77)
    compared = 0
    for _ in range(30):
        scn = gen.random_scenario(rng, n_max=6)
        brute = brute_force_solve(replace(scn, solver_config=BruteForceConfig()))
        if not brute.feasible:
            continue
        try:
            g = greedy_solve(scn)
            if g.feasible:
                assert brute.result.makespan <= g.result.makespan
                compared += 1
        except Infeasible:
            pass
        try:
            s = sa_solve(replace(scn, solver_config=SAConfig()))
        except RestartsExhausted:
            continue
        if s.feasible:
            assert brute.result.makespan <= s.result.makespan
            compared += 1
    assert compared > 20


def test_solve_dispatch():
    rng = np.random.default_rng(88)
    scn = gen.random_scenario(rng, n_max=4)
    assert solve(replace(scn, solver_config=BruteForceConfig())).iterations == 3 ** len(scn.graph)
    sa_out = solve(replace(scn, solver_config=SAConfig(), seed=5))
    assert sa_out.placement == sa_solve(replace(scn, solver_config=SAConfig(), seed=5)).placement

    try:
        g_out = solve(replace(scn, solver_config=GreedyConfig()))
        assert g_out.iterations >= len(scn.graph)
    except Infeasible:
        pass


def test_solve_reaches_each_kind_through_its_module_global(monkeypatch, tmp_path):
    # perfbench's tracer times each solver by rebinding its module-global
    # name, so solve looks the name up at each call; a config of no kind is
    # refused where the scenario is built, so no solver gets it
    solver_of = {"greedy": "greedy_solve", "sa": "sa_solve", "brute": "brute_force_solve"}
    assert list(solver_of) == list(SOLVER_KINDS)
    for name in solver_of.values():
        monkeypatch.setattr(solvers, name, lambda scenario, name=name: name)
    fig4 = load_scenario(bundled_scenario("fig4.scn"))
    path = tmp_path / "kind.scn"
    for kind, cls in SOLVER_KINDS.items():
        scn = replace(fig4, solver_config=cls())
        assert solve(scn) == solver_of[kind]
        save_scenario(scn, path)
        assert load_scenario(path) == scn
    for bad in ("brute", None, 3, SAConfig):
        with pytest.raises(TypeError) as err:
            Scenario(graph=fig4.graph, platform=fig4.platform, solver_config=bad)
        assert str(err.value) == f"solver_config must be a solver config, got {bad!r}"


def test_outcome_placement_is_derived_once_from_the_result(monkeypatch):
    built = []
    checked = Placement.__post_init__

    def counting(self):
        built.append(self)
        checked(self)

    monkeypatch.setattr(Placement, "__post_init__", counting)
    rng = np.random.default_rng(71)
    seen = Counter()
    for k in range(60):
        scn = gen.random_scenario(rng, n_max=7)
        if k % 3 == 0:
            scn = replace(scn, graph=gen.permute_ids(rng, scn.graph))
        for solver in (greedy_solve, sa_solve, brute_force_solve):
            try:
                out = solver(scn)
            except (Infeasible, RestartsExhausted):
                continue
            tiers = out.result.tiers
            assert type(tiers) is tuple and set(tiers) <= {1, 2, 3}
            assert len(tiers) == len(scn.graph)
            assert built == []
            placement = out.placement
            assert out.placement is placement and built == [placement]
            want = oracles.placement_assignment(dict(enumerate(tiers, 1)))
            assert [(k, type(k), v, type(v)) for k, v in placement.assignment.items()] == [
                (k, type(k), v, type(v)) for k, v in want.items()]
            assert evaluate(scn.graph, placement, scn.platform) == out.result
            built.clear()
            seen[solver.__name__] += 1
    assert min(seen.values()) >= 20 and len(seen) == 3, seen


def test_greedy_tails_keep_moves_and_result():
    # chain40 over the budget sweep's range: each kept tail is phase 3's
    # moves from the tiers after k phase-2 moves and the evaluation of the
    # tiers they lead to
    scn = load_scenario(bundled_scenario("chain40.scn"))
    for b in bench.SweepSpec("budget", 0.5, 100.0, 21).values():
        try:
            greedy_solve(replace(scn, budget=b))
        except Infeasible:
            pass
    ctx = schedule.eval_context(scn.graph, scn.platform)
    prefix, tails = oracles.greedy_kept(scn)
    assert len(tails) > 1
    assert any(moves for moves, _, _ in tails.values())
    for k, (moves, totals, result) in tails.items():
        assert type(result) is schedule.ScheduleResult
        tiers = prefix.tiers(k)
        # the fog-utility total kept after each of the first j moves is
        # that placement's evaluated fog utility, bit for bit
        assert len(totals) == len(moves) + 1
        assert totals[0].hex() == schedule._core_eval(ctx, tiers).fog_utility.hex()
        for (i, tier), total in zip(moves, totals[1:]):
            assert (tiers[i], tier) in ((3, 2), (2, 1))
            tiers[i] = tier
            assert total.hex() == schedule._core_eval(ctx, tiers).fog_utility.hex()
        assert result.tiers == tuple(tiers)
        assert result == schedule._core_eval(ctx, tiers)


def test_solve_outcome_is_a_value():
    # an outcome holds no clock reading: a second solve of the same
    # scenario, which reads what the first kept on the graph, and a solve
    # of a freshly loaded copy return equal outcomes that hash alike
    for name in ("fig4.scn", "dag9.scn"):
        for solver in (greedy_solve, sa_solve, brute_force_solve):
            scn = load_scenario(bundled_scenario(name))
            first = solver(scn)
            assert [f.name for f in fields(first)] == ["result", "feasible", "iterations"]
            for again in (solver(scn), solver(load_scenario(bundled_scenario(name)))):
                assert again == first and hash(again) == hash(first)


def test_outcome_feasible_matches_report():
    rng = np.random.default_rng(99)
    for _ in range(30):
        scn = gen.random_scenario(rng, n_max=6)
        for solver in (greedy_solve, sa_solve):
            try:
                out = solver(scn)
            except (Infeasible, RestartsExhausted, GraphError):
                continue
            report = check_feasibility(out.result, scn)
            assert out.feasible == report.feasible
