"""Schedule evaluator: hand-traced examples, constraint checks, and agreement
with the naive fixed-point oracle."""
import itertools
import pickle
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fogsched import (
    CloudSpec,
    FogSpec,
    MissingTask,
    Placement,
    Platform,
    RadioLink,
    Scenario,
    TaskGraph,
    TaskSpec,
    Tier,
    check_feasibility,
    evaluate,
    schedule,
)
import gen
import oracles


def _unit_platform(device_cpu=1.0, fog_cpu=1.0, cloud_cpu=1.0, uplink=1.0, fwd_bw=1.0):
    """Platform whose tiers execute at the given speeds with rate-1 SNR."""
    return Platform(
        device_cpu=device_cpu,
        kappa=0.0,
        fog=FogSpec(cpu=fog_cpu, alpha=0.0, beta=0.0, price=0.0),
        cloud=CloudSpec(cpu=cloud_cpu, alpha=0.0, beta=0.0, price=0.0),
        fog_cloud_bandwidth=fwd_bw,
        fog_forward_power=0.0,
        radio=RadioLink(bandwidth=uplink, tx_power_max=1.0),
    )


def test_single_local_task():
    g = TaskGraph([TaskSpec(1, 2.0, 1.0)])
    res = evaluate(g, Placement({1: Tier.LOCAL}), _unit_platform())
    (row,) = res.tasks
    assert row.ready == 0.0
    assert row.finish == 2.0
    assert res.makespan == 2.0


def test_chain_both_fog_uploads_overlap():
    # uplink times (1, 1), fog execution times (2, 3)
    g = TaskGraph([TaskSpec(1, 2.0, 1.0), TaskSpec(2, 3.0, 1.0)], [(1, 2)])
    res = evaluate(g, Placement({1: Tier.FOG, 2: Tier.FOG}), _unit_platform())
    first, second = res.tasks
    assert first.finish == 3.0
    assert second.finish_tx == 1.0  # no local predecessor: upload floats free
    assert second.ready == 3.0
    assert second.finish == 6.0
    assert res.makespan == 6.0


def test_chain_local_then_fog():
    # local time 2, then uplink 1 + fog execution 1
    g = TaskGraph([TaskSpec(1, 2.0, 1.0), TaskSpec(2, 1.0, 1.0)], [(1, 2)])
    res = evaluate(g, Placement({1: Tier.LOCAL, 2: Tier.FOG}), _unit_platform())
    first, second = res.tasks
    assert first.finish == 2.0
    assert second.finish_tx == 3.0
    assert second.ready == 3.0
    assert second.finish == 4.0
    assert res.makespan == 4.0


def test_unassigned_tier_fields_are_zero():
    rng = np.random.default_rng(2)
    for _ in range(20):
        scn = gen.random_scenario(rng)
        placement = gen.random_placement(rng, scn.graph)
        res = evaluate(scn.graph, placement, scn.platform)
        for row in res.tasks:
            if row.tier is not Tier.CLOUD:
                assert row.finish_fwd == 0.0
            if row.tier is Tier.LOCAL:
                assert row.finish_tx == 0.0


def test_evaluate_rejects_partial_placement():
    g = TaskGraph([TaskSpec(1, 1.0, 1.0), TaskSpec(2, 1.0, 1.0)], [(1, 2)])
    with pytest.raises(MissingTask):
        evaluate(g, Placement({1: Tier.LOCAL}), _unit_platform())


def test_evaluate_is_pure():
    rng = np.random.default_rng(3)
    scn = gen.random_scenario(rng)
    placement = gen.random_placement(rng, scn.graph)
    a = evaluate(scn.graph, placement, scn.platform)
    b = evaluate(scn.graph, placement, scn.platform)
    assert a == b


def test_all_local_makespan_is_longest_path():
    rng = np.random.default_rng(4)
    for _ in range(100):
        scn = gen.random_scenario(rng)
        placement = Placement({t.id: Tier.LOCAL for t in scn.graph.tasks})
        res = evaluate(scn.graph, placement, scn.platform)
        expected = oracles.all_local_longest_path(scn.graph, scn.platform)
        assert res.makespan == pytest.approx(expected, rel=1e-12)


def test_precedence_soundness():
    rng = np.random.default_rng(5)
    for _ in range(100):
        scn = gen.random_scenario(rng)
        placement = gen.random_placement(rng, scn.graph)
        res = evaluate(scn.graph, placement, scn.platform)
        fins = {row.task_id: row.finish for row in res.tasks}
        for a, b in scn.graph.edges:
            assert fins[b] >= fins[a] - 1e-12
        assert res.sum_finish == pytest.approx(sum(fins.values()), rel=1e-12)
        sink_max = max(fins[s + 1] for s in scn.graph.structure.sinks)
        assert res.makespan == sink_max


def test_result_rows_match_keyword_reference():
    rng = np.random.default_rng(14)
    for k in range(300):
        scn = gen.random_scenario(rng, n_max=12)
        graph = gen.permute_ids(rng, scn.graph) if k % 3 == 0 else scn.graph
        placement = gen.random_placement(rng, graph)
        ctx = schedule.EvalContext(graph, scn.platform)
        tiers = [int(placement.assignment[i + 1]) for i in range(ctx.n)]
        want = oracles.result_from_core(ctx, tiers, schedule._core_eval(ctx, tiers))
        res = evaluate(graph, placement, scn.platform)
        assert repr(res) == repr(want)
        assert hash(res) == hash(want)
        assert res.tasks is res.tasks  # built once, on first read
        assert res == evaluate(graph, placement, scn.platform)
        with pytest.raises(AttributeError):
            res.makespan = 0.0


def test_matches_fixed_point_oracle():
    rng = np.random.default_rng(6)
    for _ in range(200):
        scn = gen.random_scenario(rng)
        placement = gen.random_placement(rng, scn.graph)
        res = evaluate(scn.graph, placement, scn.platform)
        expected = oracles.fixed_point_times(scn.graph, placement, scn.platform)
        for row in res.tasks:
            tx, fwd, fin = expected[row.task_id]
            assert row.finish == pytest.approx(fin, rel=1e-12)
            if row.tier is not Tier.LOCAL:
                assert row.finish_tx == pytest.approx(tx, rel=1e-12)
            if row.tier is Tier.CLOUD:
                assert row.finish_fwd == pytest.approx(fwd, rel=1e-12)


def _walk_state(result):
    """Everything an evaluation keeps from its walk, with floats as hex so
    that equal means bit-identical: the finish times, the steps, every
    running sum, the makespan and the totals read from the last running
    sum."""
    return repr([
        [v.hex() for v in result._chosen],
        [[v.hex() for v in step] for step in result._steps],
        [[v.hex() for v in sums] for sums in result._run],
        [v.hex() for v in (result.makespan, result.sum_finish, result.total_cost,
                           result.fog_utility, result.cloud_utility)],
    ])


def test_resumed_walk_matches_full_walk():
    rng = np.random.default_rng(63)
    for k in range(300):
        scn = gen.random_scenario(rng, n_max=12)
        graph = gen.permute_ids(rng, scn.graph) if k % 2 else scn.graph
        ctx = schedule.EvalContext(graph, scn.platform)
        n = ctx.n
        assert [ctx.topo[ctx.pos[i]] for i in range(n)] == list(range(n))
        tiers = [int(v) for v in rng.integers(1, 4, size=n)]
        prev = schedule._core_eval(ctx, tiers)
        before = _walk_state(prev)
        assert schedule._core_eval(ctx, list(tiers), prev, n) is prev
        start = int(rng.integers(0, n))
        cand = list(tiers)
        for d in range(start, n):
            if d == start or rng.random() < 0.3:
                cand[ctx.topo[d]] = int(rng.integers(1, 4))
        resumed = schedule._core_eval(ctx, cand, prev, start)
        # the resumed walk writes its steps into its own copy of prev's, and
        # they are the full walk's
        assert resumed._steps is not prev._steps
        assert _walk_state(resumed) == _walk_state(schedule._core_eval(ctx, cand))
        assert _walk_state(prev) == before


def _assert_reference_steps(result):
    ctx, tiers, chosen = result._ctx, result._tiers, result._chosen
    want = [oracles.tier_step(ctx, i, t, tiers, chosen) for i, t in enumerate(tiers)]
    assert [[v.hex() for v in s] for s in result._steps] == [
        [v.hex() for v in s] for s in want]
    assert [s[3] for s in result._steps] == chosen


def test_walk_records_the_reference_steps():
    """Every step that a full or a resumed walk records is the reference
    step of its task at its tier over the final finish times, bit for bit;
    each resumed walk starts from the last one's result."""
    rng = np.random.default_rng(66)
    walks = Counter()
    for k in range(300):
        scn = gen.random_scenario(rng, n_max=12)
        graph = gen.permute_ids(rng, scn.graph) if k % 2 else scn.graph
        ctx = schedule.EvalContext(graph, scn.platform)
        n = ctx.n
        tiers = [int(v) for v in rng.integers(1, 4, size=n)]
        res = schedule._core_eval(ctx, tiers)
        _assert_reference_steps(res)
        walks["full"] += 1
        for _ in range(3):
            start = int(rng.integers(0, n))
            cand = list(tiers)
            for d in range(start, n):
                if d == start or rng.random() < 0.3:
                    cand[ctx.topo[d]] = int(rng.integers(1, 4))
            res = schedule._core_eval(ctx, cand, res, start)
            _assert_reference_steps(res)
            walks["resumed"] += 1
            tiers = cand
        walks["shuffled"] += any(a > b for a, b in graph.edges)
    assert walks["full"] == 300 and walks["resumed"] == 900, walks
    assert walks["shuffled"] > 100, walks


def test_rows_and_check_make_no_walk(monkeypatch):
    """A walk records every step, so reading a result's rows or checking it
    calls no evaluation and leaves its steps as recorded, and a pickled
    result compares equal."""
    rng = np.random.default_rng(65)
    results = []
    for k in range(100):
        scn = gen.random_scenario(rng, n_max=12)
        graph = gen.permute_ids(rng, scn.graph) if k % 2 else scn.graph
        scn = replace(scn, graph=graph)
        ctx = schedule.EvalContext(graph, scn.platform)
        n = ctx.n
        tiers = [int(v) for v in rng.integers(1, 4, size=n)]
        full = schedule._core_eval(ctx, tiers)
        start = int(rng.integers(0, n))
        cand = list(tiers)
        cand[ctx.topo[start]] = int(rng.integers(1, 4))
        resumed = schedule._core_eval(ctx, cand, full, start)
        results.append((scn, full, resumed))

    calls = Counter()

    def counted(*args):
        calls["_core_eval"] += 1
        raise AssertionError("a result's rows or check walked the tasks again")

    monkeypatch.setattr(schedule, "_core_eval", counted)
    for scn, full, resumed in results:
        copies = [pickle.loads(pickle.dumps(r)) for r in (full, resumed)]
        # the rows first on one, the check first on the other
        for res, rows_first in ((full, True), (resumed, False)):
            steps = res._steps
            recorded = _walk_state(res)
            if rows_first:
                res.tasks
            else:
                check_feasibility(res, scn)
            assert res.tasks is res.tasks
            check_feasibility(res, scn)
            assert res._steps is steps and _walk_state(res) == recorded
        for res, copy in zip((full, resumed), copies):
            assert _walk_state(copy) == _walk_state(res)
            assert copy == res and hash(copy) == hash(res)
    assert calls == Counter()


def test_finishes_match_three_tier_steps():
    # one predecessor scan gives each tier's finish time bit for bit as
    # the reference step does, for every mix of predecessor tiers
    rng = np.random.default_rng(64)
    mixes = Counter()
    shuffled = 0
    for k in range(150):
        scn = gen.random_scenario(rng, n_max=9)
        graph = gen.permute_ids(rng, scn.graph) if k % 2 else scn.graph
        ctx = schedule.EvalContext(graph, scn.platform)
        n = ctx.n
        for i, ps in enumerate(ctx.preds):
            # the first three predecessors take every tier mix, the others
            # random tiers
            for mix in itertools.product((1, 2, 3), repeat=min(len(ps), 3)):
                tiers = [int(v) for v in rng.integers(1, 4, size=n)]
                for p, t in zip(ps, mix):
                    tiers[p] = t
                # finish times with exact ties among predecessors now and then
                if rng.random() < 0.3:
                    chosen = [float(v) for v in rng.integers(0, 4, size=n)]
                else:
                    chosen = [float(v) for v in rng.uniform(0.0, 3000.0, size=n)]
                got = schedule._finishes(ctx, i, tiers, chosen)
                want = tuple(oracles.tier_step(ctx, i, t, tiers, chosen)[3] for t in (1, 2, 3))
                assert [v.hex() for v in got] == [v.hex() for v in want]
                mixes[frozenset(tiers[p] for p in ps)] += 1
        shuffled += any(a > b for a, b in graph.edges)
    # no predecessor, and every non-empty set of predecessor tiers
    assert len(mixes) == 8 and min(mixes.values()) > 20
    assert shuffled > 30


def _priced_platform(kappa=0.0, fog_beta=0.0, cloud_beta=0.0, forward_power=0.0):
    """Unit-speed platform (fog price 0.001, cloud price 0.004) whose energies
    are linear in the task: local kappa*workload, fog fog_beta*workload,
    cloud cloud_beta*workload, forwarding forward_power*data_size."""
    return Platform(
        device_cpu=1.0,
        kappa=kappa,
        fog=FogSpec(cpu=1.0, alpha=0.0, beta=fog_beta, price=0.001),
        cloud=CloudSpec(cpu=1.0, alpha=0.0, beta=cloud_beta, price=0.004),
        fog_cloud_bandwidth=1.0,
        fog_forward_power=forward_power,
        radio=RadioLink(bandwidth=1.0, tx_power_max=1.0),
    )


def test_task_cost_rule():
    # device cost: local energy 0.7, else price * data_size (1.0 fog, 4.0 cloud)
    g = TaskGraph([TaskSpec(1, 1.0, 1000.0)])
    platform = _priced_platform(kappa=0.7)
    for tier, expected in ((Tier.LOCAL, 0.7), (Tier.FOG, 1.0), (Tier.CLOUD, 4.0)):
        res = evaluate(g, Placement({1: tier}), platform)
        assert res.tasks[0].cost == pytest.approx(expected)
        assert res.total_cost == res.tasks[0].cost


def test_fog_utility_terms():
    # task 1: fog revenue 1.0, fog energy 0.3; task 2: forwarding energy 0.5
    g = TaskGraph([TaskSpec(1, 1.0, 1000.0), TaskSpec(2, 1.0, 500.0)])
    platform = _priced_platform(fog_beta=0.3, forward_power=0.001)

    def fog_utility(tiers):
        return evaluate(g, Placement(dict(zip((1, 2), tiers))), platform).fog_utility

    assert fog_utility((Tier.LOCAL, Tier.LOCAL)) == 0.0
    assert fog_utility((Tier.FOG, Tier.LOCAL)) == pytest.approx(0.7)
    assert fog_utility((Tier.FOG, Tier.CLOUD)) == pytest.approx(0.2)


def test_cloud_utility_terms():
    # cloud revenues 4.0 and 2.0, cloud energies 1.0 and 3.0
    g = TaskGraph([TaskSpec(1, 1.0, 1000.0), TaskSpec(2, 3.0, 500.0)])
    platform = _priced_platform(cloud_beta=1.0)

    def cloud_utility(tiers):
        return evaluate(g, Placement(dict(zip((1, 2), tiers))), platform).cloud_utility

    assert cloud_utility((Tier.LOCAL, Tier.LOCAL)) == 0.0
    assert cloud_utility((Tier.CLOUD, Tier.LOCAL)) == pytest.approx(3.0)
    assert cloud_utility((Tier.CLOUD, Tier.CLOUD)) == pytest.approx(2.0)  # (4 - 1) + (2 - 3)


def test_utilities_match_evaluator():
    rng = np.random.default_rng(8)
    for _ in range(50):
        scn = gen.random_scenario(rng)
        placement = gen.random_placement(rng, scn.graph)
        res = evaluate(scn.graph, placement, scn.platform)
        assert res.fog_utility == pytest.approx(
            oracles.fog_utility(placement, scn.graph, scn.platform), abs=1e-12
        )
        assert res.cloud_utility == pytest.approx(
            oracles.cloud_utility(placement, scn.graph, scn.platform), abs=1e-12
        )


def test_check_feasibility_all_local():
    g = TaskGraph([TaskSpec(1, 5.0, 1.0), TaskSpec(2, 3.0, 1.0)], [(1, 2)])
    platform = _unit_platform()
    scn = Scenario(graph=g, platform=platform, budget=1.0)
    res = evaluate(g, Placement({1: Tier.LOCAL, 2: Tier.LOCAL}), platform)
    report = check_feasibility(res, scn)
    assert report.feasible  # utilities are exactly zero, so C4 holds


def test_check_feasibility_budget_violation():
    g = TaskGraph([TaskSpec(1, 1.0, 1000.0)])
    platform = Platform(
        device_cpu=1.0,
        kappa=0.0,
        fog=FogSpec(cpu=1.0, alpha=0.0, beta=0.0, price=0.002),
        cloud=CloudSpec(cpu=1.0, alpha=0.0, beta=0.0, price=0.004),
        fog_cloud_bandwidth=1.0,
        fog_forward_power=0.0,
        radio=RadioLink(bandwidth=1.0, tx_power_max=1.0),
    )
    scn = Scenario(graph=g, platform=platform, budget=1.0)
    res = evaluate(g, Placement({1: Tier.FOG}), platform)
    assert res.total_cost == pytest.approx(2.0)
    report = check_feasibility(res, scn)
    assert not report.feasible
    assert any(v[0] == "C7" for v in report.violations)


def test_check_feasibility_negative_cloud_utility():
    g = TaskGraph([TaskSpec(1, 10.0, 1.0)])
    platform = Platform(
        device_cpu=1.0,
        kappa=0.0,
        fog=FogSpec(cpu=1.0, alpha=0.0, beta=0.0, price=0.0),
        cloud=CloudSpec(cpu=1.0, alpha=0.0, beta=1.0, price=0.004),
        fog_cloud_bandwidth=1.0,
        fog_forward_power=0.0,
        radio=RadioLink(bandwidth=1.0, tx_power_max=1.0),
    )
    scn = Scenario(graph=g, platform=platform, budget=100.0)
    res = evaluate(g, Placement({1: Tier.CLOUD}), platform)
    assert res.cloud_utility < 0
    report = check_feasibility(res, scn)
    assert "C4" in {v[0] for v in report.violations}


def test_check_feasibility_reads_the_context_of_its_result():
    """The check reads the platform the result was evaluated on, not the
    scenario's; of the scenario it reads the budget alone."""
    from fogsched import bundled_scenario, greedy_solve, load_scenario

    scn = load_scenario(bundled_scenario("fig4.scn"))
    res = evaluate(scn.graph, Placement({t.id: Tier.CLOUD for t in scn.graph.tasks}),
                   scn.platform)
    own = check_feasibility(res, scn)
    assert [v[0] for v in own.violations] == ["C4", "C4", "C7"]
    slow = replace(scn, platform=replace(scn.platform, fog_cloud_bandwidth=1.0))
    assert check_feasibility(res, slow) == own
    # nor does checking against another platform replace the graph's kept
    # context, with greedy's kept prefix on it
    greedy_solve(scn)
    ctx = schedule.eval_context(scn.graph, scn.platform)
    assert oracles.greedy_kept(scn)[0] is not None
    check_feasibility(res, slow)
    assert schedule.eval_context(scn.graph, scn.platform) is ctx


def test_check_feasibility_random_evaluations_satisfy_precedence():
    rng = np.random.default_rng(9)
    for _ in range(100):
        scn = gen.random_scenario(rng)
        placement = gen.random_placement(rng, scn.graph)
        res = evaluate(scn.graph, placement, scn.platform)
        report = check_feasibility(res, scn)
        # C1-C3 hold by construction for evaluator output
        assert not {"C1", "C2", "C3"} & {v[0] for v in report.violations}


def test_check_feasibility_matches_row_reference():
    """The check reads the evaluation's steps and finish times; the
    reference reads the rows.  Evaluations are tampered with to break each
    precedence term, both utilities and the budget."""
    rng = np.random.default_rng(33)
    seen = Counter()
    for k in range(1000):
        scn = gen.random_scenario(rng, n_max=10)
        graph = gen.permute_ids(rng, scn.graph) if k % 3 == 0 else scn.graph
        scn = replace(scn, graph=graph)
        n = len(graph)
        ctx = schedule.eval_context(graph, scn.platform)
        tiers = [int(gen.random_placement(rng, graph).assignment[i + 1]) for i in range(n)]
        core = schedule._core_eval(ctx, tiers)
        lists = dict(zip(("ready", "finish_tx", "finish_fwd"),
                         map(list, zip(*core._steps))))
        lists["chosen"] = list(core._chosen)
        for name, values in lists.items():
            if rng.random() < 0.5:
                i = int(rng.integers(n))
                # shifts from twice the value's size down to below TIME_TOL
                e = int(rng.integers(0, 6))
                scale = 1e-10 if e == 5 else (abs(values[i]) + 1.0) * 10.0**-e
                shift = float(rng.uniform(0.5, 2.0)) * scale
                values[i] += -shift if name == "ready" else shift
        # the totals are the running sums after the last task
        sum_finish, cost, u_f, u_c = core._run[n]
        if rng.random() < 0.3:
            u_f = -abs(u_f) - 1.0
        if rng.random() < 0.3:
            u_c = -abs(u_c) - 1.0
        if rng.random() < 0.3:
            scn = replace(scn, budget=cost + 0.5)
            cost = 2.0 * cost + 1.0
        run = core._run[:n] + [(sum_finish, cost, u_f, u_c)]
        # the steps as the result keeps them, tampered with where the lists are
        steps = list(zip(lists["ready"], lists["finish_tx"], lists["finish_fwd"],
                         lists["chosen"]))
        res = schedule.ScheduleResult(ctx, tiers, lists["chosen"], steps, run, core.makespan)
        assert (res.total_cost, res.fog_utility, res.cloud_utility) == (cost, u_f, u_c)
        got = check_feasibility(res, scn)
        want, flags = oracles.check_feasibility_rows(res, scn)
        assert got == want
        named = {v[0] for v in got.violations}
        assert tuple(f"C{k}" not in named for k in range(1, 8)) == flags
        assert got.feasible == all(flags)
        seen.update((v[0], re.sub(r"-?\d[\d.e+-]*", "#", v[2])) for v in got.violations)
    assert len(seen) == 10 and min(seen.values()) >= 10, seen
