"""Reference implementations used only as oracles in tests.

The fixed-point evaluator shares no logic with the package's evaluator: it
recomputes every task's times from the current estimates in reverse id
order until the values stop changing, with no topological walk.  The
exhaustive search is the straightforward one that the package's
prefix-sharing walk replaces: one full evaluation per placement.  The greedy
and annealing references are the straightforward loops that the package's
incremental ones replace: one full evaluation per repair move or proposal,
and a rescan of all tasks for every greedy pick.  The result-row reference
builds each row by keyword, its finish time from the walk's finish times,
where the package unpacks each step positionally, into the frozen record
that the package's lazily built ScheduleResult must read as.  The feasibility reference checks the result's
rows, where the package reads the evaluation's per-task lists.  The step
reference is the one-task recurrence that the package's walk inlines, as a
function of one task and one tier; the placement reference is the checked
path that `Placement` must take for every input, written out again.  The
uplink-time and server-energy references are the per-task formulas behind
EvalContext's columns, which the package derives in place.  `greedy_kept`
is no reference: it reads what greedy keeps on a context, so that the tests
name that store once.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import index

import numpy as np

from fogsched import (
    Infeasible,
    Placement,
    RestartsExhausted,
    SAConfig,
    Tier,
    costs,
    schedule,
    solvers,
    validate_graph,
)


def tier_step(ctx, i, tier, tiers, chosen):
    """Ready/finish times of task i at `tier`, given every predecessor's tier
    code in `tiers` and finish time in `chosen`, with the comparisons and
    additions of `schedule._core_eval`'s walk in its order.

    Returns (ready, uplink_finish, forward_finish, finish); the two transfer
    finishes are 0 where the tier involves no such transfer.
    """
    local, fog = int(Tier.LOCAL), int(Tier.FOG)
    ps = ctx.preds[i]
    if tier == local:
        ready = 0.0
        for k in ps:
            v = chosen[k]
            if v > ready:
                ready = v
        return ready, 0.0, 0.0, ctx.tau_l[i] + ready
    ml = 0.0
    mf = 0.0
    mc = 0.0
    for k in ps:
        v = chosen[k]
        t = tiers[k]
        if t == local:
            if v > ml:
                ml = v
        elif t == fog:
            if v > mf:
                mf = v
        elif v > mc:
            mc = v
    up = ctx.tau_t[i] + ml
    if tier == fog:
        ready = up
        if mf > ready:
            ready = mf
        if mc > ready:
            ready = mc
        return ready, up, 0.0, ctx.tau_f[i] + ready
    fwd = ctx.tau_r[i] + mf
    ready = up + ctx.tau_r[i]
    if mc > ready:
        ready = mc
    if fwd > ready:
        ready = fwd
    return ready, up, fwd, ctx.tau_c[i] + ready


def placement_assignment(assignment):
    """The assignment `Placement(assignment)` keeps, by the checked path
    alone: keys and tiers go through operator.index, bools are refused
    first, and a code outside 1..3 raises ValueError."""
    out = {}
    for k, v in dict(assignment).items():
        if type(k) is bool:
            raise TypeError(f"placement key {k!r} is a bool, not a task id")
        if type(v) is bool:
            raise TypeError(f"tier of task {k!r} is a bool, not a tier code")
        code = index(v)
        if not 1 <= code <= 3:
            raise ValueError(f"tier of task {k!r}: {v!r} is not a valid Tier")
        out[index(k)] = Tier(code)
    return out


def fixed_point_times(graph, placement, platform, sweeps=None):
    """Naive fixed-point evaluation of the ready/finish recursions.

    Returns {task_id: (finish_tx, finish_fwd, finish_at_assigned_tier)}.
    Finish times of unassigned tiers stay 0, mirroring the convention that
    predecessor maxima only see the tier a task actually ran on.
    """
    task = {t.id: t for t in graph.tasks}
    pre = {t.id: [a for (a, b) in graph.edges if b == t.id] for t in graph.tasks}
    tier = {t.id: Tier(placement.assignment[t.id]) for t in graph.tasks}
    ids = [t.id for t in graph.tasks]
    tf_local = {i: 0.0 for i in ids}
    tf_fog = {i: 0.0 for i in ids}
    tf_cloud = {i: 0.0 for i in ids}
    tf_tx = {i: 0.0 for i in ids}
    tf_fwd = {i: 0.0 for i in ids}
    if sweeps is None:
        sweeps = len(ids) + 2
    for _ in range(sweeps):
        changed = False
        for n in reversed(ids):
            t = task[n]
            ps = pre[n]
            if tier[n] is Tier.LOCAL:
                ready = max(
                    (max(tf_local[k], tf_fog[k], tf_cloud[k]) for k in ps),
                    default=0.0,
                )
                new = costs.local_exec_time(t, platform) + ready
                if new != tf_local[n]:
                    tf_local[n] = new
                    changed = True
            elif tier[n] is Tier.FOG:
                tx = uplink_time(t, platform.radio) + max(
                    (tf_local[k] for k in ps), default=0.0
                )
                ready = max(
                    tx,
                    max((tf_fog[k] for k in ps), default=0.0),
                    max((tf_cloud[k] for k in ps), default=0.0),
                )
                new = costs.server_exec_time(t, platform.fog) + ready
                if tx != tf_tx[n] or new != tf_fog[n]:
                    tf_tx[n] = tx
                    tf_fog[n] = new
                    changed = True
            else:
                forward = costs.fog_cloud_time(t, platform)
                tx = uplink_time(t, platform.radio) + max(
                    (tf_local[k] for k in ps), default=0.0
                )
                fwd = forward + max((tf_fog[k] for k in ps), default=0.0)
                ready = max(
                    tx + forward,
                    max((tf_cloud[k] for k in ps), default=0.0),
                    fwd,
                )
                new = costs.server_exec_time(t, platform.cloud) + ready
                if tx != tf_tx[n] or fwd != tf_fwd[n] or new != tf_cloud[n]:
                    tf_tx[n] = tx
                    tf_fwd[n] = fwd
                    tf_cloud[n] = new
                    changed = True
        if not changed:
            break
    out = {}
    for n in ids:
        if tier[n] is Tier.LOCAL:
            fin = tf_local[n]
        elif tier[n] is Tier.FOG:
            fin = tf_fog[n]
        else:
            fin = tf_cloud[n]
        out[n] = (tf_tx[n], tf_fwd[n], fin)
    return out


@dataclass(frozen=True)
class ScheduleResult:
    """The record a package ScheduleResult must equal in repr and hash."""

    tasks: tuple
    makespan: float
    sum_finish: float
    total_cost: float
    fog_utility: float
    cloud_utility: float


def result_from_core(ctx, tiers, result):
    """The ScheduleResult record of an evaluated placement: each TaskSchedule
    built by keyword from the evaluation's steps, its finish time read from
    the walk's finish times rather than the step, and the totals read from
    the running sums after the last task."""
    rows = []
    for i, (r, tx, fwd, _) in enumerate(result._steps):
        t = tiers[i]
        rows.append(
            schedule.TaskSchedule(
                task_id=i + 1,
                tier=Tier(t),
                ready=r,
                finish_tx=tx,
                finish_fwd=fwd,
                finish=result._chosen[i],
                cost=ctx.cost[t][i],
            )
        )
    sum_finish, total_cost, fog_utility, cloud_utility = result._run[ctx.n]
    return ScheduleResult(
        tasks=tuple(rows),
        makespan=max((result._chosen[i] for i in ctx.sinks), default=0.0),
        sum_finish=sum_finish,
        total_cost=total_cost,
        fog_utility=fog_utility,
        cloud_utility=cloud_utility,
    )


def all_local_longest_path(graph, platform):
    """Longest path in local execution time, computed by memoized recursion."""
    pre = {t.id: [a for (a, b) in graph.edges if b == t.id] for t in graph.tasks}
    tau = {t.id: costs.local_exec_time(t, platform) for t in graph.tasks}
    memo: dict[int, float] = {}

    def finish(n: int) -> float:
        if n not in memo:
            memo[n] = tau[n] + max((finish(k) for k in pre[n]), default=0.0)
        return memo[n]

    return max(finish(t.id) for t in graph.tasks)


def server_energy(task, server):
    """(alpha * cpu^epsilon + beta) * execution time on the fog node or cloud
    server: the reference formula behind EvalContext's fog and cloud energy
    columns."""
    return costs.energy_coefficient(server) * costs.server_exec_time(task, server)


def uplink_time(task, link):
    """data_size / uplink rate: the reference formula behind EvalContext's
    uplink time column."""
    return task.data_size / costs.uplink_rate(link)


def cheapest_placement(graph, platform):
    """Each task on the tier where the device pays least for it, the lowest
    tier on ties."""
    def cost(t, tier):
        if tier is Tier.LOCAL:
            return costs.local_energy(t, platform)
        return (platform.fog if tier is Tier.FOG else platform.cloud).price * t.data_size

    return Placement({t.id: min(Tier, key=lambda tier: cost(t, tier)) for t in graph.tasks})


def cheapest_assignment_cost(graph, platform):
    """Sum over tasks of the cheapest single-tier cost, for budget prescreens."""
    total = 0.0
    for t in graph.tasks:
        total += min(
            costs.local_energy(t, platform),
            platform.fog.price * t.data_size,
            platform.cloud.price * t.data_size,
        )
    return total


def fog_utility(placement, graph, platform):
    """Fog revenue minus fog expenses: price*data_size less execution energy
    per fog-placed task, less the forwarding energy of each cloud-placed task."""
    total = 0.0
    for t in graph.tasks:
        tier = Tier(placement.assignment[t.id])
        if tier is Tier.FOG:
            total += platform.fog.price * t.data_size - server_energy(t, platform.fog)
        elif tier is Tier.CLOUD:
            total -= costs.fog_cloud_energy(t, platform)
    return total


def cloud_utility(placement, graph, platform):
    """Cloud revenue minus cloud execution energy, over cloud-placed tasks."""
    total = 0.0
    for t in graph.tasks:
        if Tier(placement.assignment[t.id]) is Tier.CLOUD:
            total += platform.cloud.price * t.data_size - server_energy(
                t, platform.cloud
            )
    return total


def exhaustive_optimum(scenario):
    """Evaluate every placement in task-id lexicographic order (local < fog
    < cloud) with the package's evaluator and keep the first optimum among
    those with non-negative utilities and cost within budget.

    Returns (tiers of the optimum in id order or None, placements evaluated).
    """
    ctx = schedule.EvalContext(scenario.graph, scenario.platform)
    tol = schedule.TIME_TOL
    best_tiers = None
    best_obj = math.inf
    count = 0
    for tiers in itertools.product((1, 2, 3), repeat=ctx.n):
        count += 1
        core = schedule._core_eval(ctx, tiers)
        if core.fog_utility < -tol or core.cloud_utility < -tol:
            continue
        if core.total_cost > scenario.budget + tol:
            continue
        if core.makespan < best_obj:
            best_obj = core.makespan
            best_tiers = tiers
    return best_tiers, count


def greedy_kept(scenario):
    """(prefix, tails): what greedy keeps on the context of `scenario`'s
    graph and platform once a greedy solve has run there (see
    fogsched.solvers)."""
    return schedule.eval_context(scenario.graph, scenario.platform).kept["greedy"]


def greedy_reference(scenario, trace=None):
    """greedy_solve's phases, re-evaluating the whole placement after every
    repair move and picking each move by a scan over all tasks.  With
    `trace`, (phase, task id, total) is appended per move: the evaluated
    cost total in phase 2, the evaluated fog utility in phase 3."""
    ctx = schedule.EvalContext(scenario.graph, scenario.platform)
    n = ctx.n
    budget = scenario.budget
    local, fog, cloud = int(Tier.LOCAL), int(Tier.FOG), int(Tier.CLOUD)
    e_s = [costs.fog_cloud_energy(t, scenario.platform) for t in scenario.graph.tasks]

    tiers = [0] * n
    chosen = [0.0] * n
    for i in ctx.topo:
        fin_l = tier_step(ctx, i, local, tiers, chosen)[3]
        fin_f = tier_step(ctx, i, fog, tiers, chosen)[3]
        fin_c = tier_step(ctx, i, cloud, tiers, chosen)[3]
        if fin_l < fin_f and fin_l < fin_c:
            tiers[i], chosen[i] = local, fin_l
        elif ctx.cost[3][i] >= ctx.e_c[i]:
            tiers[i], chosen[i] = cloud, fin_c
        else:
            tiers[i], chosen[i] = fog, fin_f
    iterations = n

    core = schedule._core_eval(ctx, tiers)
    total_cost = core.total_cost
    while total_cost > budget + schedule.TIME_TOL:
        cloud_idx = [i for i in range(n) if tiers[i] == cloud]
        if cloud_idx:
            moved = min(cloud_idx, key=lambda i: ctx.e_c[i])
            tiers[moved] = fog
        else:
            fog_idx = [i for i in range(n) if tiers[i] == fog]
            if not fog_idx:
                raise Infeasible(
                    f"all tasks local, total energy {total_cost} still exceeds "
                    f"budget {budget}"
                )
            moved = min(fog_idx, key=lambda i: ctx.e_f[i])
            tiers[moved] = local
        core = schedule._core_eval(ctx, tiers)
        total_cost = core.total_cost
        iterations += 1
        if trace is not None:
            trace.append((2, moved + 1, total_cost))

    while core.fog_utility < -schedule.TIME_TOL:
        heavy = [i for i in range(n) if tiers[i] == cloud and e_s[i] > ctx.e_f[i]]
        if heavy:
            moved = max(
                heavy, key=lambda i: e_s[i] / ctx.e_f[i] if ctx.e_f[i] > 0 else math.inf
            )
            tiers[moved] = fog
        else:
            fog_idx = [i for i in range(n) if tiers[i] == fog]
            if not fog_idx:
                break
            moved = min(
                fog_idx,
                key=lambda i: ctx.cost[2][i] / ctx.e_f[i] if ctx.e_f[i] > 0 else math.inf,
            )
            tiers[moved] = local
        core = schedule._core_eval(ctx, tiers)
        iterations += 1
        if trace is not None:
            trace.append((3, moved + 1, core.fog_utility))

    return solvers._outcome(scenario, schedule._core_eval(ctx, tiers), iterations)


def anneal_reference(scenario):
    """sa_solve's loop, evaluating every proposal with a full walk."""
    cfg = scenario.solver_config
    assert isinstance(cfg, SAConfig)
    ctx = schedule.EvalContext(scenario.graph, scenario.platform)
    n = ctx.n
    local, cloud = int(Tier.LOCAL), int(Tier.CLOUD)
    total_iterations = 0
    for restart in range(cfg.max_restarts + 1):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=scenario.seed, spawn_key=(restart,))
        )
        tiers = [int(v) for v in rng.integers(1, 4, size=n)]
        core = schedule._core_eval(ctx, tiers)
        obj_cur = core.makespan
        cost_cur = core.total_cost
        u_f = 0.0
        u_c = 0.0
        tem = cfg.t0
        while n and tem > cfg.t_stop and u_f >= 0 and u_c >= 0:
            step = int(rng.integers(-cfg.neighbor_range, cfg.neighbor_range + 1))
            idx = int(rng.integers(0, n))
            cand = list(tiers)
            cand[idx] = min(cloud, max(local, cand[idx] + step))
            tem *= cfg.cool
            cand_core = schedule._core_eval(ctx, cand)
            obj_cand = cand_core.makespan
            if solvers.metropolis_accept(obj_cand - obj_cur, tem, rng):
                tiers = cand
                obj_cur = obj_cand
                cost_cur = cand_core.total_cost
                u_f = cand_core.fog_utility
                u_c = cand_core.cloud_utility
            total_iterations += 1
        if cost_cur <= scenario.budget + schedule.TIME_TOL:
            return solvers._outcome(scenario, schedule._core_eval(ctx, tiers), total_iterations)
    raise RestartsExhausted(
        f"no budget-feasible placement in {cfg.max_restarts + 1} annealing runs"
    )


def check_feasibility_rows(result, scenario):
    """check_feasibility as it reads the result's TaskSchedule rows: the
    reference for the package's check, which reads the evaluation's steps
    and finish times.

    Returns the report of the violations found and this check's own verdict
    per constraint, (c1, ..., c7), for the report's derived verdicts to be
    checked against.

    C1-C3 re-check each ready time against the precedence terms that define
    it, at the task's assigned tier: a predecessor's finish time on a tier
    is its row's finish where it ran there and 0 elsewhere, which carries no
    constraint.  C4 checks both utilities, C5/C6 are
    guaranteed by the Placement type, C7 compares total cost to the budget.
    All comparisons use absolute tolerance schedule.TIME_TOL.
    """
    graph = scenario.graph
    validate_graph(graph)
    preds = graph.structure.preds
    rows = result.tasks
    violations: list[tuple[str, int, str]] = []

    def _on(k: int, tier: Tier) -> float:
        return rows[k].finish if rows[k].tier is tier else 0.0

    c1 = c2 = c3 = True
    for t in graph.tasks:
        i = t.id - 1
        row = rows[i]
        ps = preds[i]
        if row.tier is Tier.LOCAL:
            for k in ps:
                if row.ready < rows[k].finish - schedule.TIME_TOL:
                    c1 = False
                    violations.append(
                        ("C1", t.id, f"ready_local {row.ready} < finish of task {k + 1}")
                    )
        elif row.tier is Tier.FOG:
            if row.ready < row.finish_tx - schedule.TIME_TOL:
                c2 = False
                violations.append(("C2", t.id, "ready_fog precedes upload completion"))
            for k in ps:
                if row.ready < _on(k, Tier.FOG) - schedule.TIME_TOL:
                    c2 = False
                    violations.append(
                        ("C2", t.id, f"ready_fog precedes fog finish of task {k + 1}")
                    )
                if row.ready < _on(k, Tier.CLOUD) - schedule.TIME_TOL:
                    c2 = False
                    violations.append(
                        ("C2", t.id, f"ready_fog precedes cloud finish of task {k + 1}")
                    )
        else:
            forward = costs.fog_cloud_time(t, scenario.platform)
            if row.ready < row.finish_tx + forward - schedule.TIME_TOL:
                c3 = False
                violations.append(("C3", t.id, "ready_cloud precedes upload + forward"))
            if row.ready < row.finish_fwd - schedule.TIME_TOL:
                c3 = False
                violations.append(("C3", t.id, "ready_cloud precedes forward completion"))
            for k in ps:
                if row.ready < _on(k, Tier.CLOUD) - schedule.TIME_TOL:
                    c3 = False
                    violations.append(
                        ("C3", t.id, f"ready_cloud precedes cloud finish of task {k + 1}")
                    )

    c4 = True
    if result.fog_utility < -schedule.TIME_TOL:
        c4 = False
        violations.append(("C4", 0, f"fog utility {result.fog_utility} < 0"))
    if result.cloud_utility < -schedule.TIME_TOL:
        c4 = False
        violations.append(("C4", 0, f"cloud utility {result.cloud_utility} < 0"))

    # C5 (one tier per task) and C6 (binary indicators) hold structurally:
    # TaskSchedule stores a single Tier per task.
    c5 = c6 = True

    c7 = True
    if result.total_cost > scenario.budget + schedule.TIME_TOL:
        c7 = False
        violations.append(
            ("C7", 0, f"total cost {result.total_cost} exceeds budget {scenario.budget}")
        )

    return schedule.FeasibilityReport(tuple(violations)), (c1, c2, c3, c4, c5, c6, c7)
