"""Placement solvers: greedy repair heuristic, simulated annealing, exhaustive
search.

All solvers are deterministic given the scenario seed.  Greedy's budget and
fog-utility repairs are one mechanism (_Repair) with different keys and term
tables.  The solvers share mutable state through the graph: the EvalContext
kept on it, and on that context greedy's budget repair and what follows it
per repair length, which a greedy solve extends.  Scenarios on different
graph objects may be solved from parallel threads, but one graph must not be
solved from two threads at once.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import exp, inf

from ._rng import Stream, mix_entropy
from .model import (
    BruteForceConfig,
    ObjectiveMode,
    Placement,
    SAConfig,
    Scenario,
)
from .schedule import (
    _CLOUD,
    _FOG,
    _LOCAL,
    TIME_TOL,
    ScheduleResult,
    _core_eval,
    _finishes,
    check_feasibility,
    eval_context,
)


class SolverError(RuntimeError):
    """A solver could not produce a placement."""


class Infeasible(SolverError):
    """No placement satisfies the constraints (as far as the solver can tell)."""


class RestartsExhausted(SolverError):
    """Annealing found no budget-feasible placement within max_restarts."""


class TooLarge(SolverError):
    """The task count exceeds the exhaustive-search cap."""


@dataclass(frozen=True)
class SolveOutcome:
    """A solver's answer: `result`, the evaluation of the returned placement,
    is the one record of the solve, its tier codes included.

    `feasible` is the verdict of check_feasibility on `result`;
    `iterations` counts solver steps (greedy: initial pass plus repair moves,
    annealing: proposals across restarts, exhaustive: the placements its walk
    tested, which is all 3^N).  `placement` is derived from `result.tiers`
    on first read, through Placement's checked path, and kept; no solver
    builds it.
    """

    result: ScheduleResult
    feasible: bool
    iterations: int
    wall_time: float

    @cached_property
    def placement(self) -> Placement:
        return Placement(dict(enumerate(self.result.tiers, 1)))


def metropolis_accept(delta: float, temperature: float, rng: Stream) -> bool:
    """Accept a candidate whose objective changed by `delta`.

    Non-worsening moves are always accepted; worsening moves with probability
    exp(-delta / temperature).  Draws `rng.random()` only for worsening
    moves; any object with that method will do, a numpy Generator included.
    """
    if delta <= 0:
        return True
    if temperature <= 0:
        return False
    return rng.random() < exp(-delta / temperature)


def _outcome(scenario, result, iterations, t_start) -> SolveOutcome:
    return SolveOutcome(
        result=result,
        feasible=check_feasibility(result, scenario).feasible,
        iterations=iterations,
        wall_time=time.perf_counter() - t_start,
    )


def _greedy_start(ctx) -> list:
    """Phase 1 of greedy_solve: each task's tier code, picked in
    topological order."""
    n = ctx.n
    tiers = [0] * n
    chosen = [0.0] * n
    for i in ctx.topo:
        fin_l, fin_f, fin_c = _finishes(ctx, i, tiers, chosen)
        if fin_l < fin_f and fin_l < fin_c:
            tiers[i], chosen[i] = _LOCAL, fin_l
        elif ctx.rev_c[i] >= ctx.e_c[i]:
            tiers[i], chosen[i] = _CLOUD, fin_c
        else:
            tiers[i], chosen[i] = _FOG, fin_f
    return tiers


class _Repair:
    """One of greedy_solve's repairs: demotions of the tier codes `start`,
    as (task index, new tier code) in the order they are made (`moves`),
    and `totals[k]`, the total of one term table (`ctx.cost` or `ctx.du_f`)
    after the first k moves.  The totals are added up as the running sums of
    a full evaluation add them: a move re-adds the sums before each
    topological position from the moved task's position on.

    Moves are made only as far as a `stop` call needs, from two heaps built
    on the first move, so every call must pass the same keys.  The key
    functions are not kept, so an instance kept on the graph's EvalContext
    pickles with it.
    """

    __slots__ = ("start", "moves", "totals", "_table", "_terms", "_sums", "_heaps")

    def __init__(self, ctx, tiers, table):
        self.start = tuple(tiers)
        self.moves = []
        self._table = table
        # term of the task at each topological position, and the running
        # sums before each position (index n: the total)
        self._terms = [table[tiers[i]][i] for i in ctx.topo]
        self._sums = list(accumulate(self._terms, initial=0.0))
        self.totals = [self._sums[-1]]
        self._heaps = None

    def tiers(self, k: int) -> list:
        """The tier codes after the first k moves."""
        tiers = list(self.start)
        for i, tier in self.moves[:k]:
            tiers[i] = tier
        return tiers

    def add(self, ctx, i: int, tier: int) -> None:
        """Move task i to `tier`, re-adding the sums from its position."""
        d = ctx.pos[i]
        terms, sums = self._terms, self._sums
        terms[d] = self._table[tier][i]
        sums[d:] = accumulate(terms[d:], initial=sums[d])
        self.moves.append((i, tier))
        self.totals.append(sums[-1])

    def stop(self, ctx, done, cloud_key, fog_key) -> int:
        """The fewest moves after which `done(total)` holds, making moves
        until it does or no task is left to move; in the latter case it does
        not hold after the returned count.  A move takes the cloud task with
        the smallest `cloud_key` (None: the task stays) to the fog, or once
        none is left, the fog task with the smallest `fog_key` to the
        device; ties go to the lowest index.  Each heap entry leaves only
        through the heap that holds it, so none goes stale."""
        totals = self.totals
        for k, total in enumerate(totals):
            if done(total):
                return k
        if self._heaps is None:
            start = self.start
            cloud = [(key, i) for i, t in enumerate(start)
                     if t == _CLOUD and (key := cloud_key(i)) is not None]
            fog = [(fog_key(i), i) for i, t in enumerate(start) if t == _FOG]
            heapify(cloud)
            heapify(fog)
            self._heaps = cloud, fog
        cloud, fog = self._heaps
        while not done(totals[-1]):
            if cloud:
                i = heappop(cloud)[1]
                heappush(fog, (fog_key(i), i))
                self.add(ctx, i, _FOG)
            elif fog:
                self.add(ctx, heappop(fog)[1], _LOCAL)
            else:
                break
        return len(totals) - 1


def _greedy_tail(ctx, tiers) -> tuple:
    """Phase 3 of greedy_solve from the tier codes `tiers`, and the
    evaluation of its final tiers: (its moves, the ScheduleResult)."""
    e_s, e_f, rev_f = ctx.e_s, ctx.e_f, ctx.rev_f

    def heavy(i):
        if e_s[i] <= e_f[i]:
            return None
        return -(e_s[i] / e_f[i]) if e_f[i] > 0 else -inf

    def margin(i):
        return rev_f[i] / e_f[i] if e_f[i] > 0 else inf

    fog = _Repair(ctx, tiers, ctx.du_f)
    # the negated repair test, so that a NaN total asks for no repair; with
    # no task left to move the utility stays negative, and the feasibility
    # check flags it
    k3 = fog.stop(ctx, lambda u_f: not u_f < -TIME_TOL, heavy, margin)
    return fog.moves, _core_eval(ctx, fog.tiers(k3))


def greedy_solve(scenario: Scenario, trace: list | None = None) -> SolveOutcome:
    """Three-phase greedy heuristic.

    Phase 1 walks tasks in topological order (`ctx.topo`, which is id order
    when the ids are a topological order) and picks, per task: local if the
    local finish beats both offload finishes, otherwise cloud when the cloud
    price paid for the task covers the cloud's execution energy, otherwise
    fog.

    Phase 2 repairs the budget: while total cost exceeds it, move the cloud
    task with the smallest cloud energy to the fog; once no cloud task is
    left, move the fog task with the smallest fog energy to the device.

    Phase 3 repairs fog utility: while it is negative, pull the cloud task
    with the largest forwarding/execution energy ratio (when that ratio
    exceeds 1) back to the fog; otherwise drop the fog task with the smallest
    revenue/energy ratio to the device.  Each move only ever demotes a task
    cloud->fog or fog->local, so the loop count is bounded by 2N.  Ties
    between candidate tasks go to the lowest task id.

    Both repairs are one mechanism (_Repair) with their own heap keys and
    term table.  A repair re-adds its table's running sums from the moved
    task's topological position with the evaluator's additions in the
    evaluator's order, so every repair decision sees the bits a full
    evaluation would give; the schedule itself is evaluated only for the
    returned placement.

    Phase 1 and the order of the phase-2 moves do not depend on the budget,
    which only decides how many of those moves to make.  So phase 2's repair
    is kept on the graph's EvalContext (`greedy_prefix`), and every solve on
    the same graph and platform shares it: a solve takes the first k moves
    after which the cost total is within the budget, making further moves
    only when no kept total is.  Phase 3 starts from the tiers after those k
    moves and tracks only the fog utility, so it and the final evaluation
    depend only on k: they run for the first solve that takes k moves, and
    what a later solve reads of them, phase 3's moves and the final
    ScheduleResult, is kept on the context (`greedy_tails`, at most 2N+1
    entries); a later solve that takes k moves shares the kept result and
    reads its tiers from it.  Every solve runs its own phase-2 stop,
    Infeasible test and feasibility check, which read its budget.

    If `trace` is given, (phase, task_id, total_cost) is appended per move;
    the phase-3 cost totals are then re-added by replaying its moves from
    the tiers after phase 2.
    Raises Infeasible when all tasks are local and the budget still cannot be
    met.
    """
    t_start = time.perf_counter()
    ctx = eval_context(scenario.graph, scenario.platform)
    budget = scenario.budget
    prefix = ctx.greedy_prefix
    if prefix is None:
        prefix = ctx.greedy_prefix = _Repair(ctx, _greedy_start(ctx), ctx.cost)

    # Phase 2 from the kept repair: k budget-repair moves.
    limit = budget + TIME_TOL
    k = prefix.stop(ctx, lambda total: total <= limit, ctx.e_c.__getitem__,
                    ctx.e_f.__getitem__)
    if trace is not None:
        trace.extend((2, i + 1, total)
                     for (i, _), total in zip(prefix.moves[:k], prefix.totals[1:]))
    if prefix.totals[k] > limit:
        raise Infeasible(
            f"all tasks local, total energy {prefix.totals[k]} still exceeds "
            f"budget {budget}"
        )

    # Phase 3 and the final evaluation, kept per k.
    tail = ctx.greedy_tails.get(k)
    if tail is None:
        tail = ctx.greedy_tails[k] = _greedy_tail(ctx, prefix.tiers(k))
    moves, result = tail
    if trace is not None:
        cost = _Repair(ctx, prefix.tiers(k), ctx.cost)
        for i, tier in moves:
            cost.add(ctx, i, tier)
        trace.extend((3, i + 1, total) for (i, _), total in zip(moves, cost.totals[1:]))

    return _outcome(scenario, result, ctx.n + k + len(moves), t_start)


def sa_solve(scenario: Scenario) -> SolveOutcome:
    """Simulated annealing over tier codes {1, 2, 3}.

    Starts from a uniformly random placement.  Each iteration perturbs one
    uniformly chosen task by a uniform integer step in
    [-neighbor_range, neighbor_range] clamped to [1, 3], cools the
    temperature, and applies the Metropolis rule to the objective change.
    The annealing loop runs while the temperature exceeds t_stop AND both
    utilities of the last accepted placement are non-negative, so accepting a
    placement that turns a utility negative stops the run early.  The guard
    starts from u_f = u_c = 0, not from the random start's utilities, so the
    start itself never stops a run: every run makes at least one proposal
    when t0 > t_stop, except on a graph with no task to perturb, which makes
    none.  The guard compares with >= 0 exactly, without the TIME_TOL slack
    that check_feasibility allows.  If the final placement exceeds the
    budget the whole process restarts from a fresh random placement, up to
    max_restarts times; restart k draws from the dedicated stream
    Stream(seed, (k,)), numpy's PCG64 stream for that seed and spawn key.
    The seed is mixed once per solve (`mix_entropy`), and each restart mixes
    only its key into that pool; a run draws its start tiers in one call.  A
    proposal is evaluated by resuming the walk of the current placement's
    evaluation at the moved task's topological position, and re-walks
    nothing when the clamped step leaves the task's tier unchanged.
    """
    t_start = time.perf_counter()
    cfg = scenario.solver_config
    if not isinstance(cfg, SAConfig):
        raise TypeError("sa_solve needs a Scenario carrying an SAConfig")
    ctx = eval_context(scenario.graph, scenario.platform)
    n = ctx.n
    by_sum = scenario.objective_mode is ObjectiveMode.SUM_FINISH
    budget = scenario.budget
    total_iterations = 0
    pool = mix_entropy(scenario.seed)

    for restart in range(cfg.max_restarts + 1):
        rng = Stream.from_pool(pool, (restart,))
        # a graph with no tasks draws nothing
        tiers = rng.integers(1, 4, n) if n else []
        core = _core_eval(ctx, tiers)
        obj_cur = core.sum_finish if by_sum else core.makespan
        u_f = 0.0
        u_c = 0.0
        tem = cfg.t0
        while n and tem > cfg.t_stop and u_f >= 0 and u_c >= 0:
            step = rng.integers(-cfg.neighbor_range, cfg.neighbor_range + 1)
            idx = rng.integers(0, n)
            cand = list(tiers)
            cand[idx] = min(_CLOUD, max(_LOCAL, cand[idx] + step))
            tem *= cfg.cool
            # re-walk from the moved task's position, or nothing when the
            # clamped step left its tier as it was
            start = ctx.pos[idx] if cand[idx] != tiers[idx] else n
            cand_core = _core_eval(ctx, cand, core, start)
            obj_cand = cand_core.sum_finish if by_sum else cand_core.makespan
            if metropolis_accept(obj_cand - obj_cur, tem, rng):
                tiers = cand
                core = cand_core
                obj_cur = obj_cand
                u_f = cand_core.fog_utility
                u_c = cand_core.cloud_utility
            total_iterations += 1
        if core.total_cost <= budget + TIME_TOL:
            # one evaluation call for the returned placement: resuming at n walks nothing
            core = _core_eval(ctx, tiers, core, n)
            return _outcome(scenario, core, total_iterations, t_start)

    raise RestartsExhausted(
        f"no budget-feasible placement in {cfg.max_restarts + 1} annealing runs"
    )


def brute_force_solve(scenario: Scenario) -> SolveOutcome:
    """Enumerate all 3^N placements and return the feasible optimum.

    The enumeration is a depth-first walk over tasks in topological order:
    each search-tree node at depth d takes the finish times of task topo[d]
    on local, fog and cloud from one predecessor scan (`_finishes`) over its
    prefix's tier codes and finish times, and visits the three children in
    that order, adding each one's terms to the prefix's running makespan,
    sum of finish times, cost and utilities in the same order as the
    evaluator adds them.  The terms of each depth are read from a row built
    once per solve.  A node at the last depth tests its three leaves in
    place: a placement is feasible when both utilities are non-negative and
    total cost is within budget (precedence constraints hold by
    construction), and only a feasible leaf's objective is compared with
    the optimum's.  The limits read only the running sums, so such a node
    computes its task's finish times only when one of its leaves passes
    them, at the first that does.  Nothing is pruned: `iterations` counts
    the leaves tested, 3 per last-depth node, which is 3^N.  Ties keep the
    optimum whose tiers, read in task-id order, come first lexicographically
    (local < fog < cloud).  Raises TooLarge above the configured cap and
    Infeasible when nothing qualifies.
    """
    t_start = time.perf_counter()
    cfg = scenario.solver_config
    cap = cfg.cap if isinstance(cfg, BruteForceConfig) else BruteForceConfig().cap
    n = len(scenario.graph)
    if n > cap:
        raise TooLarge(f"{n} tasks exceed the exhaustive-search cap of {cap}")
    ctx = eval_context(scenario.graph, scenario.platform)
    by_sum = scenario.objective_mode is ObjectiveMode.SUM_FINISH
    limit = scenario.budget + TIME_TOL
    floor = -TIME_TOL
    sinks = set(ctx.sinks)
    # per topological position: the task, whether it is a sink, and per
    # tier (local, fog, cloud) its tier code and cost, fog-utility and
    # cloud-utility terms, read from the context's tables once per solve
    rows = [
        (i, i in sinks, tuple((t, ctx.cost[t][i], ctx.du_f[t][i], ctx.du_c[t][i])
                              for t in (_LOCAL, _FOG, _CLOUD)))
        for i in ctx.topo
    ]
    last = n - 1
    tiers = [_LOCAL] * n
    chosen = [0.0] * n
    best_obj = inf
    best_tiers = None
    leaves = 0

    def visit(d, makespan, sum_finish, cost, u_f, u_c):
        nonlocal leaves, best_obj, best_tiers
        i, sink, terms = rows[d]
        if d == last:
            # the last task in topological order is a sink; its finish
            # times are computed at the first leaf within the limits
            leaves += 3
            fins = None
            for k, (t, c, df, dc) in enumerate(terms):
                if u_f + df < floor or u_c + dc < floor or cost + c > limit:
                    continue
                if fins is None:
                    fins = _finishes(ctx, i, tiers, chosen)
                fin = fins[k]
                tiers[i] = t
                obj = sum_finish + fin if by_sum else fin if fin > makespan else makespan
                if obj < best_obj or (obj == best_obj and best_tiers is not None
                                      and tiers < best_tiers):
                    best_obj = obj
                    best_tiers = list(tiers)
            return
        fins = _finishes(ctx, i, tiers, chosen)
        for (t, c, df, dc), fin in zip(terms, fins):
            tiers[i] = t
            chosen[i] = fin
            visit(d + 1, fin if sink and fin > makespan else makespan, sum_finish + fin,
                  cost + c, u_f + df, u_c + dc)

    if n:
        visit(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    else:
        # the empty placement: one leaf, within every budget
        leaves = 1
        best_obj, best_tiers = 0.0, []
    if best_tiers is None:
        raise Infeasible("no placement satisfies the utility and budget constraints")
    return _outcome(scenario, _core_eval(ctx, best_tiers), leaves, t_start)


def solve(scenario: Scenario) -> SolveOutcome:
    """Dispatch on the scenario's solver configuration."""
    cfg = scenario.solver_config
    if isinstance(cfg, SAConfig):
        return sa_solve(scenario)
    if isinstance(cfg, BruteForceConfig):
        return brute_force_solve(scenario)
    return greedy_solve(scenario)
