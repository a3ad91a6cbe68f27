"""Placement solvers: greedy repair heuristic, simulated annealing, exhaustive
search.

All solvers are deterministic given the scenario seed.  Greedy's budget and
fog-utility repairs are one mechanism (_Repair) with different term tables
and orders of moves, each sorted once.

The solvers share mutable state through the graph: its EvalContext, and on
that the `ctx.kept` dict, whose keys and contents this module alone sets.
Under "greedy", greedy keeps (prefix, tails): the prefix is its budget
repair from the phase-1 tiers, with the order of its moves and its cost
totals as far as made so far; the tails map each number k of budget-repair
moves solved so far to (the fog-utility repair's moves from there, the
fog-utility total after 0, 1, ... of them, the final tiers' evaluation), at
most 2N+1 entries of O(N) each.  Annealing and exhaustive search keep
nothing.  Scenarios on different graph objects may be solved from parallel
threads, but one graph must not be solved from two threads at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import exp, inf

from ._rng import Stream, mix_entropy
from .model import (
    BruteForceConfig,
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


# the most tasks exhaustive search takes: 3^14 placements
_BRUTE_CAP = 14


@dataclass(frozen=True)
class SolveOutcome:
    """A solver's answer: `result`, the evaluation of the returned placement,
    is the one record of the solve, its tier codes included.

    `feasible` is the verdict of check_feasibility on `result`;
    `iterations` counts solver steps (greedy: initial pass plus repair moves,
    annealing: proposals across restarts, exhaustive: the placements its walk
    tested, which is all 3^N).  `placement` is derived from `result.tiers`
    on first read, through Placement's checked path, and kept; no solver
    builds it.  It holds no clock reading: `bench` times each solve.
    """

    result: ScheduleResult
    feasible: bool
    iterations: int

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


def _outcome(scenario, result, iterations) -> SolveOutcome:
    return SolveOutcome(
        result=result,
        feasible=check_feasibility(result, scenario).feasible,
        iterations=iterations,
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
        elif ctx.cost[_CLOUD][i] >= ctx.e_c[i]:
            tiers[i], chosen[i] = _CLOUD, fin_c
        else:
            tiers[i], chosen[i] = _FOG, fin_f
    return tiers


def _demotions(tiers, cloud_key, fog_key) -> list:
    """Every move a repair from the tier codes `tiers` can make, in the order
    it makes them, as (task index, new tier code): each cloud task whose
    `cloud_key` is not None to the fog, by (key, index), then every fog task,
    those moved included, to the device by (`fog_key`, index).  The keys are
    fixed per task, so the order does not depend on the repair's totals."""
    cloud = sorted((key, i) for i, t in enumerate(tiers)
                   if t == _CLOUD and (key := cloud_key(i)) is not None)
    fog = sorted([(fog_key(i), i) for i, t in enumerate(tiers) if t == _FOG]
                 + [(fog_key(i), i) for _, i in cloud])
    return [(i, _FOG) for _, i in cloud] + [(i, _LOCAL) for _, i in fog]


class _Repair:
    """One of greedy_solve's repairs: demotions of the tier codes `start`,
    made in the order `order` (from _demotions; empty until its owner sets
    it), and `totals[k]`, the total of one term table (`ctx.cost` or
    `ctx.du_f`) after the first k moves.  The totals are added up as the
    running sums of a full evaluation add them: a move re-adds the sums
    before each topological position from the moved task's position on.
    Moves are made only as far as a `stop` call needs.
    """

    __slots__ = ("start", "order", "totals", "_table", "_terms", "_sums")

    def __init__(self, ctx, tiers, table):
        self.start = tuple(tiers)
        self.order = []
        self._table = table
        # term of the task at each topological position, and the running
        # sums before each position (index n: the total)
        self._terms = [table[tiers[i]][i] for i in ctx.topo]
        self._sums = list(accumulate(self._terms, initial=0.0))
        self.totals = [self._sums[-1]]

    def tiers(self, k: int) -> list:
        """The tier codes after the first k moves."""
        tiers = list(self.start)
        for i, tier in self.order[:k]:
            tiers[i] = tier
        return tiers

    def stop(self, ctx, done) -> int:
        """The fewest moves after which `done(total)` holds, making moves
        until it does or the order runs out; in the latter case it does not
        hold after the returned count."""
        totals = self.totals
        for k, total in enumerate(totals):
            if done(total):
                return k
        table, terms, sums = self._table, self._terms, self._sums
        for i, tier in self.order[len(totals) - 1:]:
            d = ctx.pos[i]
            terms[d] = table[tier][i]
            sums[d:] = accumulate(terms[d:], initial=sums[d])
            totals.append(sums[-1])
            if done(sums[-1]):
                break
        return len(totals) - 1


def _greedy_tail(ctx, tiers) -> tuple:
    """Phase 3 of greedy_solve from the tier codes `tiers`: (its moves, the
    fog-utility total after 0, 1, ... of them, its final tiers' evaluation).
    The order of moves is sorted only when the starting total needs one."""
    # du_f on the cloud is the negated forwarding energy
    du_f_c, e_f, rev_f = ctx.du_f[_CLOUD], ctx.e_f, ctx.cost[_FOG]

    def heavy(i):
        d = du_f_c[i]
        if -d <= e_f[i]:
            return None
        return d / e_f[i] if e_f[i] > 0 else -inf

    def margin(i):
        return rev_f[i] / e_f[i] if e_f[i] > 0 else inf

    fog = _Repair(ctx, tiers, ctx.du_f)
    if fog.totals[0] < -TIME_TOL:
        fog.order = _demotions(tiers, heavy, margin)
    # the negated repair test, so that a NaN total asks for no repair; with
    # no task left to move the utility stays negative, and the feasibility
    # check flags it
    k3 = fog.stop(ctx, lambda u_f: not u_f < -TIME_TOL)
    return fog.order[:k3], fog.totals, _core_eval(ctx, fog.tiers(k3))


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

    Both repairs are one mechanism (_Repair) with their own term table and
    order of moves.  Every key is fixed per task, and a cloud task moved to
    the fog moves on only after every cloud move is made, so the order is
    sorted once (_demotions): the cloud moves by key, then the fog moves by
    key, ties to the lowest index, and each move reads the next entry.
    Phase 2 sorts its order when it builds its repair, phase 3 only when the
    fog utility it starts from needs a move.  A repair re-adds its table's
    running sums from the moved task's topological position with the
    evaluator's additions in the evaluator's order, so every repair decision
    sees the bits a full evaluation would give; the schedule itself is
    evaluated only for the returned placement.

    Phase 1 and the order of the phase-2 moves do not depend on the budget,
    which only decides how many of those moves, k, to make, and phase 3 and
    the final evaluation depend only on k.  So all of them are kept on the
    graph's EvalContext (`ctx.kept["greedy"]`, see the module docstring) and
    shared by every solve on the same graph and platform: a solve takes the
    first k moves after which the cost total is within the budget, making
    further moves only when no kept total is, and runs phase 3 and the final
    evaluation only for a k not solved before; a later solve that takes k
    moves shares the kept result and reads its tiers from it.  Every solve
    runs its own phase-2 stop, Infeasible test and feasibility check, which
    read its budget.

    If `trace` is given, (phase, task_id, total) is appended per move: the
    cost total in phase 2, the fog-utility total in phase 3, each as the
    repair keeps it, which is the bits a full evaluation gives.
    Raises Infeasible only when the evaluated all-local placement costs more
    than budget + TIME_TOL: it raises once phase 2 has moved every task to
    the device, and the repair adds its cost total as that evaluation adds
    it.
    """
    ctx = eval_context(scenario.graph, scenario.platform)
    budget = scenario.budget
    kept = ctx.kept.get("greedy")
    if kept is None:
        start = _greedy_start(ctx)
        prefix = _Repair(ctx, start, ctx.cost)
        prefix.order = _demotions(start, ctx.e_c.__getitem__, ctx.e_f.__getitem__)
        kept = ctx.kept["greedy"] = (prefix, {})
    prefix, tails = kept

    # Phase 2 from the kept repair: k budget-repair moves.
    limit = budget + TIME_TOL
    k = prefix.stop(ctx, lambda total: total <= limit)
    if trace is not None:
        trace.extend((2, i + 1, total)
                     for (i, _), total in zip(prefix.order[:k], prefix.totals[1:]))
    if prefix.totals[k] > limit:
        raise Infeasible(
            f"all tasks local, total energy {prefix.totals[k]} still exceeds "
            f"budget {budget}"
        )

    # Phase 3 and the final evaluation, kept per k.
    tail = tails.get(k)
    if tail is None:
        tail = tails[k] = _greedy_tail(ctx, prefix.tiers(k))
    moves, totals, result = tail
    if trace is not None:
        trace.extend((3, i + 1, total) for (i, _), total in zip(moves, totals[1:]))

    return _outcome(scenario, result, ctx.n + k + len(moves))


def sa_solve(scenario: Scenario) -> SolveOutcome:
    """Simulated annealing over tier codes {1, 2, 3}.

    The schedule is SAConfig's, fixed: t0 = 100, cool = 0.98,
    t_stop = 0.1, neighbor_range = 3, max_restarts = 50, read once per
    solve.  Starts from a uniformly random placement.  Each iteration
    perturbs one uniformly chosen task by a uniform integer step in
    [-neighbor_range, neighbor_range] clamped to [1, 3], cools the
    temperature, and applies the Metropolis rule to the change in makespan,
    the one objective.
    The annealing loop runs while the temperature exceeds t_stop AND both
    utilities of the last accepted placement are non-negative, so accepting a
    placement that turns a utility negative stops the run early.  The guard
    starts from u_f = u_c = 0, not from the random start's utilities, so the
    start itself never stops a run: every run makes at least one proposal,
    and 342 when no accepted placement stops it, except on a graph with no
    task to perturb, which makes none.  The guard compares with >= 0
    exactly, without the TIME_TOL slack that check_feasibility allows.  If
    the final placement exceeds the budget the whole process restarts from a
    fresh random placement, up to max_restarts times; restart k draws from
    the dedicated stream Stream(seed, (k,)), numpy's PCG64 stream for that
    seed and spawn key.
    The seed is mixed once per solve (`mix_entropy`), and each restart mixes
    only its key into that pool; a run draws its start tiers in one call.  A
    proposal is evaluated by resuming the walk of the current placement's
    evaluation at the moved task's topological position, and re-walks
    nothing when the clamped step leaves the task's tier unchanged.
    """
    t0, cool, t_stop = SAConfig.t0, SAConfig.cool, SAConfig.t_stop
    neighbor_range, max_restarts = SAConfig.neighbor_range, SAConfig.max_restarts
    ctx = eval_context(scenario.graph, scenario.platform)
    n = ctx.n
    budget = scenario.budget
    total_iterations = 0
    pool = mix_entropy(scenario.seed)

    for restart in range(max_restarts + 1):
        rng = Stream.from_pool(pool, (restart,))
        # a graph with no tasks draws nothing
        tiers = rng.integers(1, 4, n) if n else []
        core = _core_eval(ctx, tiers)
        u_f = 0.0
        u_c = 0.0
        tem = t0
        while n and tem > t_stop and u_f >= 0 and u_c >= 0:
            step = rng.integers(-neighbor_range, neighbor_range + 1)
            idx = rng.integers(0, n)
            cand = list(tiers)
            cand[idx] = min(_CLOUD, max(_LOCAL, cand[idx] + step))
            tem *= cool
            # re-walk from the moved task's position, or nothing when the
            # clamped step left its tier as it was
            start = ctx.pos[idx] if cand[idx] != tiers[idx] else n
            cand_core = _core_eval(ctx, cand, core, start)
            if metropolis_accept(cand_core.makespan - core.makespan, tem, rng):
                tiers = cand
                core = cand_core
                u_f = cand_core.fog_utility
                u_c = cand_core.cloud_utility
            total_iterations += 1
        if core.total_cost <= budget + TIME_TOL:
            # one evaluation call for the returned placement: resuming at n walks nothing
            core = _core_eval(ctx, tiers, core, n)
            return _outcome(scenario, core, total_iterations)

    raise RestartsExhausted(
        f"no budget-feasible placement in {max_restarts + 1} annealing runs"
    )


def brute_force_solve(scenario: Scenario) -> SolveOutcome:
    """Enumerate all 3^N placements and return the feasible placement with
    the smallest makespan.

    The enumeration is a depth-first walk over tasks in topological order:
    each search-tree node at depth d takes the finish times of task topo[d]
    on local, fog and cloud from one predecessor scan (`_finishes`) over its
    prefix's tier codes and finish times, and visits the three children in
    that order, adding each one's terms to the prefix's running makespan,
    cost and utilities in the same order as the evaluator adds them.  The
    terms of each depth are read from a row built once per solve.  A
    placement is feasible when both utilities are non-negative and total
    cost is within budget (precedence constraints hold by construction),
    and only a feasible leaf's makespan is compared with the optimum's.  A
    node at the second-to-last depth tests its children's leaves in its own
    loop, so no last-depth node costs a call, and the limits read only the
    running sums.  It first tests each child against one bound per limit,
    taken once per solve from the last task's three leaves: its largest
    fog-utility and cloud-utility terms and its smallest cost term.  A
    child that fails the bound has no leaf within the limits, since float
    addition is monotone in each operand.  A child that passes tests each
    leaf once; if a leaf passes, the last task's finish times are computed
    once, and the child's best passing leaf is compared with the optimum
    (on a one-task graph the root tests its three leaves).  Every placement
    is tested and nothing is pruned, so `iterations` is 3^N (1 for a graph
    with no tasks).  Ties keep the optimum whose tiers, read in task-id
    order, come first lexicographically (local < fog < cloud).  Raises
    TooLarge above 14 tasks and Infeasible when nothing qualifies.
    """
    n = len(scenario.graph)
    if n > _BRUTE_CAP:
        raise TooLarge(f"{n} tasks exceed the exhaustive-search cap of {_BRUTE_CAP}")
    ctx = eval_context(scenario.graph, scenario.platform)
    if not n:
        # the empty placement, within every budget
        return _outcome(scenario, _core_eval(ctx, []), 1)
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
    # the last task in topological order, which is a sink, and the terms of
    # its local, fog and cloud leaves
    last, _, leaf_terms = rows[-1]
    (_, c1, f1, g1), (_, c2, f2, g2), (_, c3, f3, g3) = leaf_terms
    # the bound: a prefix whose running sums fail it has no leaf within the
    # limits
    fmax = max(f1, f2, f3)
    gmax = max(g1, g2, g3)
    cmin = min(c1, c2, c3)
    fold = n - 2
    tiers = [_LOCAL] * n
    chosen = [0.0] * n
    best_obj = inf
    best_tiers = None

    def visit(d, makespan, cost, u_f, u_c):
        nonlocal best_obj, best_tiers
        i, sink, terms = rows[d]
        fins = _finishes(ctx, i, tiers, chosen)
        if d < fold:
            for (t, c, df, dc), fin in zip(terms, fins):
                tiers[i] = t
                chosen[i] = fin
                visit(d + 1, fin if sink and fin > makespan else makespan, cost + c,
                      u_f + df, u_c + dc)
            return
        # the second-to-last depth: a child passes the bound, then each of
        # its three leaves is tested once, and the last task's finish times
        # are computed only for a child with a leaf within the limits
        for (t, c, df, dc), fin in zip(terms, fins):
            c = cost + c
            df = u_f + df
            dc = u_c + dc
            if df + fmax < floor or dc + gmax < floor or c + cmin > limit:
                continue
            ok1 = df + f1 >= floor and dc + g1 >= floor and c + c1 <= limit
            ok2 = df + f2 >= floor and dc + g2 >= floor and c + c2 <= limit
            ok3 = df + f3 >= floor and dc + g3 >= floor and c + c3 <= limit
            if not (ok1 or ok2 or ok3):
                continue
            tiers[i] = t
            chosen[i] = fin
            ms = fin if sink and fin > makespan else makespan
            # the child's best passing leaf: the smallest makespan, the first
            # (lowest tier) on ties; then the optimum's update
            fl, ff, fc = _finishes(ctx, last, tiers, chosen)
            obj = inf
            if ok1:
                obj = fl if fl > ms else ms
                tiers[last] = _LOCAL
            if ok2 and (ff if ff > ms else ms) < obj:
                obj = ff if ff > ms else ms
                tiers[last] = _FOG
            if ok3 and (fc if fc > ms else ms) < obj:
                obj = fc if fc > ms else ms
                tiers[last] = _CLOUD
            if obj < best_obj or (obj == best_obj and best_tiers is not None
                                  and tiers < best_tiers):
                best_obj = obj
                best_tiers = list(tiers)

    if fold >= 0:
        visit(0, 0.0, 0.0, 0.0, 0.0)
    else:
        # one task: the root's three leaves, whose prefix sums are all 0
        for (t, c, df, dc), fin in zip(leaf_terms, _finishes(ctx, last, tiers, chosen)):
            if df >= floor and dc >= floor and c <= limit and fin < best_obj:
                best_obj = fin
                best_tiers = [t]
    if best_tiers is None:
        raise Infeasible("no placement satisfies the utility and budget constraints")
    return _outcome(scenario, _core_eval(ctx, best_tiers), 3 ** n)


def solve(scenario: Scenario) -> SolveOutcome:
    """Dispatch on the scenario's solver configuration."""
    cfg = scenario.solver_config
    if isinstance(cfg, SAConfig):
        return sa_solve(scenario)
    if isinstance(cfg, BruteForceConfig):
        return brute_force_solve(scenario)
    return greedy_solve(scenario)
