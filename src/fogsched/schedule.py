"""Placement evaluation: precedence recursions, delay, device cost, utilities.

Given a placement, the evaluator walks the DAG in topological order and
derives every ready/finish time:

* a local task becomes ready when all predecessors have finished at their
  assigned tiers and finishes after its local execution time;
* a fog task's upload completes at uplink_time + latest locally-placed
  predecessor finish (uploads of consecutive offloaded tasks overlap); it
  becomes ready at max(upload done, latest fog predecessor, latest cloud
  predecessor) and finishes after its fog execution time;
* a cloud task's data is first uploaded to the fog, then forwarded; it
  becomes ready at max(upload done + forward time, latest cloud predecessor,
  forward of latest fog predecessor) and finishes after its cloud execution
  time.

The walk state is one (tier code, finish time) pair per task: a step reads
each predecessor's tier to tell which of the three maxima its finish time
feeds.  Tasks without predecessors take 0 for every predecessor maximum.
Greedy's first phase and the exhaustive search need a task's finish time on
all three tiers at once; one scan of its predecessors gives the three maxima,
from which `_finishes` makes the step's additions for each tier, so it gives
the evaluator's bits without a scan per tier.  A TaskSchedule row holds a
task's step at its assigned tier: one ready time and one finish time.  There
is no machine contention: any number of tasks may execute concurrently on one
tier, only precedence serializes work.

Each per-tier cost and utility term is defined once, as a table on
EvalContext indexed by tier code.  Makespan is the largest sink finish time.
The sum of finish times, the device cost and the two utilities are
accumulated in the same topological walk, so each sum adds its per-task
terms in topological order (id order when the ids are a topological order);
the exhaustive search relies on this to carry bit-identical running sums
down its search tree, and the evaluator keeps the running sums at every
topological position, so a placement that differs from an evaluated one
only from some position on is evaluated by resuming the walk there.

One record holds each evaluation: `_core_eval` returns the ScheduleResult,
which keeps the walk's tier codes, finish times, running sums and each task's
step (its ready and transfer times), recorded as the walk makes them, so
neither the TaskSchedule rows nor `check_feasibility` walk the tasks again,
and a solver's outcome reads its tiers from it.
`check_feasibility` returns a FeasibilityReport holding only the violations
found.

Everything is pure: identical inputs give bit-identical results.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import inf, isfinite
from operator import attrgetter, neg, sub

from . import costs as _costs
from .model import (
    _TIERS,
    Placement,
    Platform,
    Scenario,
    TaskGraph,
    Tier,
    validate_placement,
)

# Absolute tolerance for all feasibility comparisons on times, costs and
# utilities (64-bit floats throughout).
TIME_TOL = 1e-9

_LOCAL = int(Tier.LOCAL)
_FOG = int(Tier.FOG)
_CLOUD = int(Tier.CLOUD)


@dataclass(frozen=True)
class TaskSchedule:
    """Per-task slice of a schedule, at the task's tier: its ready time,
    uplink finish, forward finish, finish time and device cost.  A transfer
    finish is 0 where the tier makes no such transfer: `finish_tx` on the
    device, `finish_fwd` off the cloud."""

    task_id: int
    tier: Tier
    ready: float
    finish_tx: float
    finish_fwd: float
    finish: float
    cost: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the seven constraint checks: the violations found, each as
    (constraint name, task id or 0, message).  Constraint Ck holds when no
    violation names it; C5 (one tier per task) and C6 (binary indicators)
    hold by construction, as a result holds a single tier code per task."""

    violations: tuple[tuple[str, int, str], ...] = ()

    @property
    def feasible(self) -> bool:
        return not self.violations


class DerivedValueError(ValueError):
    """A scenario whose fields pass their checks derives a quantity the
    model cannot use: an uplink rate that is not finite and > 0, a server
    energy coefficient, time, energy or price that is not finite, or a
    total that some placement's evaluation could overflow.  The message
    names the quantity, and the task for a per-task one."""


def _energy_coefficient(server) -> float:
    try:
        coef = _costs.energy_coefficient(server)
    except OverflowError:
        coef = inf
    if not isfinite(coef):
        raise DerivedValueError(
            f"{server.label} energy coefficient alpha * cpu**epsilon + beta is not finite"
        )
    return coef


def _require_finite_columns(columns: dict) -> None:
    """Raise DerivedValueError naming the first non-finite entry of the
    per-task columns, given by name."""
    if all(map(isfinite, chain.from_iterable(columns.values()))):
        return
    for name, column in columns.items():
        for i, value in enumerate(column):
            if not isfinite(value):
                raise DerivedValueError(f"{name} of task {i + 1} is {value!r}, not finite")


def _require_finite_totals(ctx) -> None:
    """Raise DerivedValueError unless every total an evaluation can make is
    finite.  Each bound adds, in topological order, every task's largest
    term with the evaluator's kind of additions: a finish time is at most
    the task's largest execution time plus its uplink and forwarding times
    plus the largest finish time before it, and since rounding is monotone
    a bound made so is at least every total it bounds."""
    finish = finishes = cost = u_f = u_c = 0.0
    tau_l, tau_t, tau_f, tau_r, tau_c = ctx.tau_l, ctx.tau_t, ctx.tau_f, ctx.tau_r, ctx.tau_c
    _, cost_l, cost_f, cost_c = ctx.cost
    _, _, du_f_f, du_f_c = ctx.du_f
    du_c_c = ctx.du_c[_CLOUD]
    for i in ctx.topo:
        finish = max(tau_l[i], tau_f[i], tau_c[i]) + (tau_t[i] + finish + tau_r[i])
        finishes += finish
        cost += max(cost_l[i], cost_f[i], cost_c[i])
        u_f += max(abs(du_f_f[i]), abs(du_f_c[i]))
        u_c += abs(du_c_c[i])
    for name, bound in (("a finish time", finish), ("the sum of finish times", finishes),
                        ("the device cost", cost), ("the fog utility", u_f),
                        ("the cloud utility", u_c)):
        if not isfinite(bound):
            raise DerivedValueError(f"{name} can add up to {bound!r}, not finite")


class EvalContext:
    """Per-scenario precomputation shared by the evaluator and the solvers.

    Task ids are 1..N, so index i corresponds to task id i+1.  `topo`,
    `pos`, `preds` and `sinks` are the graph's :class:`GraphStructure`, so
    an invalid graph raises here; the solvers take the graph's kept context
    from :func:`eval_context`.  Each per-task column is filled with its
    `costs` function's expression, from the uplink rate and the servers'
    energy coefficients computed once per context.  A rate that is not
    finite and > 0, or a coefficient or column entry that is not finite,
    raises DerivedValueError, so no inf or NaN reaches a solver.  The
    per-tier terms are tables indexed [tier code][task] (slot 0 unused):
    `cost` is what the device pays (local energy, or the serving tier's
    price for the task's data), `du_f` what the task adds to the fog's
    utility (revenue minus execution energy on the fog, minus forwarding
    energy on the cloud) and `du_c` what it adds to the cloud's (revenue
    minus execution energy on the cloud).  `kept` is a dict, empty when
    the context is built, in which the solvers keep what they reuse across
    solves on this context; `fogsched.solvers` owns its keys and contents.
    """

    __slots__ = (
        "n",
        "topo",
        "pos",
        "preds",
        "sinks",
        "tau_l",
        "tau_t",
        "tau_f",
        "tau_r",
        "tau_c",
        "e_f",
        "e_c",
        "cost",
        "du_f",
        "du_c",
        "kept",
    )

    def __init__(self, graph: TaskGraph, platform: Platform):
        n = len(graph)
        tasks = graph.tasks
        fog, cloud = platform.fog, platform.cloud
        self.n = n
        self.topo, self.pos, self.preds, self.sinks = graph.structure
        rate = _costs.uplink_rate(platform.radio)
        if not (rate > 0 and isfinite(rate)):
            raise DerivedValueError(f"uplink rate is {rate!r}; it must be finite and > 0")
        coef_f = _energy_coefficient(fog)
        coef_c = _energy_coefficient(cloud)
        self.tau_l = tuple(_costs.local_exec_time(t, platform) for t in tasks)
        self.tau_t = tuple(t.data_size / rate for t in tasks)
        self.tau_f = tuple(_costs.server_exec_time(t, fog) for t in tasks)
        self.tau_r = tuple(_costs.fog_cloud_time(t, platform) for t in tasks)
        self.tau_c = tuple(_costs.server_exec_time(t, cloud) for t in tasks)
        self.e_f = tuple(coef_f * tau for tau in self.tau_f)
        self.e_c = tuple(coef_c * tau for tau in self.tau_c)
        e_s = tuple(_costs.fog_cloud_energy(t, platform) for t in tasks)
        rev_f = tuple(fog.price * t.data_size for t in tasks)
        rev_c = tuple(cloud.price * t.data_size for t in tasks)
        zero = (0.0,) * n
        try:
            local = tuple(_costs.local_energy(t, platform) for t in tasks)
        except OverflowError:
            # device_cpu**2 overflows whatever the task: the check below
            # names task 1
            local = (inf,) * n
        _require_finite_columns({
            "local execution time": self.tau_l, "uplink time": self.tau_t,
            "fog execution time": self.tau_f, "fog-cloud transfer time": self.tau_r,
            "cloud execution time": self.tau_c, "fog execution energy": self.e_f,
            "cloud execution energy": self.e_c, "fog forwarding energy": e_s,
            "local energy": local, "fog price": rev_f, "cloud price": rev_c,
        })
        self.cost = (None, local, rev_f, rev_c)
        self.du_f = (
            None,
            zero,
            tuple(map(sub, rev_f, self.e_f)),
            tuple(map(neg, e_s)),
        )
        self.du_c = (None, zero, zero, tuple(map(sub, rev_c, self.e_c)))
        _require_finite_totals(self)
        self.kept = {}


def _finishes(ctx, i, tiers, chosen):
    """Finish times of task i on local, fog and cloud, as `_core_eval`'s
    step gives them for each tier, from one scan of the predecessors.  The
    local ready time is the largest of the three per-tier maxima, which is
    the largest predecessor finish time exactly; the offloaded tiers make
    the step's additions in its order."""
    ml = 0.0
    mf = 0.0
    mc = 0.0
    for k in ctx.preds[i]:
        v = chosen[k]
        t = tiers[k]
        if t == _LOCAL:
            if v > ml:
                ml = v
        elif t == _FOG:
            if v > mf:
                mf = v
        elif v > mc:
            mc = v
    ready = ml
    if mf > ready:
        ready = mf
    if mc > ready:
        ready = mc
    fin_l = ctx.tau_l[i] + ready
    up = ctx.tau_t[i] + ml
    ready = up
    if mf > ready:
        ready = mf
    if mc > ready:
        ready = mc
    fin_f = ctx.tau_f[i] + ready
    fwd = ctx.tau_r[i] + mf
    ready = up + ctx.tau_r[i]
    if mc > ready:
        ready = mc
    if fwd > ready:
        ready = fwd
    return fin_l, fin_f, ctx.tau_c[i] + ready


class ScheduleResult:
    """Evaluation of one placement, as `_core_eval` returns it.

    It keeps what a resumed walk reads (0-indexed): each task's finish time
    at its assigned tier (`chosen`), each task's step at that tier
    (`steps`: ready time, uplink finish, forward finish, finish time; a
    transfer finish is 0 where the tier makes no such transfer) and `run`,
    where `run[d]` holds the running (sum of finish times, cost, fog
    utility, cloud utility) over the tasks at topological positions before
    d.  The constructor reads the four totals from `run[n]` into slots, so
    that reading one costs a slot lookup.  The tier codes given are kept,
    not copied; `tiers` reads them as a tuple.  The TaskSchedule rows are
    built from the steps on first read, one row per step; a result shared
    by several solves builds them once.  `==`, `hash` and `repr` are
    those of a frozen record of the rows and totals."""

    __slots__ = ("_ctx", "_tiers", "_chosen", "_steps", "_run", "_makespan", "_sum_finish",
                 "_total_cost", "_fog_utility", "_cloud_utility", "_tasks")

    def __init__(self, ctx: EvalContext, tiers, chosen, steps, run, makespan: float):
        self._ctx, self._tiers, self._chosen, self._steps, self._run, self._makespan = (
            ctx, tiers, chosen, steps, run, makespan)
        self._sum_finish, self._total_cost, self._fog_utility, self._cloud_utility = run[-1]
        self._tasks = None

    makespan = property(attrgetter("_makespan"))
    sum_finish = property(attrgetter("_sum_finish"))
    total_cost = property(attrgetter("_total_cost"))
    fog_utility = property(attrgetter("_fog_utility"))
    cloud_utility = property(attrgetter("_cloud_utility"))
    tiers = property(lambda self: tuple(self._tiers), doc="Each task's tier code, by id.")

    @property
    def tasks(self) -> tuple[TaskSchedule, ...]:
        if self._tasks is None:
            cost = self._ctx.cost
            self._tasks = tuple(
                TaskSchedule(i + 1, _TIERS[t], *step, cost[t][i])
                for i, (t, step) in enumerate(zip(self._tiers, self._steps))
            )
        return self._tasks

    def _fields(self) -> tuple:
        return (self.tasks, self._makespan, self._sum_finish, self._total_cost,
                self._fog_utility, self._cloud_utility)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (
            f"ScheduleResult(tasks={self.tasks!r}, makespan={self.makespan!r}, "
            f"sum_finish={self.sum_finish!r}, total_cost={self.total_cost!r}, "
            f"fog_utility={self.fog_utility!r}, cloud_utility={self.cloud_utility!r})"
        )


def _core_eval(
    ctx: EvalContext, tiers, prev: ScheduleResult | None = None, start: int = 0
) -> ScheduleResult:
    """Evaluate one placement given as a 0-indexed sequence of tier codes.

    Finish times, steps, cost and utilities are all made in one walk in
    `ctx.topo` order, so every sum adds its terms in topological order.  A
    task's step scans its predecessors once: a local task is ready at the
    largest predecessor finish time, an offloaded one reads the largest
    finish time per predecessor tier.  With `prev`, the evaluation of a
    placement whose tasks at topological positions before `start` sit on
    the same tiers as in `tiers`, the walk resumes at `start` from `prev`'s
    state there: it copies `prev`'s finish times, steps and running sums
    and overwrites those of the tasks it walks, making the same additions
    in the same order as a full walk, so the result is bit-identical to
    one.  `start == n` returns `prev` itself.
    """
    n = ctx.n
    if prev is None:
        start = 0
        chosen = [0.0] * n
        steps = [None] * n
        run = [(0.0, 0.0, 0.0, 0.0)] * (n + 1)
    elif start >= n:
        return prev
    else:
        chosen = prev._chosen.copy()
        steps = prev._steps.copy()
        run = prev._run.copy()
    preds = ctx.preds
    tau_l, tau_t, tau_f, tau_r, tau_c = ctx.tau_l, ctx.tau_t, ctx.tau_f, ctx.tau_r, ctx.tau_c
    cost_t, du_f, du_c = ctx.cost, ctx.du_f, ctx.du_c
    sum_finish, cost, u_f, u_c = run[start]
    d = start
    for i in ctx.topo[start:]:
        t = tiers[i]
        if t == _LOCAL:
            ready = 0.0
            for k in preds[i]:
                v = chosen[k]
                if v > ready:
                    ready = v
            fin = tau_l[i] + ready
            steps[i] = (ready, 0.0, 0.0, fin)
        else:
            ml = 0.0
            mf = 0.0
            mc = 0.0
            for k in preds[i]:
                v = chosen[k]
                p = tiers[k]
                if p == _LOCAL:
                    if v > ml:
                        ml = v
                elif p == _FOG:
                    if v > mf:
                        mf = v
                elif v > mc:
                    mc = v
            up = tau_t[i] + ml
            if t == _FOG:
                ready = up
                if mf > ready:
                    ready = mf
                if mc > ready:
                    ready = mc
                fin = tau_f[i] + ready
                steps[i] = (ready, up, 0.0, fin)
            else:
                fwd = tau_r[i] + mf
                ready = up + tau_r[i]
                if mc > ready:
                    ready = mc
                if fwd > ready:
                    ready = fwd
                fin = tau_c[i] + ready
                steps[i] = (ready, up, fwd, fin)
        chosen[i] = fin
        sum_finish += fin
        cost += cost_t[t][i]
        u_f += du_f[t][i]
        u_c += du_c[t][i]
        d += 1
        run[d] = (sum_finish, cost, u_f, u_c)
    makespan = 0.0
    for i in ctx.sinks:
        if chosen[i] > makespan:
            makespan = chosen[i]
    return ScheduleResult(ctx, tiers, chosen, steps, run, makespan)


def eval_context(graph: TaskGraph, platform: Platform) -> EvalContext:
    """The EvalContext of `graph` on `platform`, built on first use and kept
    on the graph, which is immutable, next to its structure.  The graph
    keeps one context: an equal platform reuses it, another replaces it."""
    kept = graph.__dict__.get("_eval_context")
    if kept is not None and (kept[0] is platform or kept[0] == platform):
        return kept[1]
    ctx = EvalContext(graph, platform)
    graph.__dict__["_eval_context"] = (platform, ctx)
    return ctx


def evaluate(graph: TaskGraph, placement: Placement, platform: Platform) -> ScheduleResult:
    """Compute the full schedule of `placement` on `platform`.

    Both makespan and the sum of finish times are always reported.
    """
    validate_placement(placement, graph)
    tiers = [int(placement.assignment[t.id]) for t in graph.tasks]
    return _core_eval(eval_context(graph, platform), tiers)


def check_feasibility(result: ScheduleResult, scenario: Scenario) -> FeasibilityReport:
    """Verify the seven constraints on an evaluated schedule.

    C1-C3 re-check each ready time against the precedence terms that define
    it, at the task's assigned tier (a predecessor's finish time bounds a
    fog task's ready time only when the predecessor ran on the fog or the
    cloud, and a cloud task's only when it ran on the cloud).  The
    ready and transfer times are the steps that the walk recorded as it
    made the finish times, so C1-C3 hold by construction for an evaluator's
    result.  C4 checks both utilities, C5/C6 hold by construction, C7
    compares total cost to the budget.  All comparisons use absolute
    tolerance TIME_TOL.  The checks read the result's steps, finish
    times and context, not its rows; of the scenario only the budget is
    read.  The report keeps only the violations, from which each
    constraint's verdict follows.
    """
    ctx = result._ctx
    tiers, steps, chosen = result._tiers, result._steps, result._chosen
    violations: list[tuple[str, int, str]] = []
    for i, ps in enumerate(ctx.preds):
        tier = tiers[i]
        r, tx, fwd, _ = steps[i]
        if tier == _LOCAL:
            for k in ps:
                if r < chosen[k] - TIME_TOL:
                    violations.append(("C1", i + 1, f"ready_local {r} < finish of task {k + 1}"))
        elif tier == _FOG:
            if r < tx - TIME_TOL:
                violations.append(("C2", i + 1, "ready_fog precedes upload completion"))
            for k in ps:
                # predecessor k's finish time on the fog and on the cloud
                on = tiers[k]
                if r < (chosen[k] if on == _FOG else 0.0) - TIME_TOL:
                    violations.append(
                        ("C2", i + 1, f"ready_fog precedes fog finish of task {k + 1}")
                    )
                if r < (chosen[k] if on == _CLOUD else 0.0) - TIME_TOL:
                    violations.append(
                        ("C2", i + 1, f"ready_fog precedes cloud finish of task {k + 1}")
                    )
        else:
            if r < tx + ctx.tau_r[i] - TIME_TOL:
                violations.append(("C3", i + 1, "ready_cloud precedes upload + forward"))
            if r < fwd - TIME_TOL:
                violations.append(("C3", i + 1, "ready_cloud precedes forward completion"))
            for k in ps:
                if r < (chosen[k] if tiers[k] == _CLOUD else 0.0) - TIME_TOL:
                    violations.append(
                        ("C3", i + 1, f"ready_cloud precedes cloud finish of task {k + 1}")
                    )

    if result.fog_utility < -TIME_TOL:
        violations.append(("C4", 0, f"fog utility {result.fog_utility} < 0"))
    if result.cloud_utility < -TIME_TOL:
        violations.append(("C4", 0, f"cloud utility {result.cloud_utility} < 0"))
    if result.total_cost > scenario.budget + TIME_TOL:
        violations.append(
            ("C7", 0, f"total cost {result.total_cost} exceeds budget {scenario.budget}")
        )
    return FeasibilityReport(tuple(violations))
