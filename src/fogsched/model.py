"""Domain types for device/fog/cloud offloading of DAG-structured applications.

Every task of an application carries a workload (CPU cycles) and an input data
size (bits); a placement assigns each task to exactly one execution tier.  All
physical quantities are dimensionless model units, no SI calibration is
implied.  Types are immutable after construction and safe to share across
parallel workers.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from enum import IntEnum
from functools import cached_property
from heapq import heappop, heappush
from numbers import Real
from operator import attrgetter, index
from typing import Mapping, NamedTuple, Optional, Union


class Tier(IntEnum):
    """Execution tier of a task. Codes match the {1,2,3} policy encoding."""

    LOCAL = 1
    FOG = 2
    CLOUD = 3


# Tier member by tier code
_TIERS = (None, Tier.LOCAL, Tier.FOG, Tier.CLOUD)


class GraphError(ValueError):
    """Structural problem in a task graph."""


class CycleDetected(GraphError):
    """The task graph contains a directed cycle."""


class DanglingEdge(GraphError):
    """An edge references a task id that does not exist."""


class PlacementError(ValueError):
    """A placement does not cover the task graph correctly."""


class MissingTask(PlacementError):
    """A task of the graph has no tier assigned."""


class UnknownTask(PlacementError):
    """The placement mentions a task id not present in the graph."""


def _require_finite(where: str, obj, names=None, positive=(), nonneg=()) -> None:
    """Reject NaN and +-inf fields (by default every numeric field), then
    each `positive` field that is not > 0 and each `nonneg` field below 0.
    NaN passes every range check (each comparison with it is False) and an
    infinity breaks the cost model, so either would silently switch a
    constraint off.  A bool is a Real that would pass as 0 or 1, so it is
    refused, as _require_int refuses it."""
    for name in names or [f.name for f in fields(obj)]:
        value = getattr(obj, name)
        if isinstance(value, bool):
            raise TypeError(f"{where}{name} must be a number, got {value!r}")
        if isinstance(value, Real) and not math.isfinite(value):
            raise ValueError(f"{where}{name} must be finite, got {value!r}")
    for name in positive:
        if getattr(obj, name) <= 0:
            raise ValueError(f"{where}{name} must be > 0")
    for name in nonneg:
        if getattr(obj, name) < 0:
            raise ValueError(f"{where}{name} must be >= 0")


def _to_int(name: str, value, minimum=None) -> int:
    """`value` as an int, refused below `minimum` if one is given.
    operator.index takes ints and numpy integers (whose types define
    __index__) and refuses what int() would truncate or parse (1.5, '2'); a
    bool is an int to it, so it is refused first."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = index(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


def _require_int(obj, names, minimum=None) -> None:
    """Store each named field as an int, as _to_int takes it."""
    for name in names:
        object.__setattr__(obj, name, _to_int(name, getattr(obj, name), minimum))


@dataclass(frozen=True)
class TaskSpec:
    """One sub-task: workload in CPU cycles, input data size in bits."""

    id: int
    workload: float
    data_size: float

    def __post_init__(self):
        _require_int(self, ("id",))
        _require_finite(f"task {self.id}: ", self, nonneg=("workload", "data_size"))


class GraphStructure(NamedTuple):
    """The precedence structure of a valid task graph, 0-indexed: index i is
    task id i+1.

    `topo` lists the task indices in topological order (smallest ready id
    first) and `pos[i]` is task i's position in it; `preds[i]` holds task
    i's predecessor indices, ascending; `sinks` holds the indices of the
    tasks without successors, ascending.
    """

    topo: tuple[int, ...]
    pos: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    sinks: tuple[int, ...]


@dataclass(frozen=True)
class TaskGraph:
    """Application DAG. Task ids are 1..N; edges are (pred_id, succ_id) pairs.

    The tasks are kept sorted by id, so `tasks[i]` is task id i+1 whatever
    order they were given in.  Construction checks ids only; acyclicity and
    edge endpoints are verified by :func:`validate_graph`, which scenario
    loading always calls.
    """

    tasks: tuple[TaskSpec, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, tasks, edges=()):
        object.__setattr__(self, "tasks", tuple(sorted(tasks, key=attrgetter("id"))))
        object.__setattr__(
            self,
            "edges",
            tuple(sorted({(_to_int("edge endpoint", a), _to_int("edge endpoint", b))
                          for a, b in edges})),
        )
        if [t.id for t in self.tasks] != list(range(1, len(self.tasks) + 1)):
            raise GraphError("task ids must be exactly 1..N and unique")

    def __len__(self) -> int:
        return len(self.tasks)

    @cached_property
    def structure(self) -> GraphStructure:
        """The graph's :class:`GraphStructure`, derived on first use and kept
        on the graph, which is immutable.

        Raises :class:`DanglingEdge` if an edge names an unknown task and
        :class:`CycleDetected` if no topological order exists; nothing is
        kept then, so every later use raises again.
        """
        n = len(self.tasks)
        indeg = [0] * n
        succs: list[list[int]] = [[] for _ in range(n)]
        preds: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.edges:
            if not (1 <= a <= n and 1 <= b <= n):
                raise DanglingEdge(f"edge ({a}, {b}) references an unknown task")
            indeg[b - 1] += 1
            succs[a - 1].append(b - 1)
            preds[b - 1].append(a - 1)
        # ascending, so already a heap
        ready = [i for i in range(n) if indeg[i] == 0]
        topo: list[int] = []
        while ready:
            i = heappop(ready)
            topo.append(i)
            for j in succs[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heappush(ready, j)
        if len(topo) != n:
            stuck = [i + 1 for i in range(n) if indeg[i] > 0]
            raise CycleDetected(f"graph has a directed cycle through tasks {stuck}")
        pos = [0] * n
        for d, i in enumerate(topo):
            pos[i] = d
        return GraphStructure(
            tuple(topo),
            tuple(pos),
            tuple(map(tuple, preds)),
            tuple(i for i in range(n) if not succs[i]),
        )


def validate_graph(graph: TaskGraph) -> list[int]:
    """Return a topological order of the task ids, as a new list.

    The order is deterministic (smallest ready id first).  Raises
    :class:`DanglingEdge` if an edge names an unknown task and
    :class:`CycleDetected` if no topological order exists.
    """
    return [i + 1 for i in graph.structure.topo]


@dataclass(frozen=True)
class ServerSpec:
    """Fog node or cloud server: CPU speed, power model
    (alpha*cpu^epsilon + beta), per-bit price.  `label` names the tier in
    error and warning messages."""

    cpu: float
    alpha: float
    beta: float
    epsilon: float = 3.0
    price: float = 0.0

    label = "server"

    def __post_init__(self):
        # negative coefficients give negative energies, inflating the utility
        _require_finite(f"{self.label} ", self, positive=("cpu",),
                        nonneg=("alpha", "beta", "price"))
        if not 2.5 <= self.epsilon <= 3.0:
            warnings.warn(
                f"{self.label} power exponent {self.epsilon} outside the usual "
                "[2.5, 3] range",
                stacklevel=2,
            )


class FogSpec(ServerSpec):
    label = "fog"


class CloudSpec(ServerSpec):
    label = "cloud"


@dataclass(frozen=True)
class RadioLink:
    """Device-to-fog radio uplink.

    `interference` is the received interference power from concurrent
    transmitters, a configured scalar (default 0): the solvers never schedule
    concurrent transmissions, so it is an input rather than a derived value.
    `tx_power` defaults to `tx_power_max`; transmitting at maximum power is
    delay-optimal: a higher power only shortens the upload.
    """

    bandwidth: float
    tx_power_max: float
    channel_gain: float = 1.0
    noise: float = 1.0
    interference: float = 0.0
    tx_power: Optional[float] = None

    def __post_init__(self):
        if self.tx_power is None:
            object.__setattr__(self, "tx_power", self.tx_power_max)
        _require_finite("link ", self, positive=("bandwidth", "channel_gain", "noise"),
                        nonneg=("interference",))
        if not 0 < self.tx_power <= self.tx_power_max:
            raise ValueError("tx_power must satisfy 0 < tx_power <= tx_power_max")


@dataclass(frozen=True)
class Platform:
    """Device, fog and cloud resources plus the two transport links."""

    device_cpu: float
    kappa: float
    fog: FogSpec
    cloud: CloudSpec
    fog_cloud_bandwidth: float
    fog_forward_power: float
    radio: RadioLink

    def __post_init__(self):
        _require_finite("", self, positive=("device_cpu", "fog_cloud_bandwidth"),
                        nonneg=("kappa", "fog_forward_power"))


@dataclass(frozen=True)
class Placement:
    """Per-task assignment to exactly one tier (maps task id -> Tier)."""

    assignment: Mapping[int, Tier]

    def __post_init__(self):
        # operator.index takes ints, IntEnum members and numpy integers, and
        # refuses what int() would truncate or parse (1.7, '1'); a bool is
        # an int to it, so it is refused first
        assignment = {}
        for k, v in dict(self.assignment).items():
            if type(k) is bool:
                raise TypeError(f"placement key {k!r} is a bool, not a task id")
            if type(v) is bool:
                raise TypeError(f"tier of task {k!r} is a bool, not a tier code")
            code = index(v)
            if not 1 <= code <= 3:
                raise ValueError(f"tier of task {k!r}: {v!r} is not a valid Tier")
            assignment[index(k)] = _TIERS[code]
        object.__setattr__(self, "assignment", assignment)


def validate_placement(placement: Placement, graph: TaskGraph) -> None:
    """Check that the placement covers every task of the graph exactly.

    Raises :class:`MissingTask` or :class:`UnknownTask`.
    """
    graph_ids = {t.id for t in graph.tasks}
    placed_ids = set(placement.assignment)
    missing = sorted(graph_ids - placed_ids)
    if missing:
        raise MissingTask(f"no tier assigned for tasks {missing}")
    unknown = sorted(placed_ids - graph_ids)
    if unknown:
        raise UnknownTask(f"placement names unknown tasks {unknown}")


@dataclass(frozen=True)
class GreedyConfig:
    """The greedy solver has no tunables."""


@dataclass(frozen=True)
class SAConfig:
    """Simulated annealing has no tunables: its schedule is fixed.

    One annealing run cools `t0 -> t_stop` by the multiplicative factor
    `cool`, 342 proposals; each move perturbs one task's tier code by a
    uniform integer in [-neighbor_range, neighbor_range] clamped to [1, 3].
    Runs whose final placement violates the budget restart from a fresh
    random placement, at most `max_restarts` times.  The values are class
    constants (Kirkpatrick et al., Science 1983), readable on an instance.
    """

    t0 = 100.0
    cool = 0.98
    t_stop = 0.1
    neighbor_range = 3
    max_restarts = 50


@dataclass(frozen=True)
class BruteForceConfig:
    """Exhaustive enumeration has no tunables."""


SolverConfig = Union[GreedyConfig, SAConfig, BruteForceConfig]

# solver kind, as named in scenario files and on the command line -> config
SOLVER_KINDS = {"greedy": GreedyConfig, "sa": SAConfig, "brute": BruteForceConfig}


def solver_kind(config: SolverConfig) -> str:
    """The kind name of a solver configuration."""
    return next(k for k, cls in SOLVER_KINDS.items() if isinstance(config, cls))


@dataclass(frozen=True)
class Scenario:
    """One experiment: graph + platform + budget + seed + solver.  Every
    solver minimizes the makespan, the latest finish time of a sink task."""

    graph: TaskGraph
    platform: Platform
    budget: float = math.inf
    seed: int = 0
    solver_config: SolverConfig = field(default_factory=GreedyConfig)

    def __post_init__(self):
        # budget = inf disables C7; NaN would do so silently, and a bool
        # would pass as 0 or 1
        if isinstance(self.budget, bool):
            raise TypeError(f"budget must be a number, got {self.budget!r}")
        if math.isnan(self.budget):
            raise ValueError("budget must be a number, got nan")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        _require_int(self, ("seed",))
        # the seed is the entropy of the solvers' random streams
        # (fogsched._rng), which take no negative entropy
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
