"""Deterministic device/fog/cloud offloading of DAG-structured applications.

Core pieces: a closed-form timing/energy cost model (`costs`), a placement
evaluator with precedence recursions and constraint checks (`schedule`),
three placement solvers (`solvers`), scenario file I/O (`scenario_io`) and a
sweep-running experiment harness (`bench`, CLI in `cli`).
"""
from .costs import (
    energy_coefficient,
    fog_cloud_energy,
    fog_cloud_time,
    local_energy,
    local_exec_time,
    server_exec_time,
    uplink_rate,
)
from .model import (
    BruteForceConfig,
    CloudSpec,
    CycleDetected,
    DanglingEdge,
    FogSpec,
    GraphError,
    GreedyConfig,
    MissingTask,
    Placement,
    PlacementError,
    Platform,
    RadioLink,
    SAConfig,
    Scenario,
    ServerSpec,
    TaskGraph,
    TaskSpec,
    Tier,
    UnknownTask,
    validate_graph,
    validate_placement,
)
from .scenario_io import (
    ParseError,
    bundled_scenario,
    load_scenario,
    parse_scenario,
    render_scenario,
    save_scenario,
)
from .schedule import (
    TIME_TOL,
    DerivedValueError,
    FeasibilityReport,
    ScheduleResult,
    TaskSchedule,
    check_feasibility,
    evaluate,
)
from .solvers import (
    Infeasible,
    RestartsExhausted,
    SolveOutcome,
    SolverError,
    TooLarge,
    brute_force_solve,
    greedy_solve,
    metropolis_accept,
    sa_solve,
    solve,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
