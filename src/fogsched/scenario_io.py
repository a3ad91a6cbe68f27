"""Scenario file reading and writing.

A scenario file is a YAML document (conventionally `.scn`) with the sections
`graph`, `platform`, `budget`, `objective_mode`, `seed` and `solver`, plus an
optional `placement` section pinning a tier per task.  Field names match the
domain types exactly.  Unknown keys are rejected so typos fail loudly.

Numeric fields are coerced with float()/int() after YAML parsing, so plain
exponent notation like `1e-11` is accepted even where YAML would read it as a
string.
"""
from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import yaml

from .model import (
    BruteForceConfig,
    CloudSpec,
    FogSpec,
    GreedyConfig,
    ObjectiveMode,
    Placement,
    Platform,
    RadioLink,
    SAConfig,
    Scenario,
    SolverConfig,
    TaskGraph,
    TaskSpec,
    Tier,
    validate_graph,
    validate_placement,
)


class ParseError(ValueError):
    """The scenario file is malformed."""


_TIER_BY_NAME = {"local": Tier.LOCAL, "fog": Tier.FOG, "cloud": Tier.CLOUD}
_NAME_BY_TIER = {v: k for k, v in _TIER_BY_NAME.items()}

_SOLVER_KINDS = ("greedy", "sa", "brute")


def _as_map(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ParseError(f"{where}: expected a mapping")
    return node


def _check_keys(node: dict, allowed, where: str) -> None:
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ParseError(f"{where}: unknown keys {unknown}")


def _get(node: dict, key: str, where: str):
    if key not in node:
        raise ParseError(f"{where}: missing required key '{key}'")
    return node[key]


def _as_float(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: expected a number, got {value!r}") from None


def _as_int(value, where: str) -> int:
    try:
        out = int(value)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: expected an integer, got {value!r}") from None
    if isinstance(value, float) and value != out:
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return out


def _parse_graph(node) -> TaskGraph:
    node = _as_map(node, "graph")
    _check_keys(node, ("tasks", "edges"), "graph")
    tasks = []
    for entry in _get(node, "tasks", "graph") or []:
        entry = _as_map(entry, "graph.tasks[]")
        _check_keys(entry, ("id", "workload", "data_size"), "graph.tasks[]")
        task_id = _as_int(_get(entry, "id", "graph.tasks[]"), "task id")
        workload = _as_float(_get(entry, "workload", "graph.tasks[]"), "workload")
        data_size = _as_float(_get(entry, "data_size", "graph.tasks[]"), "data_size")
        try:
            tasks.append(TaskSpec(id=task_id, workload=workload, data_size=data_size))
        except ValueError as exc:
            raise ParseError(f"graph: {exc}") from exc
    edges = []
    for pair in node.get("edges") or []:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"graph.edges: expected [pred, succ] pairs, got {pair!r}")
        edges.append((_as_int(pair[0], "edge pred"), _as_int(pair[1], "edge succ")))
    try:
        return TaskGraph(tasks, edges)
    except ValueError as exc:
        raise ParseError(f"graph: {exc}") from exc


def _parse_platform(node) -> Platform:
    node = _as_map(node, "platform")
    _check_keys(
        node,
        (
            "device_cpu",
            "kappa",
            "fog",
            "cloud",
            "fog_cloud_bandwidth",
            "fog_forward_power",
            "radio",
        ),
        "platform",
    )
    fog = _as_map(_get(node, "fog", "platform"), "platform.fog")
    _check_keys(fog, ("cpu", "alpha", "beta", "epsilon", "price"), "platform.fog")
    cloud = _as_map(_get(node, "cloud", "platform"), "platform.cloud")
    _check_keys(cloud, ("cpu", "alpha", "beta", "epsilon", "price"), "platform.cloud")
    radio = _as_map(_get(node, "radio", "platform"), "platform.radio")
    _check_keys(
        radio,
        (
            "bandwidth",
            "tx_power",
            "tx_power_max",
            "channel_gain",
            "noise",
            "interference",
        ),
        "platform.radio",
    )
    try:
        return Platform(
            device_cpu=_as_float(_get(node, "device_cpu", "platform"), "device_cpu"),
            kappa=_as_float(_get(node, "kappa", "platform"), "kappa"),
            fog=FogSpec(
                cpu=_as_float(_get(fog, "cpu", "platform.fog"), "fog.cpu"),
                alpha=_as_float(_get(fog, "alpha", "platform.fog"), "fog.alpha"),
                beta=_as_float(_get(fog, "beta", "platform.fog"), "fog.beta"),
                epsilon=_as_float(fog.get("epsilon", 3.0), "fog.epsilon"),
                price=_as_float(fog.get("price", 0.0), "fog.price"),
            ),
            cloud=CloudSpec(
                cpu=_as_float(_get(cloud, "cpu", "platform.cloud"), "cloud.cpu"),
                alpha=_as_float(_get(cloud, "alpha", "platform.cloud"), "cloud.alpha"),
                beta=_as_float(_get(cloud, "beta", "platform.cloud"), "cloud.beta"),
                epsilon=_as_float(cloud.get("epsilon", 3.0), "cloud.epsilon"),
                price=_as_float(cloud.get("price", 0.0), "cloud.price"),
            ),
            fog_cloud_bandwidth=_as_float(
                _get(node, "fog_cloud_bandwidth", "platform"), "fog_cloud_bandwidth"
            ),
            fog_forward_power=_as_float(
                _get(node, "fog_forward_power", "platform"), "fog_forward_power"
            ),
            radio=RadioLink(
                bandwidth=_as_float(_get(radio, "bandwidth", "platform.radio"), "bandwidth"),
                tx_power_max=_as_float(
                    _get(radio, "tx_power_max", "platform.radio"), "tx_power_max"
                ),
                channel_gain=_as_float(radio.get("channel_gain", 1.0), "channel_gain"),
                noise=_as_float(radio.get("noise", 1.0), "noise"),
                interference=_as_float(radio.get("interference", 0.0), "interference"),
                tx_power=(
                    _as_float(radio["tx_power"], "tx_power")
                    if radio.get("tx_power") is not None
                    else None
                ),
            ),
        )
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"platform: {exc}") from exc


def _parse_solver(node) -> SolverConfig:
    if node is None:
        return GreedyConfig()
    node = _as_map(node, "solver")
    _check_keys(
        node,
        ("kind", "t0", "cool", "t_stop", "neighbor_range", "max_restarts", "brute_cap"),
        "solver",
    )
    kind = node.get("kind", "greedy")
    if kind not in _SOLVER_KINDS:
        raise ParseError(f"solver.kind must be one of {_SOLVER_KINDS}, got {kind!r}")
    try:
        if kind == "sa":
            defaults = SAConfig()
            return SAConfig(
                t0=_as_float(node.get("t0", defaults.t0), "solver.t0"),
                cool=_as_float(node.get("cool", defaults.cool), "solver.cool"),
                t_stop=_as_float(node.get("t_stop", defaults.t_stop), "solver.t_stop"),
                neighbor_range=_as_int(
                    node.get("neighbor_range", defaults.neighbor_range),
                    "solver.neighbor_range",
                ),
                max_restarts=_as_int(
                    node.get("max_restarts", defaults.max_restarts),
                    "solver.max_restarts",
                ),
            )
        if kind == "brute":
            return BruteForceConfig(
                cap=_as_int(node.get("brute_cap", BruteForceConfig().cap), "solver.brute_cap")
            )
        return GreedyConfig()
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"solver: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document.  Validates the graph (including acyclicity)."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"not valid YAML: {exc}") from exc
    doc = _as_map(doc, "scenario")
    _check_keys(
        doc,
        ("graph", "platform", "budget", "objective_mode", "seed", "solver", "placement"),
        "scenario",
    )
    graph = _parse_graph(_get(doc, "graph", "scenario"))
    validate_graph(graph)
    platform = _parse_platform(_get(doc, "platform", "scenario"))
    mode_raw = doc.get("objective_mode", "makespan")
    try:
        mode = ObjectiveMode(mode_raw)
    except ValueError:
        raise ParseError(
            f"objective_mode must be 'makespan' or 'sum_finish', got {mode_raw!r}"
        ) from None
    try:
        return Scenario(
            graph=graph,
            platform=platform,
            budget=_as_float(doc.get("budget", float("inf")), "budget"),
            objective_mode=mode,
            seed=_as_int(doc.get("seed", 0), "seed"),
            solver_config=_parse_solver(doc.get("solver")),
        )
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(str(exc)) from exc


def parse_placement(text: str, graph: TaskGraph) -> Optional[Placement]:
    """Extract the optional placement section; None when absent."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"not valid YAML: {exc}") from exc
    doc = _as_map(doc, "scenario")
    node = doc.get("placement")
    if node is None:
        return None
    node = _as_map(node, "placement")
    assignment = {}
    for key, value in node.items():
        tier = _TIER_BY_NAME.get(str(value).lower())
        if tier is None:
            raise ParseError(f"placement[{key}]: unknown tier {value!r}")
        assignment[_as_int(key, "placement key")] = tier
    placement = Placement(assignment)
    validate_placement(placement, graph)
    return placement


def load_scenario(path: Union[str, Path]) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def load_placement(path: Union[str, Path], graph: TaskGraph) -> Optional[Placement]:
    return parse_placement(Path(path).read_text(encoding="utf-8"), graph)


def _fmt(x: float) -> str:
    if x == float("inf"):
        return ".inf"
    return repr(float(x))


def render_scenario(scenario: Scenario, placement: Optional[Placement] = None) -> str:
    """Serialize a scenario (and optional placement) to scenario-file text.

    Floats are written with repr, so a load/save/load cycle is bit-exact.
    """
    g = scenario.graph
    p = scenario.platform
    lines = ["graph:", "  tasks:"]
    for t in g.tasks:
        lines.append(
            f"    - {{id: {t.id}, workload: {_fmt(t.workload)}, "
            f"data_size: {_fmt(t.data_size)}}}"
        )
    if g.edges:
        lines.append("  edges:")
        for a, b in g.edges:
            lines.append(f"    - [{a}, {b}]")
    else:
        lines.append("  edges: []")
    lines += [
        "platform:",
        f"  device_cpu: {_fmt(p.device_cpu)}",
        f"  kappa: {_fmt(p.kappa)}",
        f"  fog: {{cpu: {_fmt(p.fog.cpu)}, alpha: {_fmt(p.fog.alpha)}, "
        f"beta: {_fmt(p.fog.beta)}, epsilon: {_fmt(p.fog.epsilon)}, "
        f"price: {_fmt(p.fog.price)}}}",
        f"  cloud: {{cpu: {_fmt(p.cloud.cpu)}, alpha: {_fmt(p.cloud.alpha)}, "
        f"beta: {_fmt(p.cloud.beta)}, epsilon: {_fmt(p.cloud.epsilon)}, "
        f"price: {_fmt(p.cloud.price)}}}",
        f"  fog_cloud_bandwidth: {_fmt(p.fog_cloud_bandwidth)}",
        f"  fog_forward_power: {_fmt(p.fog_forward_power)}",
        "  radio:",
        f"    bandwidth: {_fmt(p.radio.bandwidth)}",
        f"    tx_power: {_fmt(p.radio.tx_power)}",
        f"    tx_power_max: {_fmt(p.radio.tx_power_max)}",
        f"    channel_gain: {_fmt(p.radio.channel_gain)}",
        f"    noise: {_fmt(p.radio.noise)}",
        f"    interference: {_fmt(p.radio.interference)}",
        f"budget: {_fmt(scenario.budget)}",
        f"objective_mode: {scenario.objective_mode.value}",
        f"seed: {scenario.seed}",
    ]
    cfg = scenario.solver_config
    if isinstance(cfg, SAConfig):
        lines.append(
            f"solver: {{kind: sa, t0: {_fmt(cfg.t0)}, cool: {_fmt(cfg.cool)}, "
            f"t_stop: {_fmt(cfg.t_stop)}, neighbor_range: {cfg.neighbor_range}, "
            f"max_restarts: {cfg.max_restarts}}}"
        )
    elif isinstance(cfg, BruteForceConfig):
        lines.append(f"solver: {{kind: brute, brute_cap: {cfg.cap}}}")
    else:
        lines.append("solver: {kind: greedy}")
    if placement is not None:
        lines.append("placement:")
        for task_id in sorted(placement.assignment):
            lines.append(f"  {task_id}: {_NAME_BY_TIER[placement.assignment[task_id]]}")
    return "\n".join(lines) + "\n"


def save_scenario(
    scenario: Scenario, path: Union[str, Path], placement: Optional[Placement] = None
) -> Path:
    path = Path(path)
    path.write_text(render_scenario(scenario, placement), encoding="utf-8")
    return path


def bundled_scenario(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'defaults.scn')."""
    from importlib.resources import files

    p = Path(str(files("fogsched").joinpath("scenarios", name)))
    if not p.exists():
        raise FileNotFoundError(f"no bundled scenario named {name!r}")
    return p


def resolve_scenario_path(spec: Union[str, Path]) -> Path:
    """Resolve a CLI scenario argument: a real path, or a bundled file name."""
    p = Path(spec)
    if p.exists():
        return p
    try:
        return bundled_scenario(str(spec))
    except FileNotFoundError:
        raise ParseError(f"scenario file not found: {spec}") from None
