"""Scenario file reading and writing.

A scenario file is a YAML document (conventionally `.scn`) with the sections
`graph`, `platform`, `budget`, `seed` and `solver`.  Tasks, the platform with
its fog, cloud and radio specs are read and written from the fields of their
dataclasses, so the file keys are the field names.  The `solver` section
holds only the solver's `kind`: no solver has settings.  Unknown keys are
rejected so typos fail loudly.

The reader coerces numeric fields with float()/int() after YAML parsing, so
plain exponent notation like `1e-11` is accepted even where YAML would read
it as a string.  The writer walks the same fields into a document for
PyYAML's safe dumper, so it emits typed YAML: every number it writes reads
back as a YAML int or float, floats in repr form (`1.0e-11`, `.inf`).
"""
from __future__ import annotations

import dataclasses
import functools
import typing
from contextlib import contextmanager
from pathlib import Path
from typing import Union

import yaml

from .model import (
    SOLVER_KINDS,
    GreedyConfig,
    Platform,
    Scenario,
    SolverConfig,
    TaskGraph,
    TaskSpec,
    solver_kind,
    validate_graph,
)


class ParseError(ValueError):
    """The scenario file is malformed."""


@functools.lru_cache(maxsize=None)
def _fields(cls) -> tuple[tuple[dataclasses.Field, type], ...]:
    """(field, resolved type) for each field of dataclass `cls`."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls))


def _as_map(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ParseError(f"{where}: expected a mapping")
    return node


def _as_list(node, where: str) -> list:
    """A YAML sequence as a list; null reads as the empty list."""
    if node is None:
        return []
    if not isinstance(node, list):
        raise ParseError(f"{where}: expected a list, got {node!r}")
    return node


def _check_keys(node: dict, allowed, where: str) -> None:
    unknown = sorted(set(node) - set(allowed), key=str)
    if unknown:
        raise ParseError(f"{where}: unknown keys {unknown}")


def _get(node: dict, key: str, where: str):
    if key not in node:
        raise ParseError(f"{where}: missing required key '{key}'")
    return node[key]


def _as_float(value, where: str) -> float:
    # float() and int() take booleans as 1 and 0; a YAML `true` is no number
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: expected a number, got {value!r}") from None


def _as_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{where}: expected an integer, got {value!r}") from None
    if isinstance(value, float) and value != out:
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return out


@contextmanager
def _reraise(prefix: str):
    """Report a domain type's ValueError as a ParseError."""
    try:
        yield
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"{prefix}{exc}") from exc


def _build(cls, node, where: str):
    """Build dataclass `cls` from a mapping keyed by its field names.  Fields
    without a default are required, a null counts as absent where the default
    is None (an Optional field), and nested dataclass fields recurse."""
    node = _as_map(node, where)
    fields = _fields(cls)
    _check_keys(node, [f.name for f, _ in fields], where)
    kwargs = {}
    for f, kind in fields:
        key = f.name
        value = node.get(key)
        if value is None and (key not in node or f.default is None):
            if f.default is dataclasses.MISSING:
                raise ParseError(f"{where}: missing required key '{key}'")
            continue
        at = f"{where}.{key}"
        if dataclasses.is_dataclass(kind):
            kwargs[f.name] = _build(kind, value, at)
        else:
            kwargs[f.name] = (_as_int if kind is int else _as_float)(value, at)
    return cls(**kwargs)


def _parse_graph(node) -> TaskGraph:
    node = _as_map(node, "graph")
    _check_keys(node, ("tasks", "edges"), "graph")
    with _reraise("graph: "):
        tasks = [
            _build(TaskSpec, entry, "graph.tasks[]")
            for entry in _as_list(_get(node, "tasks", "graph"), "graph.tasks")
        ]
        edges = []
        for pair in _as_list(node.get("edges"), "graph.edges"):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ParseError(f"graph.edges: expected [pred, succ] pairs, got {pair!r}")
            edges.append((_as_int(pair[0], "edge pred"), _as_int(pair[1], "edge succ")))
        return TaskGraph(tasks, edges)


def _parse_solver(node) -> SolverConfig:
    if node is None:
        return GreedyConfig()
    node = _as_map(node, "solver")
    kind = node.get("kind", "greedy")
    if not isinstance(kind, str) or kind not in SOLVER_KINDS:
        kinds = tuple(SOLVER_KINDS)
        raise ParseError(f"solver.kind must be one of {kinds}, got {kind!r}")
    _check_keys(node, ("kind",), "solver")
    return SOLVER_KINDS[kind]()


# libyaml's safe loader and emitter when PyYAML was built with them: the same
# documents and text, parsed about seven and written about three times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _document(text: str) -> dict:
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ParseError(f"not valid YAML: {exc}") from exc
    return _as_map(doc, "scenario")


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document.  Validates the graph (including acyclicity)."""
    doc = _document(text)
    _check_keys(doc, ("graph", "platform", "budget", "seed", "solver"), "scenario")
    graph = _parse_graph(_get(doc, "graph", "scenario"))
    validate_graph(graph)
    with _reraise("platform: "):
        platform = _build(Platform, _get(doc, "platform", "scenario"), "platform")
    with _reraise(""):
        return Scenario(
            graph=graph,
            platform=platform,
            budget=_as_float(doc.get("budget", float("inf")), "budget"),
            seed=_as_int(doc.get("seed", 0), "seed"),
            solver_config=_parse_solver(doc.get("solver")),
        )


def load_scenario(path: Union[str, Path]) -> Scenario:
    return parse_scenario(Path(path).read_text(encoding="utf-8"))


def _doc(obj) -> dict:
    """`obj` as a mapping keyed by its field names, in field order: the
    inverse of `_build`.  Nested dataclasses nest; int fields are written as
    int and every other field as float."""
    doc = {}
    for f, kind in _fields(type(obj)):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(kind):
            doc[f.name] = _doc(value)
        else:
            doc[f.name] = int(value) if kind is int else float(value)
    return doc


def render_scenario(scenario: Scenario) -> str:
    """Serialize a scenario to scenario-file text.

    PyYAML writes floats with repr (`1.0e-11`, `.inf`), so a load/save/load
    cycle is bit-exact and every number reads back as a typed YAML number.
    """
    doc = {
        "graph": {
            "tasks": [_doc(t) for t in scenario.graph.tasks],
            "edges": scenario.graph.edges,
        },
        "platform": _doc(scenario.platform),
        "budget": float(scenario.budget),
        "seed": scenario.seed,
        "solver": {"kind": solver_kind(scenario.solver_config)},
    }
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False, default_flow_style=None)


def save_scenario(scenario: Scenario, path: Union[str, Path]) -> Path:
    """Write `render_scenario(scenario)` to `path` and return the path."""
    path = Path(path)
    path.write_text(render_scenario(scenario), encoding="utf-8")
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
