"""Domain types: graph/placement validation and scenario file round-trips."""
import math
import pickle
import re
from collections import Counter
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
import yaml

from fogsched import bench, cli, scenario_io
from fogsched import (
    BruteForceConfig,
    CycleDetected,
    DanglingEdge,
    GraphError,
    GreedyConfig,
    MissingTask,
    ParseError,
    Placement,
    SAConfig,
    Scenario,
    TaskGraph,
    TaskSpec,
    Tier,
    UnknownTask,
    evaluate,
    greedy_solve,
    load_scenario,
    parse_scenario,
    render_scenario,
    save_scenario,
    validate_graph,
    validate_placement,
)
from fogsched.model import solver_kind
from fogsched.scenario_io import bundled_scenario
from fogsched.schedule import EvalContext
import gen
import oracles


def _tasks(n):
    return [TaskSpec(id=i + 1, workload=1.0, data_size=1.0) for i in range(n)]


def test_validate_graph_ordered_chain():
    g = TaskGraph(_tasks(3), [(1, 2), (2, 3)])
    assert validate_graph(g) == [1, 2, 3]


def test_validate_graph_two_cycle():
    g = TaskGraph(_tasks(2), [(1, 2), (2, 1)])
    with pytest.raises(CycleDetected):
        validate_graph(g)


def test_validate_graph_singleton():
    g = TaskGraph(_tasks(1))
    assert validate_graph(g) == [1]


def test_validate_graph_dangling_edge():
    g = TaskGraph(_tasks(3), [(1, 9)])
    with pytest.raises(DanglingEdge):
        validate_graph(g)


def test_task_ids_must_be_one_to_n():
    with pytest.raises(GraphError):
        TaskGraph([TaskSpec(id=2, workload=1, data_size=1)])
    with pytest.raises(GraphError):
        TaskGraph([TaskSpec(id=1, workload=1, data_size=1)] * 2)


def test_topological_order_respects_edges():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = gen.random_dag(rng, int(rng.integers(1, 9)))
        order = validate_graph(g)
        pos = {tid: i for i, tid in enumerate(order)}
        assert sorted(order) == [t.id for t in g.tasks]
        for a, b in g.edges:
            assert pos[a] < pos[b]


def test_tasks_listed_out_of_id_order_are_kept_in_id_order():
    platform = gen.desk_platform()
    placement = Placement({1: Tier.LOCAL, 2: Tier.FOG})
    listed = TaskGraph([TaskSpec(2, 500, 10), TaskSpec(1, 100, 100)])
    ordered = TaskGraph([TaskSpec(1, 100, 100), TaskSpec(2, 500, 10)])
    assert listed == ordered
    row = evaluate(listed, placement, platform).tasks[0]
    assert (row.tier, row.finish) == (Tier.LOCAL, 100.0)
    assert repr(evaluate(listed, placement, platform)) == repr(
        evaluate(ordered, placement, platform)
    )


def test_scenario_file_with_tasks_out_of_id_order():
    text = bundled_scenario("fig4.scn").read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.lstrip().startswith("- {id:")]
    for i, line in zip(at, [lines[i] for i in reversed(at)]):
        lines[i] = line
    shuffled = parse_scenario("".join(lines))
    scn = parse_scenario(text)
    assert [t.id for t in shuffled.graph.tasks] == list(range(1, 10))
    assert shuffled == scn
    assert repr(greedy_solve(shuffled)) == repr(greedy_solve(scn))


def _naive_structure(graph):
    n = len(graph)
    preds = tuple(tuple(a - 1 for a, b in graph.edges if b == i + 1) for i in range(n))
    sinks = tuple(i for i in range(n) if all(a != i + 1 for a, _ in graph.edges))
    return preds, sinks


def test_graph_structure_is_derived_once_and_kept():
    """The structure a graph keeps gives the same context as a fresh equal
    graph's and as a pickled copy's; it leaves ==, hash and repr alone, and
    an invalid graph raises on every use."""
    rng = np.random.default_rng(12)
    for k in range(300):
        scn = gen.random_scenario(rng, n_max=12)
        graph = gen.permute_ids(rng, scn.graph) if k % 3 == 0 else scn.graph
        n = len(graph)
        EvalContext(graph, scn.platform)
        assert "structure" in vars(graph)
        copy = pickle.loads(pickle.dumps(graph))
        assert "structure" in vars(copy)
        fresh = TaskGraph(graph.tasks, graph.edges)
        assert "structure" not in vars(fresh)
        assert graph == copy == fresh
        assert hash(graph) == hash(copy) == hash(fresh)
        assert repr(graph) == repr(copy) == repr(fresh)
        want = EvalContext(fresh, scn.platform)
        for g in (graph, copy):
            ctx = EvalContext(g, scn.platform)
            for name in EvalContext.__slots__:
                assert repr(getattr(ctx, name)) == repr(getattr(want, name)), name
        assert (want.preds, want.sinks) == _naive_structure(graph)
        assert [want.pos[i] for i in want.topo] == list(range(n))
        assert graph.structure.sinks == want.sinks

        order = validate_graph(graph)
        assert order == [i + 1 for i in want.topo]
        order.reverse()
        order.append(n + 1)
        assert validate_graph(graph) == [i + 1 for i in want.topo]

        bad = [TaskGraph(graph.tasks, graph.edges + ((1, n + 1),))]
        if graph.edges:
            a, b = graph.edges[int(rng.integers(len(graph.edges)))]
            bad.append(TaskGraph(graph.tasks, graph.edges + ((b, a),)))
        for g, exc in zip(bad, (DanglingEdge, CycleDetected)):
            for _ in range(2):
                with pytest.raises(exc):
                    validate_graph(g)
                with pytest.raises(exc):
                    EvalContext(g, scn.platform)
            assert "structure" not in vars(g)


def test_placement_rejects_what_it_would_coerce():
    for bad in ({1.7: 2}, {True: 3}, {"1": 2}, {1: True}, {1: 2.0}, {1: "2"}):
        with pytest.raises(TypeError):
            Placement(bad)
    for bad in ({1: 0}, {1: 4}, {1: -1}):
        with pytest.raises(ValueError):
            Placement(bad)
    placement = Placement({np.int64(2): np.int64(3), 1: Tier.FOG, 3: 1})
    assert placement.assignment == {2: Tier.CLOUD, 1: Tier.FOG, 3: Tier.LOCAL}
    assert [type(k) for k in placement.assignment] == [int, int, int]
    assert all(type(v) is Tier for v in placement.assignment.values())


def _placement_or_error(assignment):
    try:
        placement = Placement(assignment)
    except Exception as e:  # noqa: BLE001 - compared with the reference's
        return type(e), str(e)
    return [(k, type(k), v, type(v)) for k, v in placement.assignment.items()]


def _reference_or_error(assignment):
    try:
        kept = oracles.placement_assignment(assignment)
    except Exception as e:  # noqa: BLE001
        return type(e), str(e)
    return [(k, type(k), v, type(v)) for k, v in kept.items()]


def test_placement_matches_checked_reference():
    """Every input, alone or among other items, is kept or refused as the
    reference's checked path keeps or refuses it: the same exception and
    message, or an equal assignment with the same key and tier types."""
    keys = [1, 2, np.int64(3), np.int32(4), Tier.CLOUD, True, False, 1.0, 2.5, "1"]
    values = [1, 2, 3, Tier.LOCAL, Tier.FOG, Tier.CLOUD, np.int64(2), np.uint8(3),
              True, False, 1.0, 2.5, 0, 4, -1, "2", None]
    seen = Counter()
    for k in keys:
        for v in values:
            got = _placement_or_error({k: v})
            assert got == _reference_or_error({k: v}), (k, v)
            seen[got[0] if isinstance(got, tuple) else "kept"] += 1
    rng = np.random.default_rng(67)
    for _ in range(500):
        items = [(keys[int(rng.integers(len(keys)))], values[int(rng.integers(len(values)))])
                 for _ in range(int(rng.integers(1, 5)))]
        assert _placement_or_error(items) == _reference_or_error(items), items
        assert _placement_or_error(dict(items)) == _reference_or_error(dict(items)), items
    # 5 int-like keys x 8 valid codes are kept; a bool key, a bool or
    # non-integer code, or a valid code under a non-integer key is a
    # TypeError; a code out of 1..3 under a non-bool key is a ValueError
    assert seen == Counter({"kept": 5 * 8, TypeError: 2 * 17 + 8 * 6 + 3 * 8,
                            ValueError: 8 * 3}), seen
    # Tier members under int keys, in id order
    tiers = [Tier(int(t)) for t in rng.integers(1, 4, size=40)]
    assignment = dict(enumerate(tiers, 1))
    assert _placement_or_error(assignment) == _reference_or_error(assignment)
    assert Placement(assignment) == Placement({i: int(t) for i, t in assignment.items()})


def test_validate_placement_ok():
    g = TaskGraph(_tasks(3), [(1, 2)])
    validate_placement(Placement({1: Tier.LOCAL, 2: Tier.LOCAL, 3: Tier.LOCAL}), g)


def test_validate_placement_missing():
    g = TaskGraph(_tasks(3))
    with pytest.raises(MissingTask):
        validate_placement(Placement({1: Tier.LOCAL, 2: Tier.FOG}), g)


def test_validate_placement_unknown():
    g = TaskGraph(_tasks(3))
    placement = Placement({1: Tier.LOCAL, 2: Tier.FOG, 3: Tier.CLOUD, 9: Tier.FOG})
    with pytest.raises(UnknownTask):
        validate_placement(placement, g)


def test_task_spec_rejects_negative():
    with pytest.raises(ValueError):
        TaskSpec(id=1, workload=-1.0, data_size=0.0)
    with pytest.raises(ValueError):
        TaskSpec(id=1, workload=0.0, data_size=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    from fogsched import CloudSpec, FogSpec, RadioLink

    base = gen.desk_platform()
    with pytest.raises(ValueError, match="finite"):
        TaskSpec(id=1, workload=bad, data_size=1.0)
    with pytest.raises(ValueError, match="finite"):
        TaskSpec(id=1, workload=1.0, data_size=bad)
    for spec in (FogSpec, CloudSpec):
        for name in ("cpu", "alpha", "beta", "epsilon", "price"):
            kwargs = {"cpu": 1.0, "alpha": 0.0, "beta": 0.0, name: bad}
            with pytest.raises(ValueError, match="finite"):
                spec(**kwargs)
    for name in ("bandwidth", "tx_power_max", "channel_gain", "noise", "interference", "tx_power"):
        kwargs = {"bandwidth": 1.0, "tx_power_max": 1.0, name: bad}
        with pytest.raises(ValueError, match="finite"):
            RadioLink(**kwargs)
    for name in ("device_cpu", "kappa", "fog_cloud_bandwidth", "fog_forward_power"):
        with pytest.raises(ValueError, match="finite"):
            replace(base, **{name: bad})


def test_scenario_budget_nan_rejected_inf_allowed():
    g = TaskGraph(_tasks(1))
    with pytest.raises(ValueError):
        Scenario(graph=g, platform=gen.desk_platform(), budget=math.nan)
    assert Scenario(graph=g, platform=gen.desk_platform(), budget=math.inf).budget == math.inf


@pytest.mark.parametrize(
    "old, new",
    [
        ("workload: 170.4", "workload: .nan"),
        ("data_size: 170.4", "data_size: .inf"),
        ("kappa: 1.0e-11", "kappa: .nan"),
        ("cpu: 3.6,", "cpu: .inf,"),
        ("price: 0.004", "price: .nan"),
        ("bandwidth: 5.0", "bandwidth: .inf"),
        ("budget: 6.0", "budget: .nan"),
    ],
)
def test_parse_rejects_non_finite_values(old, new):
    from fogsched import ParseError, bundled_scenario

    text = bundled_scenario("fig4.scn").read_text()
    assert old in text
    with pytest.raises(ParseError):
        parse_scenario(text.replace(old, new, 1))


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("seed: 1", "seed: true", "seed"),
        ("{id: 1, workload", "{id: true, workload", r"graph.tasks\[\].id"),
        ("workload: 170.4", "workload: false", r"graph.tasks\[\].workload"),
        ("budget: 6.0", "budget: true", "budget"),
        ("    - [1, 2]", "    - [true, 2]", "edge pred"),
    ],
)
def test_parse_rejects_booleans_as_numbers(old, new, where):
    from fogsched import ParseError, bundled_scenario

    text = bundled_scenario("fig4.scn").read_text()
    assert old in text
    with pytest.raises(ParseError, match=f"^{where}: expected an? (number|integer)"):
        parse_scenario(text.replace(old, new, 1))


@pytest.mark.parametrize("end", (".inf", "-.inf", ".nan", "1.5"))
def test_parse_rejects_edge_endpoints_that_are_not_integers(end):
    from fogsched import ParseError, bundled_scenario

    text = bundled_scenario("fig4.scn").read_text()
    with pytest.raises(ParseError, match="^edge succ: expected an integer"):
        parse_scenario(text.replace("    - [1, 2]", f"    - [1, {end}]", 1))


def test_scenario_rejects_negative_budget():
    g = TaskGraph(_tasks(1))
    with pytest.raises(ValueError):
        Scenario(graph=g, platform=gen.desk_platform(), budget=-1.0)


def test_integer_fields_reject_what_they_would_coerce():
    g = TaskGraph(_tasks(1))
    platform = gen.desk_platform()
    for bad in (1.5, 2.0, True, "3", None):
        with pytest.raises(TypeError, match="seed must be an integer"):
            Scenario(graph=g, platform=platform, seed=bad)
        with pytest.raises(TypeError, match="steps must be an integer"):
            bench.SweepSpec("budget", 1.0, 2.0, bad)
        with pytest.raises(TypeError, match="reps must be an integer"):
            bench.SweepSpec("budget", 1.0, 2.0, 2, reps=bad)
    # numpy integers are integers, kept as plain ints
    scn = Scenario(graph=g, platform=platform, seed=np.uint32(7))
    assert scn.seed == 7 and type(scn.seed) is int
    spec = bench.SweepSpec("budget", 1.0, 2.0, np.int64(3), reps=np.uint8(2))
    assert (spec.steps, spec.reps, spec.values()) == (3, 2, [1.0, 1.5, 2.0])


def test_float_fields_reject_booleans():
    # a bool is a Real that would pass every finiteness and range check as
    # 0 or 1
    g = TaskGraph(_tasks(1))
    platform = gen.desk_platform()
    for bad in (True, False):
        with pytest.raises(TypeError, match="budget must be a number"):
            Scenario(graph=g, platform=platform, budget=bad)
        with pytest.raises(TypeError, match="task 1: workload must be a number"):
            TaskSpec(1, bad, 1.0)
        with pytest.raises(TypeError, match="data_size must be a number"):
            TaskSpec(1, 1.0, bad)
        with pytest.raises(TypeError, match="kappa must be a number"):
            replace(platform, kappa=bad)
        with pytest.raises(TypeError, match="fog price must be a number"):
            replace(platform.fog, price=bad)
        with pytest.raises(TypeError, match="start must be a number"):
            bench.SweepSpec("budget", bad, 2.0, 3)
    # ints and numpy floats stay numbers
    assert Scenario(graph=g, platform=platform, budget=1).budget == 1
    assert Scenario(graph=g, platform=platform, budget=np.float64(50.0)).budget == 50.0


def test_task_ids_and_edge_endpoints_reject_what_they_would_coerce():
    # int() would turn each of these into the id 1, so a bad endpoint
    # would silently name task 1
    tasks = _tasks(2)
    for bad in (1.9, 1.0, True, "1", None):
        with pytest.raises(TypeError, match="edge endpoint must be an integer"):
            TaskGraph(tasks, [(bad, 2)])
        with pytest.raises(TypeError, match="edge endpoint must be an integer"):
            TaskGraph(tasks, [(1, bad)])
        with pytest.raises(TypeError, match="id must be an integer"):
            TaskSpec(bad, 1.0, 1.0)
    # numpy integers are task ids, kept as plain ints
    g = TaskGraph([TaskSpec(np.int64(2), 1.0, 1.0), TaskSpec(1, 1.0, 1.0)],
                  [(np.int32(1), np.uint8(2))])
    assert [t.id for t in g.tasks] == [1, 2] and g.edges == ((1, 2),)
    assert {type(t.id) for t in g.tasks} | {type(v) for e in g.edges for v in e} == {int}


def test_scenario_rejects_negative_seed():
    g = TaskGraph(_tasks(1))
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        Scenario(graph=g, platform=gen.desk_platform(), seed=-1)
    assert Scenario(graph=g, platform=gen.desk_platform(), seed=0).seed == 0


def test_epsilon_warning_outside_range():
    from fogsched import FogSpec

    with pytest.warns(UserWarning):
        FogSpec(cpu=1.0, alpha=0.1, beta=0.1, epsilon=3.5)


def test_scenario_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    scn = gen.random_scenario(rng)
    # random_scenario always anneals; the other kinds render differently
    cases = [replace(scn, solver_config=cfg)
             for cfg in (scn.solver_config, GreedyConfig(), BruteForceConfig())]
    cases += [load_scenario(bundled_scenario(name))
              for name in ("defaults.scn", "fig4.scn", "chain40.scn", "dag9.scn")]
    path = tmp_path / "roundtrip.scn"
    for scn in cases:
        save_scenario(scn, path)
        again = load_scenario(path)
        assert again == scn
        assert repr(again) == repr(scn)
        # a second cycle is byte-stable
        assert render_scenario(again) == render_scenario(scn)


def test_libyaml_loader_reads_the_same_scenarios(monkeypatch):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    rng = np.random.default_rng(12)
    texts = [bundled_scenario(name).read_text(encoding="utf-8")
             for name in ("defaults.scn", "fig4.scn", "chain40.scn", "dag9.scn")]
    kinds = (SAConfig(), GreedyConfig(), BruteForceConfig())
    for k in range(300):
        scn = gen.random_scenario(rng, n_max=12, benign=k % 5 == 0)
        texts.append(render_scenario(replace(scn, solver_config=kinds[k % 3])))
    malformed = ["graph: {tasks: [}\n", "budget: [1, 2\n", "a:\n  - b\n c: d\n",
                 "seed: 'open\n", "\tgraph: 1\n", "budget: *x\n"]
    seen = {}
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(scenario_io, "_LOADER", loader)
        parsed = [repr(parse_scenario(text)) for text in texts]
        errors = []
        for text in malformed:
            with pytest.raises(ParseError) as err:
                parse_scenario(text)
            cause = err.value.__cause__
            errors.append((type(cause), cause.problem_mark.line, cause.problem_mark.column))
        seen[loader] = parsed, errors
    assert seen[yaml.SafeLoader] == seen[yaml.CSafeLoader]


def test_infinite_budget_roundtrip(tmp_path):
    scn = Scenario(graph=TaskGraph(_tasks(1)), platform=gen.desk_platform(), budget=math.inf)
    path = tmp_path / "inf.scn"
    save_scenario(scn, path)
    assert load_scenario(path).budget == math.inf


def test_parse_rejects_unknown_keys():
    from fogsched import ParseError

    scn = gen.random_scenario(np.random.default_rng(3))
    text = render_scenario(scn) + "extra_section: 1\n"
    with pytest.raises(ParseError):
        parse_scenario(text)
    # YAML keys of mixed types are reported, not compared
    with pytest.raises(ParseError, match=r"unknown keys \[1, 'zz'\]"):
        parse_scenario(render_scenario(scn) + "1: 2\nzz: 3\n")
    # a scenario file has no placement section
    text = bundled_scenario("fig4.scn").read_text(encoding="utf-8")
    with pytest.raises(ParseError, match=r"scenario: unknown keys \['placement'\]"):
        parse_scenario(text + "placement: {1: local}\n")


def test_parse_rejects_bad_objective(tmp_path, capsys):
    # the makespan is the one objective: the writer leaves the key out, and
    # the reader refuses it as an unknown key, whatever its value
    scn = gen.random_scenario(np.random.default_rng(3))
    text = render_scenario(scn)
    assert "objective_mode" not in text
    for value in ("makespan", "sum_finish", "latency", "null", "[makespan]"):
        with pytest.raises(ParseError, match=r"scenario: unknown keys \['objective_mode'\]"):
            parse_scenario(text + f"objective_mode: {value}\n")
    path = tmp_path / "makespan.scn"
    path.write_text(text + "objective_mode: makespan\n", encoding="utf-8")
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == "error: scenario: unknown keys ['objective_mode']\n"


def test_plain_exponent_floats_accepted():
    # YAML 1.1 reads an exponent without a dot as a string; the reader
    # coerces it, though the writer never emits one
    text = render_scenario(gen.random_scenario(np.random.default_rng(5)))
    assert "kappa: 1.0e-11" in text
    text = text.replace("kappa: 1.0e-11", "kappa: 1e-11")
    assert yaml.safe_load(text)["platform"]["kappa"] == "1e-11"
    assert parse_scenario(text).platform.kappa == 1e-11


def _assert_typed(node, obj):
    """Each field of dataclass `obj` is a YAML int or float in `node`, equal
    to the field, and the keys of `node` are the field names, in order."""
    assert list(node) == [f.name for f in fields(obj)]
    for f in fields(obj):
        value = getattr(obj, f.name)
        got = node[f.name]
        if is_dataclass(value):
            _assert_typed(got, value)
        else:
            assert type(got) is (int if isinstance(value, int) else float), (f.name, got)
            assert got == value, f.name


def test_rendered_numbers_are_typed_yaml():
    """Any YAML reader, not only ours, reads each number of a written
    scenario as the number it is."""
    rng = np.random.default_rng(14)
    kinds = (SAConfig(), GreedyConfig(), BruteForceConfig())
    for k in range(90):
        scn = gen.random_scenario(rng, n_max=10, benign=k % 5 == 0)
        scn = replace(scn, solver_config=kinds[k % 3],
                      budget=math.inf if k % 2 else scn.budget)
        text = render_scenario(scn)
        doc = yaml.safe_load(text)
        for node, task in zip(doc["graph"]["tasks"], scn.graph.tasks, strict=True):
            _assert_typed(node, task)
        assert doc["graph"]["edges"] == [list(e) for e in scn.graph.edges]
        assert all(type(v) is int for e in doc["graph"]["edges"] for v in e)
        _assert_typed(doc["platform"], scn.platform)
        assert type(doc["budget"]) is float and doc["budget"] == scn.budget
        assert type(doc["seed"]) is int and doc["seed"] == scn.seed
        solver = dict(doc["solver"])
        assert solver.pop("kind") == solver_kind(scn.solver_config)
        _assert_typed(solver, scn.solver_config)
        assert parse_scenario(text) == scn
        # whichever emitter wrote it, the text is PyYAML's pure-Python one's
        assert text == yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def test_physical_ranges_rejected():
    from fogsched import CloudSpec, FogSpec, ParseError, RadioLink

    for gain in (0.0, -2.0):
        with pytest.raises(ValueError, match="channel_gain must be > 0"):
            RadioLink(bandwidth=1.0, tx_power_max=1.0, channel_gain=gain)
    for spec, label in ((FogSpec, "fog"), (CloudSpec, "cloud")):
        with pytest.raises(ValueError, match=f"{label} alpha must be >= 0"):
            spec(cpu=1.0, alpha=-1e-5, beta=0.0)
        with pytest.raises(ValueError, match=f"{label} beta must be >= 0"):
            spec(cpu=1.0, alpha=0.0, beta=-5.0)
        assert spec(cpu=1.0, alpha=0.0, beta=0.0).alpha == 0.0
    text = bundled_scenario("fig4.scn").read_text()
    assert "    channel_gain: 1.0" in text
    with pytest.raises(ParseError, match="channel_gain"):
        parse_scenario(text.replace("    channel_gain: 1.0", "    channel_gain: 0", 1))


@pytest.mark.parametrize(
    "solver",
    ["{kind: greedy, t0: 5}", "{kind: sa, brute_cap: 3}", "{kind: brute, cap: 3}",
     "{kind: brute, brute_cap: 14}", "{kind: sa, t0: 5}", "{kind: sa, neighbor_range: 3}"],
)
def test_parse_rejects_keys_of_another_solver_kind(solver, tmp_path, capsys):
    # no solver kind has settings, annealing included: its schedule is fixed
    from fogsched import ParseError

    text = bundled_scenario("fig4.scn").read_text()
    assert "solver: {kind: greedy}" in text
    text = text.replace("solver: {kind: greedy}", f"solver: {solver}", 1)
    with pytest.raises(ParseError, match=r"^solver: unknown keys \['\w+'\]$"):
        parse_scenario(text)
    path = tmp_path / "settings.scn"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: solver: unknown keys")


def test_null_is_absent_only_for_optional_fields():
    from fogsched import ParseError

    text = bundled_scenario("fig4.scn").read_text()
    text = text.replace("    tx_power_max: 1.0", "    tx_power_max: 2.0", 1)
    parsed = parse_scenario(text.replace("    tx_power: 1.0", "    tx_power: ~", 1))
    assert parsed.platform.radio.tx_power == 2.0
    with pytest.raises(ParseError, match="expected a number"):
        parse_scenario(text.replace("epsilon: 3.0, price: 0.001", "epsilon: ~, price: 0.001", 1))
    # a null solver section, or one without a kind, reads as greedy
    for solver, config in (("~", GreedyConfig()), ("{}", GreedyConfig()), ("{kind: sa}", SAConfig())):
        parsed = parse_scenario(text.replace("solver: {kind: greedy}", f"solver: {solver}", 1))
        assert type(parsed.solver_config) is type(config)


def _bounded_cases():
    """(constructor, field, message, bound) for every bounded field of the
    model's types: a `> 0` field refuses its bound, a `>= 0` one keeps it."""
    from fogsched import CloudSpec, FogSpec, RadioLink

    base = gen.desk_platform()
    cases = [(lambda v, f=f: TaskSpec(1, **{"workload": 1.0, "data_size": 1.0, f: v}),
              f"task 1: {f} must be >= 0", ">=") for f in ("workload", "data_size")]
    for spec, label in ((FogSpec, "fog"), (CloudSpec, "cloud")):
        for f, op in (("cpu", ">"), ("alpha", ">="), ("beta", ">="), ("price", ">=")):
            cases.append((lambda v, spec=spec, f=f: spec(**{"cpu": 1.0, "alpha": 0.0,
                                                            "beta": 0.0, f: v}),
                          f"{label} {f} must be {op} 0", op))
    for f, op in (("bandwidth", ">"), ("channel_gain", ">"), ("noise", ">"),
                  ("interference", ">=")):
        cases.append((lambda v, f=f: RadioLink(**{"bandwidth": 1.0, "tx_power_max": 1.0, f: v}),
                      f"link {f} must be {op} 0", op))
    for f, op in (("device_cpu", ">"), ("kappa", ">="), ("fog_cloud_bandwidth", ">"),
                  ("fog_forward_power", ">=")):
        cases.append((lambda v, f=f: replace(base, **{f: v}), f"{f} must be {op} 0", op))
    return cases


def test_bounded_fields_refused_outside_and_at_their_bounds():
    """Each bounded field, alone, just below its bound of 0 and exactly at
    it: the refusal's type and text, or the field kept."""
    from fogsched import RadioLink

    cases = _bounded_cases()
    assert len(cases) == 18
    tiny = math.ulp(0.0)
    for build, message, op in cases:
        for value in (-tiny, -1.0):
            with pytest.raises(ValueError) as err:
                build(value)
            assert type(err.value) is ValueError and str(err.value) == message
        if op == ">":
            with pytest.raises(ValueError) as err:
                build(0.0)
            assert type(err.value) is ValueError and str(err.value) == message
            assert build(tiny) is not None
        else:
            assert build(0.0) is not None
    # tx_power keeps its own range, (0, tx_power_max]
    for value in (0.0, -tiny, 1.0 + 2**-52):
        with pytest.raises(ValueError) as err:
            RadioLink(bandwidth=1.0, tx_power_max=1.0, tx_power=value)
        assert str(err.value) == "tx_power must satisfy 0 < tx_power <= tx_power_max"
    assert RadioLink(bandwidth=1.0, tx_power_max=1.0, tx_power=1.0).tx_power == 1.0
    assert RadioLink(bandwidth=1.0, tx_power_max=1.0, tx_power=tiny).tx_power == tiny


_DELETE = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("graph",), _DELETE, "scenario: missing required key 'graph'"),
        (("platform",), _DELETE, "scenario: missing required key 'platform'"),
        (("graph", "tasks", 0, "workload"), _DELETE,
         "graph.tasks[]: missing required key 'workload'"),
        (("platform", "radio", "bandwidth"), _DELETE,
         "platform.radio: missing required key 'bandwidth'"),
        (("graph",), [1], "graph: expected a mapping"),
        (("platform",), 5, "platform: expected a mapping"),
        (("platform", "fog"), 3.6, "platform.fog: expected a mapping"),
        (("solver",), "greedy", "solver: expected a mapping"),
        (("graph", "tasks", 0), [1, 2, 3], "graph.tasks[]: expected a mapping"),
        (("graph", "edges", 0), [1, 2, 3],
         "graph.edges: expected [pred, succ] pairs, got [1, 2, 3]"),
        (("graph", "edges", 0), 5, "graph.edges: expected [pred, succ] pairs, got 5"),
        (("solver", "kind"), "fast",
         "solver.kind must be one of ('greedy', 'sa', 'brute'), got 'fast'"),
        (("solver", "kind"), None,
         "solver.kind must be one of ('greedy', 'sa', 'brute'), got None"),
    ],
)
def test_parse_names_malformed_structure(path, value, message):
    doc = yaml.safe_load(bundled_scenario("fig4.scn").read_text(encoding="utf-8"))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    with pytest.raises(ParseError) as err:
        parse_scenario(yaml.safe_dump(doc))
    assert str(err.value) == message


@pytest.mark.parametrize("key", ["tasks", "edges"])
@pytest.mark.parametrize("value", ["0", "false", "true", "5", '""', "{1: 2}"])
def test_graph_tasks_and_edges_must_be_lists(key, value, tmp_path, capsys):
    # `edges: 0` once read as no edges, so a DAG solved as independent tasks
    text = bundled_scenario("dag9.scn").read_text(encoding="utf-8")
    text, n = re.subn(rf"^  {key}:\n(  - .*\n)+", f"  {key}: {value}\n", text, flags=re.M)
    assert n == 1
    message = f"graph.{key}: expected a list, got {yaml.safe_load(value)!r}"
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert str(err.value) == message
    path = tmp_path / "dag9.scn"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", "--scenario", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_graph_null_lists_read_as_empty():
    text = bundled_scenario("dag9.scn").read_text(encoding="utf-8")
    no_edges = re.sub(r"^  edges:\n(  - .*\n)+", "", text, flags=re.M)
    scn = parse_scenario(text)
    for edges in ("", "  edges: ~\n", "  edges: null\n"):
        got = parse_scenario(no_edges.replace("platform:", edges + "platform:", 1))
        assert got.graph.edges == () and got.graph.tasks == scn.graph.tasks
    empty = re.sub(r"^  tasks:\n(  - .*\n)+", "  tasks: ~\n", no_edges, flags=re.M)
    assert len(parse_scenario(empty).graph) == 0
