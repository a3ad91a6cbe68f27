"""Domain types: graph/placement validation and scenario file round-trips."""
import math
import pickle
from collections import Counter
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
import yaml

from fogsched import bench, scenario_io
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
    load_placement,
    load_scenario,
    parse_placement,
    parse_scenario,
    render_scenario,
    save_scenario,
    validate_graph,
    validate_placement,
)
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
    row = evaluate(listed, placement, platform).task(1)
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
    assert repr(replace(greedy_solve(shuffled), wall_time=0.0)) == repr(
        replace(greedy_solve(scn), wall_time=0.0)
    )


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
    for name in ("t0", "t_stop"):
        with pytest.raises(ValueError, match="finite"):
            SAConfig(**{name: bad})


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
        ("solver: {kind: greedy}", "solver: {kind: sa, t0: .inf}"),
        ("solver: {kind: greedy}", "solver: {kind: sa, t_stop: .nan}"),
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
        ("solver: {kind: greedy}", "solver: {kind: sa, neighbor_range: true}",
         "solver.neighbor_range"),
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


def test_sa_config_invariants():
    with pytest.raises(ValueError):
        SAConfig(cool=1.0)
    with pytest.raises(ValueError):
        SAConfig(t_stop=0.0)
    with pytest.raises(ValueError):
        SAConfig(max_restarts=-1)
    with pytest.warns(UserWarning):
        SAConfig(t0=0.05, t_stop=0.1)


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
        with pytest.raises(TypeError, match="neighbor_range must be an integer"):
            SAConfig(neighbor_range=bad)
        with pytest.raises(TypeError, match="max_restarts must be an integer"):
            SAConfig(max_restarts=bad)
        with pytest.raises(TypeError, match="cap must be an integer"):
            BruteForceConfig(cap=bad)
        with pytest.raises(TypeError, match="steps must be an integer"):
            bench.SweepSpec("budget", 1.0, 2.0, bad)
        with pytest.raises(TypeError, match="reps must be an integer"):
            bench.SweepSpec("budget", 1.0, 2.0, 2, reps=bad)
    # numpy integers are integers, kept as plain ints
    scn = Scenario(graph=g, platform=platform, seed=np.uint32(7))
    cfg = SAConfig(neighbor_range=np.int64(2), max_restarts=np.int8(4))
    cap = BruteForceConfig(cap=np.int16(9)).cap
    assert (scn.seed, cfg.neighbor_range, cfg.max_restarts, cap) == (7, 2, 4, 9)
    assert {type(scn.seed), type(cfg.neighbor_range), type(cfg.max_restarts), type(cap)} == {int}
    spec = bench.SweepSpec("budget", 1.0, 2.0, np.int64(3), reps=np.uint8(2))
    assert (spec.steps, spec.reps, spec.values()) == (3, 2, [1.0, 1.5, 2.0])
    with pytest.raises(ValueError, match="neighbor_range must be >= 1"):
        SAConfig(neighbor_range=np.int64(0))


def test_float_fields_reject_booleans():
    # a bool is a Real that would pass every finiteness and range check as
    # 0 or 1
    g = TaskGraph(_tasks(1))
    platform = gen.desk_platform()
    for bad in (True, False):
        with pytest.raises(TypeError, match="budget must be a number"):
            Scenario(graph=g, platform=platform, budget=bad)
        with pytest.raises(TypeError, match="t0 must be a number"):
            SAConfig(t0=bad, t_stop=0.1)
        with pytest.raises(TypeError, match="t_stop must be a number"):
            SAConfig(t_stop=bad)
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
    assert SAConfig(t0=np.float64(50.0)).t0 == 50.0


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
    with pytest.raises(TypeError, match="task_size_range must hold numbers"):
        bench.SweepSpec("task_count", 1.0, 5.0, 2, task_size_range=(True, 5.0))
    with pytest.raises(TypeError, match="task_size_range must hold numbers"):
        bench.SweepSpec("task_count", 1.0, 5.0, 2, task_size_range=(1.0, False))
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
             for cfg in (scn.solver_config, GreedyConfig(), BruteForceConfig(cap=9))]
    cases += [load_scenario(bundled_scenario(name))
              for name in ("defaults.scn", "fig4.scn", "chain40.scn")]
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
             for name in ("defaults.scn", "fig4.scn", "chain40.scn")]
    kinds = (SAConfig(), GreedyConfig(), BruteForceConfig(cap=9))
    for k in range(300):
        scn = gen.random_scenario(rng, n_max=12, benign=k % 5 == 0)
        scn = replace(scn, solver_config=kinds[k % 3])
        placement = gen.random_placement(rng, scn.graph) if k % 2 else None
        texts.append(render_scenario(scn, placement))
    malformed = ["graph: {tasks: [}\n", "budget: [1, 2\n", "a:\n  - b\n c: d\n",
                 "seed: 'open\n", "\tgraph: 1\n", "budget: *x\n"]
    seen = {}
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(scenario_io, "_LOADER", loader)
        parsed = []
        for text in texts:
            scn = parse_scenario(text)
            parsed.append(repr((scn, parse_placement(text, scn.graph))))
        errors = []
        for text in malformed:
            with pytest.raises(ParseError) as err:
                parse_scenario(text)
            cause = err.value.__cause__
            errors.append((type(cause), cause.problem_mark.line, cause.problem_mark.column))
        seen[loader] = parsed, errors
    assert seen[yaml.SafeLoader] == seen[yaml.CSafeLoader]


def test_placement_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    scn = gen.random_scenario(rng)
    placement = gen.random_placement(rng, scn.graph)
    path = tmp_path / "placed.scn"
    save_scenario(scn, path, placement)
    back = load_placement(path, scn.graph)
    assert back is not None
    assert back.assignment == placement.assignment


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


def test_parse_rejects_bad_objective():
    from fogsched import ParseError

    scn = gen.random_scenario(np.random.default_rng(3))
    text = render_scenario(scn).replace("objective_mode: makespan", "objective_mode: latency")
    with pytest.raises(ParseError):
        parse_scenario(text)


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
    to the field; file keys are field names except the exhaustive cap."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        got = node[{"cap": "brute_cap"}.get(f.name, f.name)]
        if is_dataclass(value):
            _assert_typed(got, value)
        else:
            assert type(got) is (int if isinstance(value, int) else float), (f.name, got)
            assert got == value, f.name


def test_rendered_numbers_are_typed_yaml():
    """Any YAML reader, not only ours, reads each number of a written
    scenario as the number it is."""
    rng = np.random.default_rng(14)
    kinds = (SAConfig(), GreedyConfig(), BruteForceConfig(cap=9))
    for k in range(90):
        scn = gen.random_scenario(rng, n_max=10, benign=k % 5 == 0)
        scn = replace(scn, solver_config=kinds[k % 3],
                      budget=math.inf if k % 2 else scn.budget)
        placement = gen.random_placement(rng, scn.graph)
        text = render_scenario(scn, placement)
        doc = yaml.safe_load(text)
        for node, task in zip(doc["graph"]["tasks"], scn.graph.tasks, strict=True):
            _assert_typed(node, task)
        assert doc["graph"]["edges"] == [list(e) for e in scn.graph.edges]
        assert all(type(v) is int for e in doc["graph"]["edges"] for v in e)
        _assert_typed(doc["platform"], scn.platform)
        assert type(doc["budget"]) is float and doc["budget"] == scn.budget
        assert type(doc["seed"]) is int and doc["seed"] == scn.seed
        _assert_typed(doc["solver"], scn.solver_config)
        assert doc["placement"] == {i: t.name.lower() for i, t in placement.assignment.items()}
        assert parse_scenario(text) == scn
        assert parse_placement(text, scn.graph) == placement
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
    "solver", ["{kind: greedy, t0: 5}", "{kind: sa, brute_cap: 3}", "{kind: brute, cap: 3}"]
)
def test_parse_rejects_keys_of_another_solver_kind(solver):
    from fogsched import ParseError

    text = bundled_scenario("fig4.scn").read_text()
    assert "solver: {kind: greedy}" in text
    with pytest.raises(ParseError, match="unknown keys"):
        parse_scenario(text.replace("solver: {kind: greedy}", f"solver: {solver}", 1))


def test_null_is_absent_only_for_optional_fields():
    from fogsched import ParseError

    text = bundled_scenario("fig4.scn").read_text()
    text = text.replace("    tx_power_max: 1.0", "    tx_power_max: 2.0", 1)
    parsed = parse_scenario(text.replace("    tx_power: 1.0", "    tx_power: ~", 1))
    assert parsed.platform.radio.tx_power == 2.0
    with pytest.raises(ParseError, match="expected a number"):
        parse_scenario(text.replace("epsilon: 3.0, price: 0.001", "epsilon: ~, price: 0.001", 1))
