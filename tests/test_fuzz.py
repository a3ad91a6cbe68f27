"""A seeded mutation fuzz of the scenario boundary, standard library only.

Each mutant of a bundled scenario swaps one or two of its numeric tokens for
a value a field check must catch or the model must survive.  The boundary
holds when every mutant is either refused with one of the package's own
errors, or loads, round-trips through `render_scenario` bit-exactly and
gives greedy a usable scenario: a SolverError or finite totals.  In-range
mutants of the scenarios small enough for exhaustive search scale one or two
decimal tokens (never an id, an edge or the seed, which are integers) by a
factor in [0.5, 2], and are held to the same promises.

Greedy's Infeasible and exhaustive search's answer keep three promises:
(a) greedy raises Infeasible only when the evaluated all-local placement
costs more than budget + TIME_TOL; and on mutants small enough for
exhaustive search, (b) when that raises Infeasible, greedy raises too or
returns an infeasible placement, and (c) when both are feasible, its
makespan is at most greedy's.  (b) and (c) are checked at the mutant's own
budget, at 0, and at the all-local cost and half of it.
"""
import math
import random
import re
import warnings
from collections import Counter
from dataclasses import replace
from itertools import chain

from fogsched import (
    GraphError,
    Infeasible,
    ParseError,
    Placement,
    Tier,
    brute_force_solve,
    evaluate,
    greedy_solve,
    parse_scenario,
    render_scenario,
)
from fogsched.scenario_io import bundled_scenario
from fogsched.schedule import TIME_TOL, DerivedValueError

SCENARIOS = ("fig4.scn", "chain40.scn", "dag9.scn")
# the scenarios within the exhaustive-search cap
EXHAUSTIVE = ("fig4.scn", "dag9.scn")
REPLACEMENTS = ("nan", ".inf", "-.inf", "1e308", "1e400", "5e-324", "-1", "0", "true", "null",
                "[1]", '"x"')
MUTANTS_PER_SCENARIO = 120
SCALED_PER_SCENARIO = 20
# an unsigned integer or decimal with an optional exponent, standing alone
NUMBER = re.compile(r"(?<![\w.])\d+(?:\.\d*)?(?:e[-+]?\d+)?(?![\w.])")


def _numeric_spans(text: str) -> list[tuple[int, int]]:
    """The (start, end) offsets of every numeric token outside comments."""
    spans = []
    offset = 0
    for line in text.splitlines(keepends=True):
        code = line.split("#", 1)[0]
        spans += [(offset + m.start(), offset + m.end()) for m in NUMBER.finditer(code)]
        offset += len(line)
    return spans


def _mutants(rng: random.Random, text: str, count: int, spans, new_value):
    """`count` copies of `text`, each with one or two of the token `spans`
    swapped for `new_value(token)`, and the (token, value) swaps made."""
    for _ in range(count):
        picked = sorted(rng.sample(spans, rng.choice((1, 2))), reverse=True)
        mutant = text
        swaps = []
        for start, end in picked:
            value = new_value(text[start:end])
            swaps.append((text[start:end], value))
            mutant = mutant[:start] + value + mutant[end:]
        yield mutant, swaps


def _local_cost(scenario) -> float:
    """The total cost of the evaluated all-local placement."""
    local = Placement({t.id: Tier.LOCAL for t in scenario.graph.tasks})
    return evaluate(scenario.graph, local, scenario.platform).total_cost


def _greedy(scenario):
    """greedy_solve's outcome, or None when it raises Infeasible, which
    keeps promise (a)."""
    try:
        return greedy_solve(scenario)
    except Infeasible:
        cost = _local_cost(scenario)
        assert cost > scenario.budget + TIME_TOL, (cost, scenario.budget)
        return None


def _against_exhaustive(scenario, seen: Counter) -> None:
    """Promises (a)-(c) at four budgets; each pair of outcomes is counted in
    `seen` as (exhaustive's, greedy's): 'raised', 'infeasible' or
    'feasible'."""
    local = _local_cost(scenario)
    for budget in (scenario.budget, 0.0, local, local / 2):
        scn = replace(scenario, budget=budget)
        greedy = _greedy(scn)
        verdict = "raised" if greedy is None else ("feasible" if greedy.feasible else "infeasible")
        try:
            best = brute_force_solve(scn)
        except Infeasible:
            assert verdict != "feasible"
            seen["raised", verdict] += 1
            continue
        if verdict == "feasible":
            assert best.result.makespan <= greedy.result.makespan
            seen["exhaustive below greedy"] += best.result.makespan < greedy.result.makespan
        seen["feasible", verdict] += 1


def _outcome(text: str, seen: Counter, exhaustive: bool) -> str:
    """How the package takes one scenario text: 'refused', 'infeasible' or
    'solved'; any other exception, or a broken promise, fails the test.
    With `exhaustive`, a usable scenario is also checked against exhaustive
    search."""
    try:
        scenario = parse_scenario(text)
    except (ParseError, GraphError):
        return "refused"
    rendered = render_scenario(scenario)
    again = parse_scenario(rendered)
    assert repr(again) == repr(scenario)
    assert render_scenario(again) == rendered
    try:
        outcome = _greedy(scenario)
    except DerivedValueError:
        return "refused"
    if exhaustive:
        _against_exhaustive(scenario, seen)
    if outcome is None:
        return "infeasible"
    r = outcome.result
    totals = (r.makespan, r.sum_finish, r.total_cost, r.fog_utility, r.cloud_utility)
    assert all(map(math.isfinite, totals)), totals
    return "solved"


def test_numeric_token_mutants_are_refused_or_usable():
    rng = random.Random(20240)
    scaled = random.Random(20241)
    seen = Counter()
    for name in SCENARIOS:
        text = bundled_scenario(name).read_text(encoding="utf-8")
        exhaustive = name in EXHAUSTIVE
        assert _outcome(text, seen, exhaustive) == "solved"
        spans = _numeric_spans(text)
        mutants = _mutants(rng, text, MUTANTS_PER_SCENARIO, spans,
                           lambda _: rng.choice(REPLACEMENTS))
        if exhaustive:
            decimals = [(start, end) for start, end in spans if "." in text[start:end]]
            mutants = chain(mutants, _mutants(
                scaled, text, SCALED_PER_SCENARIO, decimals,
                lambda token: repr(float(token) * scaled.uniform(0.5, 2.0))))
        for mutant, swaps in mutants:
            with warnings.catch_warnings():
                # out-of-range power exponents load with a warning
                warnings.simplefilter("ignore")
                try:
                    seen[_outcome(mutant, seen, exhaustive)] += 1
                except Exception as exc:
                    raise AssertionError(f"{name} with {swaps}: {exc!r}") from exc
    # the mutants reach both sides of the boundary, exhaustive search meets
    # greedy on both sides of the budget, and it beats greedy's makespan
    assert seen["refused"] and seen["solved"], seen
    assert seen["raised", "raised"] and seen["feasible", "feasible"], seen
    assert seen["exhaustive below greedy"], seen
