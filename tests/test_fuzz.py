"""A seeded mutation fuzz of the scenario boundary, standard library only.

Each mutant of a bundled scenario swaps one or two of its numeric tokens for
a value a field check must catch or the model must survive.  The boundary
holds when every mutant is either refused with one of the package's own
errors, or loads, round-trips through `render_scenario` bit-exactly and
gives greedy a usable scenario: a SolverError or finite totals.
"""
import math
import random
import re
import warnings

from fogsched import GraphError, ParseError, greedy_solve, parse_scenario, render_scenario
from fogsched.scenario_io import bundled_scenario
from fogsched.schedule import DerivedValueError
from fogsched.solvers import SolverError

SCENARIOS = ("fig4.scn", "chain40.scn", "dag9.scn")
REPLACEMENTS = ("nan", ".inf", "-.inf", "1e308", "1e400", "5e-324", "-1", "0", "true", "null",
                "[1]", '"x"')
MUTANTS_PER_SCENARIO = 120
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


def _mutants(rng: random.Random, text: str, count: int):
    spans = _numeric_spans(text)
    for _ in range(count):
        picked = sorted(rng.sample(spans, rng.choice((1, 2))), reverse=True)
        mutant = text
        swaps = []
        for start, end in picked:
            value = rng.choice(REPLACEMENTS)
            swaps.append((text[start:end], value))
            mutant = mutant[:start] + value + mutant[end:]
        yield mutant, swaps


def _outcome(text: str) -> str:
    """How the package takes one scenario text: 'refused', 'infeasible' or
    'solved'; any other exception, or a broken promise, fails the test."""
    try:
        scenario = parse_scenario(text)
    except (ParseError, GraphError):
        return "refused"
    rendered = render_scenario(scenario)
    again = parse_scenario(rendered)
    assert repr(again) == repr(scenario)
    assert render_scenario(again) == rendered
    try:
        outcome = greedy_solve(scenario)
    except DerivedValueError:
        return "refused"
    except SolverError:
        return "infeasible"
    r = outcome.result
    totals = (r.makespan, r.sum_finish, r.total_cost, r.fog_utility, r.cloud_utility)
    assert all(map(math.isfinite, totals)), totals
    return "solved"


def test_numeric_token_mutants_are_refused_or_usable():
    rng = random.Random(20240)
    seen = {"refused": 0, "infeasible": 0, "solved": 0}
    for name in SCENARIOS:
        text = bundled_scenario(name).read_text(encoding="utf-8")
        assert _outcome(text) == "solved"
        for mutant, swaps in _mutants(rng, text, MUTANTS_PER_SCENARIO):
            with warnings.catch_warnings():
                # out-of-range power exponents load with a warning
                warnings.simplefilter("ignore")
                try:
                    seen[_outcome(mutant)] += 1
                except Exception as exc:
                    raise AssertionError(f"{name} with {swaps}: {exc!r}") from exc
    # the mutants reach both sides of the boundary
    assert seen["refused"] and seen["solved"], seen
