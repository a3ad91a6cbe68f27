"""Every function that fogsched exports has a caller outside the tests: in
the package (outside its own definition), in perfbench's scripts or in the CI
workflow; and the evaluator, which every solver shares, names no solver.
References are read from the syntax tree of each Python file, so a name in a
docstring or comment is no caller."""
import ast
import inspect
import re
from pathlib import Path

import fogsched

ROOT = Path(__file__).resolve().parents[1]


def _referenced(path: Path) -> list[tuple[str | None, set[str]]]:
    """(name of the top-level function, or None, names and attributes it
    references) for each top-level statement of the Python file at `path`."""
    out = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        out.append((own, names))
    return out


def test_every_exported_function_has_a_caller():
    package = ROOT / "src" / "fogsched"
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    statements = {p: _referenced(p) for p in files}
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    functions = {name: obj for name in fogsched.__all__
                 if inspect.isfunction(obj := getattr(fogsched, name))}
    uncalled = []
    for name, fn in sorted(functions.items()):
        # the module's file in this checkout, wherever fogsched was imported from
        home = package / Path(inspect.getsourcefile(fn)).name
        called = any(
            name in names and not (path == home and own == name)
            for path, chunks in statements.items()
            for own, names in chunks
        ) or re.search(rf"\b{name}\b", workflow)
        if not called:
            uncalled.append(name)
    assert uncalled == []


def test_the_evaluator_names_no_solver():
    # schedule.py is the evaluator every solver shares: no name or attribute
    # in it names a solver, and it imports nothing from the solvers, which
    # own what they keep on its context; docstrings and comments do not count
    tree = ast.parse((ROOT / "src" / "fogsched" / "schedule.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # the module imported from, and each name imported
            modules = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            assert "solvers" not in {m.rpartition(".")[2] for m in modules}, ast.dump(node)
    assert sorted(n for n in named if re.search("greedy|anneal|brute|sa_", n)) == []
