"""Seeded generators and package invariants: both must hold under ``python -O``."""

import ast
from pathlib import Path

import pytest

from graphings import generators
from graphings.errors import ValidationError
from graphings.graphing import Edge, GraphingRep

PACKAGE = Path(generators.__file__).parent
_ORIGINAL_PAIR = generators._pair


def _doubled_first_edge(seed, weights_for):
    # every point of the first source now carries two more probability-one
    # edges: neither deterministic nor of mass at most one
    f, g, cut = _ORIGINAL_PAIR(seed, weights_for)
    e = f.edges[0]
    twin = Edge(e.source, e.in_state, e.out_state, e.realizer)
    return GraphingRep(f.support, f.dialect, f.edges + (twin, twin)), g, cut


@pytest.mark.parametrize("make", [generators.random_det_pair,
                                  generators.random_subprob_pair])
def test_broken_generated_pair_raises(monkeypatch, make):
    seed = next(s for s in range(50) if make(s)[0].edges)
    monkeypatch.setattr(generators, "_pair", _doubled_first_edge)
    with pytest.raises(ValidationError):
        make(seed)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_enforces_invariants_without_assert(path):
    # python -O strips assert statements, so invariants must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


def _names_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # names looked up with getattr, as the tracer does


def test_every_package_definition_is_referenced():
    repo = Path(__file__).resolve().parents[1]
    referenced = {name for top in ("src", "tests", "perfbench")
                  for path in (repo / top).rglob("*.py")
                  for name in _names_referenced(path)}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("__")
                    and node.name not in referenced):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == [], f"defined but never referenced: {unused}"


def test_every_package_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue  # re-exports are the package's interface
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == [], f"imported but never used: {unused}"


# The oracle and the dialogue engine share only the solver, so their
# agreement is a checked fact; the measurement sits on the engine alone.
_ROUTE_BANS = {"execution.py": {"automata"},
               "automata.py": {"execution", "measurement"}}


@pytest.mark.parametrize("name", sorted(_ROUTE_BANS))
def test_the_two_routes_import_nothing_from_each_other(name):
    path = PACKAGE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    crossings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules = ([node.module] if node.module
                       else [alias.name for alias in node.names])
            if _ROUTE_BANS[name] & set(modules):
                crossings += [f"{name}:{node.lineno} {alias.name}"
                              for alias in node.names]
    assert crossings == [], f"one route imports the other: {crossings}"
