"""Seeded generators and package invariants: both must hold under ``python -O``."""

import ast
from fractions import Fraction
from pathlib import Path
import random

import pytest

from graphings import generators
from graphings.errors import ValidationError
from graphings.execution import CutSpec
from graphings.graphing import Edge, GraphingRep, Weight, format_graphing
from graphings.realizer import Realizer
from graphings.space import Atom, Interval, Region, sym_index

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


# --- reference: every edge built and checked on its own -----------------------
#
# The generators share one object per distinct cell, hop and weight; this
# reference builds and checks every edge's parts afresh from the same draws.


def _ref_cell(sym, i, grid):
    return Atom(sym, (Interval(Fraction(i, grid), Fraction(i + 1, grid)),))


def _ref_hop(src, dst):
    delta = dst.box[0].lo - src.box[0].lo
    return Realizer(shift=sym_index(dst.sym) - sym_index(src.sym),
                    box_shift=((1, delta),) if delta else ())


def _ref_det_weights(rng):
    return [(Fraction(1), 0)] if rng.random() < 0.85 else []


def _ref_subprob_weights(rng):
    roll = rng.random()
    if roll < 0.2:
        return []
    if roll < 0.65:
        return [(rng.choice((Fraction(1), Fraction(1, 2), Fraction(1, 3),
                             Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))),
                 rng.choice((0, 0, 1)))]
    a = Fraction(1, rng.choice((2, 3, 4)))
    b = Fraction(1, rng.choice((4, 6, 8)))
    return [(a, 0), (b, rng.choice((0, 1)))]


def _ref_wire(rng, sources, targets, dialect, weights_for):
    return [Edge(Region((src,)), in_state, rng.choice(dialect), _ref_hop(src, dst),
                 Weight(p, flag))
            for src in sources for in_state in dialect
            for p, flag in weights_for(rng)
            for dst in [rng.choice(targets)]]


def _ref_pair(seed, weights_for):
    rng = random.Random(seed)
    grid = rng.choice((2, 3, 4))
    cut_syms = rng.choice(generators._CUT_CHOICES)
    v_cells = [_ref_cell("a", i, grid) for i in range(grid)]
    c_cells = [_ref_cell(s, i, grid) for s in cut_syms for i in range(grid)]
    w_cells = [_ref_cell("r", i, grid) for i in range(grid)]
    cut = CutSpec(Region(tuple(Atom(s) for s in cut_syms)),
                  Region((Atom("a"),)), Region((Atom("r"),)))
    df = tuple(range(rng.choice((1, 1, 2))))
    dg = tuple(range(rng.choice((1, 1, 2))))
    all_cells = v_cells + c_cells + w_cells
    f_edges = _ref_wire(rng, v_cells + c_cells, all_cells, df, weights_for)
    g_edges = _ref_wire(rng, c_cells + w_cells, all_cells, dg, weights_for)
    f = GraphingRep(Region(cut.left_rest.atoms + cut.cut.atoms), df, tuple(f_edges))
    g = GraphingRep(Region(cut.cut.atoms + cut.right_rest.atoms), dg, tuple(g_edges))
    return f, g, cut


def _ref_split_sources(g, seed):
    rng = random.Random(seed)
    out = []
    for e in g.sorted_edges():
        atoms = list(e.source.atoms)
        if rng.random() < 0.4 or len(atoms) > 1:
            out.append(e)
            continue
        a = atoms[0]
        if rng.random() < 0.5 and a.box:
            iv = a.box[0]
            mid = (iv.lo + iv.hi) / 2
            halves = [Atom(a.sym, (Interval(iv.lo, mid),) + a.box[1:], a.cyl),
                      Atom(a.sym, (Interval(mid, iv.hi),) + a.box[1:], a.cyl)]
        else:
            halves = [Atom(a.sym, a.box, a.cyl + c) for c in "*01"]
        out.extend(Edge(Region((piece,)), e.in_state, e.out_state, e.realizer,
                        e.weight) for piece in halves)
    return GraphingRep(g.support, g.dialect, tuple(out))


def _validation(g):
    try:
        g.validate()
    except ValidationError as exc:
        return str(exc)
    return "valid"


def _assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)
    assert format_graphing(got) == format_graphing(want)
    # most generated graphings map some cell into the other side's rest,
    # outside their own support: both constructions must say so alike
    assert _validation(got) == _validation(want)


def _assert_shared(*graphings):
    # one source region per cell, one object per equal hop and weight
    parts = {}
    for g in graphings:
        for e in g.edges:
            [atom] = e.source.atoms
            for key, part in ((atom, e.source), (e.realizer, e.realizer),
                              (e.weight, e.weight)):
                assert parts.setdefault(key, part) is part, key


@pytest.mark.parametrize("make, weights_for", [
    (generators.random_det_pair, _ref_det_weights),
    (generators.random_subprob_pair, _ref_subprob_weights)],
    ids=["det", "subprob"])
def test_generated_pairs_match_the_per_edge_reference(make, weights_for):
    for seed in range(200):
        f, g, cut = make(seed)
        ref_f, ref_g, ref_cut = _ref_pair(seed, weights_for)
        assert cut == ref_cut
        _assert_same(f, ref_f)
        _assert_same(g, ref_g)
        fine = generators.split_sources(f, seed)
        _assert_same(fine, _ref_split_sources(ref_f, seed))
        # the generated pair on one grid, and separately its split
        _assert_shared(f, g)
        _assert_shared(fine)


def test_split_sources_refuses_a_source_that_is_no_grid_cell():
    f, _, _ = generators.random_det_pair(0)
    e = f.edges[0]
    third = Region((Atom("a", (Interval(Fraction(0), Fraction(2, 3)),)),))
    odd = GraphingRep(f.support, f.dialect,
                      (Edge(third, e.in_state, e.out_state, e.realizer),) * 9)
    with pytest.raises(ValidationError, match="grid cells"):
        generators.split_sources(odd, 0)


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


# Package definitions that only tests read, each kept for a stated reason.
_READ_ONLY_BY_TESTS = {
    "trace_enumerate": "criterion 2 matches the oracle's traces to the engine's paths",
    "enumerate_paths": "criterion 2 matches the engine's paths to the oracle's traces",
    "in_microcosm": "the paper's m_k/n_k membership, checked on every compiled machine",
    "Atom.measure": "criterion 8 checks that cylinders measure 3^-n",
}

# Methods whose name another class also defines, each with the file that
# reads it; a bare ``.name`` could belong to either class.
_SHARED_NAME_READERS = {
    "Atom.intersect": "src/graphings/execution.py",
    "CompiledMachine.graphing": "src/graphings/cli.py",
    "Interval.intersect": "src/graphings/space.py",
    "PathSum.exact": "src/graphings/cli.py",
    "Region.measure": "perfbench/workloads.py",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_package_definition_is_referenced():
    # only the program and the harness count as readers: a definition that
    # only tests read belongs in the test that reads it
    repo = Path(__file__).resolve().parents[1]
    readers = [*PACKAGE.glob("*.py"), *(repo / "perfbench").rglob("*.py")]
    referenced = {name for path in readers for name in _names_referenced(path)}
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    # a method whose name another class defines too, as a method or a field,
    # is met by that class's readers as well, so it counts only as listed
    owners: dict = {}  # member name -> the classes that define it
    methods: dict = {}  # id of a method's node -> "Class.name"
    for tree in trees.values():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, _DEFS):
                    name = item.name
                    methods[id(item)] = f"{cls.name}.{name}"
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                owners.setdefault(name, set()).add(cls.name)
    shared = {q for q in methods.values() if len(owners[q.split(".")[1]]) > 1}
    assert set(_SHARED_NAME_READERS) <= shared
    for qualified, reader in _SHARED_NAME_READERS.items():
        attrs = {node.attr for node in ast.walk(ast.parse((repo / reader).read_text(
            encoding="utf-8"))) if isinstance(node, ast.Attribute)}
        assert qualified.split(".")[1] in attrs, f"{reader} never reads {qualified}"
    unused = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, _DEFS) or node.name.startswith("__"):
                continue
            qualified = methods.get(id(node), node.name)
            read = (qualified in _SHARED_NAME_READERS if qualified in shared
                    else node.name in referenced)
            if not read and qualified not in _READ_ONLY_BY_TESTS:
                unused.append(f"{path.name}:{node.lineno} {qualified}")
    assert unused == [], f"defined but never referenced: {unused}"


def test_every_package_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
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


def test_the_package_init_is_its_docstring_only():
    # every reader imports the module that defines a name, so each
    # definition is reached one way
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree)


# The oracle and the dialogue engine share only the solver, so their
# agreement is a checked fact; the measurement sits on the engine alone.
# The engine side reads a machine's rule table, never the oracle's private
# table built from it, nor the oracle's step.
_ORACLE_PRIVATE = {"_steps", "_den", "_step_table", "_expand"}
_ROUTE_BANS = {"execution.py": {"automata"} | _ORACLE_PRIVATE,
               "automata.py": {"execution", "measurement"},
               **{name: _ORACLE_PRIVATE for name in
                  ("compiler.py", "measurement.py", "words.py", "generators.py")}}


@pytest.mark.parametrize("name", sorted(_ROUTE_BANS))
def test_the_two_routes_import_nothing_from_each_other(name):
    path = PACKAGE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    banned = _ROUTE_BANS[name]
    crossings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules = ([node.module] if node.module
                       else [alias.name for alias in node.names])
            if banned & {*modules, *(alias.name for alias in node.names)}:
                crossings += [f"{name}:{node.lineno} {alias.name}"
                              for alias in node.names]
    crossings += sorted(banned & set(_names_referenced(path)))
    assert crossings == [], f"one route reaches into the other: {crossings}"
