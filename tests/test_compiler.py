"""Compilation of machines into graph-shaped dynamics."""

from dataclasses import replace
from fractions import Fraction as F
import hashlib
from math import factorial
from types import SimpleNamespace

import pytest

from graphings import cli, compiler, graphing
from graphings.automata import (ACCEPT, REJECT, Automaton, Instruction,
                                parse_automaton)
from graphings.compiler import compile_automaton, format_compiled, prune_reachable
from graphings.corpus import by_name, corpus
from graphings.errors import ValidationError
from graphings.execution import accept_path_sum
from graphings.graphing import (MAX_DIALECT_RANGE, GraphingRep, is_deterministic,
                                is_subprobabilistic, parse_graphing)
from graphings.measurement import make_test, membership
from graphings.realizer import in_microcosm
from graphings.space import Atom, Region
from graphings.words import canonical_representation

ACCEPT_REGION = Region((Atom("a"),))


def test_dialect_enumerates_state_placement_read_last():
    for name in ("even-ones", "two-head-palindrome", "round-robin"):
        a = by_name(name)
        m = compile_automaton(a)
        k = a.heads
        assert len(m.graphing.dialect) == len(a.states) * factorial(k) * 3 ** k * 3
        assert len(set(map(m._dialect.label, m.graphing.dialect))) == \
            len(m.graphing.dialect)


def test_compiled_edges_share_equal_parts():
    # a machine's edges hold few distinct sources, realizers and weights;
    # one copy of each keeps a compiled machine small
    m = compile_automaton(by_name("two-head-palindrome"))
    for field in ("source", "realizer", "weight"):
        parts = [getattr(e, field) for e in m.graphing.edges]
        assert len({id(p) for p in parts}) == len(set(parts)) < len(parts)


def test_start_state_is_initial_and_marker_anchored():
    m = compile_automaton(by_name("even-ones"))
    d = m._dialect.label(m.start_state)
    assert d.state == "init"
    assert d.read == "*" and d.last == "*"
    assert d.coords == (1,)


def test_compiled_realizers_keep_machine_discipline():
    # machine edges never translate intervals; spatial moves belong to words
    m = compile_automaton(by_name("zeros-then-ones"))
    assert all(in_microcosm(e.realizer, "n") for e in m.graphing.edges)
    stack_free = compile_automaton(by_name("two-head-palindrome"))
    assert all(in_microcosm(e.realizer, "m", index=2)
               for e in stack_free.graphing.edges)


def test_determinism_transfers():
    det = compile_automaton(by_name("even-ones"))
    assert is_deterministic(det.graphing)
    prob = compile_automaton(by_name("coin-half"))
    assert not is_deterministic(prob.graphing)
    assert is_subprobabilistic(prob.graphing)


@pytest.mark.parametrize("a", corpus(), ids=lambda a: a.name)
def test_every_corpus_machine_compiles_into_its_microcosm(a):
    # the paper's correspondences: a k-head machine lands in m_k, or in n_k
    # with a stack; it is deterministic exactly when every row is one
    # instruction of probability one, and it is sub-probabilistic
    g = compile_automaton(a).graphing
    kind = "n" if a.stack else "m"
    assert all(in_microcosm(e.realizer, kind, index=a.heads) for e in g.edges)
    assert is_deterministic(g) == all(len(row) == 1 and row[0].prob == 1
                                      for row in a.delta.values())
    assert is_subprobabilistic(g)


def test_provenance_points_back_at_instructions():
    m = compile_automaton(by_name("even-ones"))
    assert m.provenance
    for edge, origins in m.provenance.items():
        for key, instr in origins:
            assert key in m.automaton.delta
            assert instr in m.automaton.delta[key]


def _pruned(m) -> GraphingRep:
    """The whole graphing of ``m`` restricted to the dialect states its start
    state reaches, found depth first: the reference for the reachable
    compile."""
    outgoing: dict = {}
    for e in m.graphing.edges:
        outgoing.setdefault(e.in_state, []).append(e)
    seen = {m.start_state}
    frontier = [m.start_state]
    kept = []
    while frontier:
        s = frontier.pop()
        for e in outgoing.get(s, ()):
            kept.append(e)
            if e.out_state not in seen:
                seen.add(e.out_state)
                frontier.append(e.out_state)
    return GraphingRep(m.graphing.support, tuple(sorted(seen)), tuple(kept))


def test_provenance_is_made_only_when_read():
    m = compile_automaton(by_name("flip-per-one"))
    assert "provenance" not in vars(m)
    _pruned(m)  # reads the whole graphing, not its provenance
    assert "provenance" not in vars(m)
    assert set(m.provenance) == set(m.graphing.edges)
    assert "provenance" in vars(m)


def test_pruned_provenance_is_the_full_one_restricted_to_kept_edges():
    # every kept edge is traced back to the table rows of the whole machine
    full = compile_automaton(by_name("flip-per-one"))
    lean = _pruned(full)
    assert len(lean.edges) < len(full.graphing.edges)
    assert all(full.provenance[e] for e in lean.edges)


def test_invalid_machine_is_rejected():
    with pytest.raises(ValidationError):
        Automaton("bad", 1, (ACCEPT, REJECT, "init"), {
            ("*", "init", None): (Instruction(1, "o", "id", "nowhere", F(1)),)})


def _wide(heads: int, extra_states: int) -> Automaton:
    states = ("init",) + tuple(f"q{i}" for i in range(extra_states)) + (ACCEPT, REJECT)
    return Automaton("wide", heads, states, {
        ("*" * heads, "init", None): (Instruction(1, "o", "id", ACCEPT, F(1)),)})


class Enumerated(Exception):
    pass


def _enumerated(*args):
    raise Enumerated


@pytest.mark.parametrize("heads, extra, size", [
    (8, 0, 3 * factorial(8) * 3 ** 8 * 3),  # about 2.4e9 states
    (4, 15, 18 * factorial(4) * 3 ** 4 * 3),  # 104,976: just over
])
def test_dialect_too_wide_to_write_back_is_refused(heads, extra, size, monkeypatch):
    assert size > MAX_DIALECT_RANGE
    monkeypatch.setattr(compiler, "DialectState", _enumerated)
    with pytest.raises(ValidationError, match=f"dialect of {size} states"):
        compile_automaton(_wide(heads, extra))


def test_widest_dialect_a_file_can_name_is_enumerated(monkeypatch):
    assert 17 * factorial(4) * 3 ** 4 * 3 == 99_144 <= MAX_DIALECT_RANGE
    monkeypatch.setattr(compiler, "DialectState", _enumerated)
    with pytest.raises(Enumerated):
        compile_automaton(_wide(4, 14))


def test_prune_keeps_behaviour():
    for a in corpus():
        full = compile_automaton(a)
        lean = _pruned(full)
        assert len(lean.edges) <= len(full.graphing.edges)
        # walked on every edge or on the pruned ones, the machine answers alike
        whole = SimpleNamespace(reachable=full.graphing, start_state=full.start_state)
        pruned = SimpleNamespace(reachable=lean, start_state=full.start_state)
        for w in ("", "0", "1"):
            rep = canonical_representation(w)
            want = accept_path_sum(whole, rep, ACCEPT_REGION).total
            assert accept_path_sum(full, rep, ACCEPT_REGION).total == want, (a.name, w)
            assert accept_path_sum(pruned, rep, ACCEPT_REGION).total == want, (a.name, w)


def test_immediate_accept_is_the_unit_dialogue():
    m = compile_automaton(by_name("accept-now"))
    ps = accept_path_sum(m, canonical_representation(""), ACCEPT_REGION)
    assert ps.total == {"": F(1)} and ps.exact


def test_coin_splits_the_unit_dialogue():
    m = compile_automaton(by_name("coin-half"))
    ps = accept_path_sum(m, canonical_representation(""), ACCEPT_REGION)
    assert ps.total == {"": F(1, 2)} and ps.exact


def test_compiled_text_carries_provenance_comments():
    m = compile_automaton(by_name("coin-half"))
    text = format_compiled(m)
    assert sum(1 for ln in text.splitlines() if ln.startswith("# rule ")) >= \
        len(m.graphing.edges)
    # comments are transparent to the parser
    parsed = parse_graphing(text)
    assert parsed.dialect == m.graphing.dialect
    assert parsed.support == m.graphing.support.sorted()
    assert parsed.sorted_edges() == m.graphing.sorted_edges()


# the text ``format_compiled`` writes for a stack-free and a pushdown corpus
# machine, pinned as SHA-256 so it stays the same bytes
COMPILED_TEXT_SHA256 = {
    "even-ones": "5e71058ce05386aee2906b8b03437599a79d2bce57edff3f7a89ad46525fbd5c",
    "zeros-then-ones": "bcca782a0bdeaf813513f5efcfe7e1b3be4a6f048632aa8053cfc4e596a74085",
}


@pytest.mark.parametrize("name", sorted(COMPILED_TEXT_SHA256))
def test_compiled_text_formats_each_edge_once(name, monkeypatch):
    formatted = []
    real = graphing.format_edges

    def counting(edges):
        formatted.extend(edges)
        return real(edges)

    monkeypatch.setattr(graphing, "format_edges", counting)
    monkeypatch.setattr(compiler, "format_edges", counting)
    m = compile_automaton(by_name(name))
    text = format_compiled(m)
    assert hashlib.sha256(text.encode()).hexdigest() == COMPILED_TEXT_SHA256[name]
    assert len(formatted) == len(m.graphing.edges)
    assert set(formatted) == set(m.graphing.edges)


# Two machines whose start row no corpus machine has: one that pops the
# bottom marker first (the start row is a wildcard), and a 2-head one whose
# exact ``** | init | *`` row pushes with either head.
POP_MARKER = """\
name: pop-marker
heads: 1
stack: yes
states: accept init reject q
rule: * | init | - -> 1 o pop q 1
rule: * | q | - -> 1 o id accept 1
rule: 0 | q | - -> 1 o id q 1
rule: 1 | q | - -> 1 o id q 1
"""
START_PUSH = """\
name: start-push
heads: 2
stack: yes
states: accept init reject q
rule: ** | init | * -> 2 i push_* q 1/2 ; 1 o push_* q 1/3
rule: ** | q | - -> 1 o pop q 1/2 ; 2 o id reject 1/2
rule: ** | q | * -> 2 i push_* q 1
rule: ** | q | 0 -> 1 o id accept 1
rule: 0* | q | - -> 1 i push_0 q 2/3
"""
HAND_BUILT = {"pop-marker": POP_MARKER, "start-push": START_PUSH}

# SHA-256 over each machine's edges, start state, compiled text and reachable
# edges, pinned so that however the edges are built they stay the same bytes
COMPILED_SHA256 = {
    "corpus": "4980b164844c4a351961eab4f05d56a13b4fd6e86e0ada65eee1445d5101fb20",
    "pop-marker": "325bd3b9c1b52cc6abb228aae45fa554599b30bf085737b2418d0d134c8f5828",
    "start-push": "6fe0b83fecae4daa9fd157870db532af40a3884629b4057ff0aaf1cf8a27f0ac",
}


@pytest.mark.parametrize("name", sorted(COMPILED_SHA256))
def test_compiled_machines_are_pinned(name):
    machines = corpus() if name == "corpus" else [parse_automaton(HAND_BUILT[name])]
    digest = hashlib.sha256()
    for a in machines:
        m = compile_automaton(a)
        for part in (repr(m.graphing.edges), repr(m.start_state),
                     format_compiled(m), repr(m.reachable.edges)):
            digest.update(part.encode())
    assert digest.hexdigest() == COMPILED_SHA256[name]


def _whole_emissions(monkeypatch) -> list:
    """Record the machine of every pass that emits a whole graphing."""
    whole = []
    emit = compiler._emit_edges

    def counting(a, dialect, provenance=None, reachable=False):
        if not reachable:
            whole.append(a.name)
        return emit(a, dialect, provenance, reachable)

    monkeypatch.setattr(compiler, "_emit_edges", counting)
    return whole


@pytest.mark.parametrize("a", [*corpus(), *map(parse_automaton, HAND_BUILT.values())],
                         ids=lambda a: a.name)
def test_reachable_compile_is_the_pruned_whole_graphing(a):
    # emitted from the start state, the reachable graphing is the whole
    # one pruned, edge for edge and in the same order
    m = compile_automaton(a)
    full = compile_automaton(a)
    lean = _pruned(full)
    assert "graphing" not in vars(m)
    assert m.reachable == lean
    assert repr(m.reachable.edges) == repr(lean.edges)
    assert m.reachable.dialect == lean.dialect
    assert m.start_state == full.start_state
    # the harness's prune is a fresh compile that names its reachable graphing
    shim = prune_reachable(full)
    assert shim.graphing is shim.reachable and shim.reachable == lean


def test_walks_never_build_the_whole_graphing():
    a = by_name("two-head-palindrome")
    m = compile_automaton(a)
    accept_path_sum(m, canonical_representation("010"), ACCEPT_REGION)
    for family in ("neg", "pos", "prob"):
        membership(m, "01", make_test(family, heads=a.heads,
                                      epsilon=F(1, 2) if family == "prob" else None))
    assert "graphing" not in vars(m) and "provenance" not in vars(m)


@pytest.mark.parametrize("argv", [["accept", "two-head-palindrome", "010"],
                                  ["membership", "two-head-palindrome", "0", "01"],
                                  ["dump", "biased-stack-walk", "--word", "01"]])
def test_cli_walks_never_build_the_whole_graphing(argv, monkeypatch, capsys):
    whole = _whole_emissions(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert whole == []


@pytest.mark.parametrize("argv", [["dump", "zeros-then-ones", "--graphing"],
                                  ["compile", "zeros-then-ones", "--out", "x.graphing"]])
def test_compiled_text_emits_the_whole_machine_once(argv, tmp_path, monkeypatch,
                                                     capsys):
    # one recording pass builds both the whole graphing and its provenance
    monkeypatch.chdir(tmp_path)
    whole = _whole_emissions(monkeypatch)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert whole == ["zeros-then-ones"]
    m = compile_automaton(by_name("zeros-then-ones"))
    text = format_compiled(m)
    assert whole == ["zeros-then-ones"] * 2
    assert hashlib.sha256(text.encode()).hexdigest() == \
        COMPILED_TEXT_SHA256["zeros-then-ones"]
    assert set(m.provenance) == set(m.graphing.edges)
    assert len(whole) == 2  # reading both afterwards emits nothing more


def test_a_compile_and_a_path_sum_emit_only_the_reachable_edges(monkeypatch):
    # rotation-parity has 17,606 edges, of which its start state reaches
    # 1,930; counts repeat exactly where times do not
    made = []
    edge = compiler._edge
    monkeypatch.setattr(compiler, "_edge", lambda *args: made.append(1) or edge(*args))
    m = compile_automaton(by_name("rotation-parity"))
    accept_path_sum(m, canonical_representation("0110"), ACCEPT_REGION)
    assert len(made) == len(m.reachable.edges) == 1_930
    assert len(m.graphing.edges) == 17_606


def test_a_replaced_machine_walks_a_table_that_starts_empty():
    m = compile_automaton(by_name("two-head-palindrome"))
    rep = canonical_representation("010")
    first = accept_path_sum(m, rep, ACCEPT_REGION)
    assert m.reachable._move_parts[0]
    fresh = replace(m)
    assert fresh.reachable == m.reachable and fresh.reachable is not m.reachable
    assert "_move_parts" not in vars(fresh.reachable)
    assert fresh.start_state == m.start_state
    assert accept_path_sum(fresh, rep, ACCEPT_REGION) == first
    assert "graphing" not in vars(fresh)
