"""Dialogue engine: path sums, plugging along a cut."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import count, product
from math import lcm
import re
from types import SimpleNamespace

import pytest

from graphings import compiler, execution, linsolve, words
from graphings.automata import accept_probability, trace_enumerate
from graphings.compiler import compile_automaton
from graphings.corpus import by_name, corpus
from graphings.errors import ClosureViolation, TruncationError, ValidationError
from graphings.execution import (CutSpec, ExecOptions, accept_path_sum,
                                 enumerate_paths, plug)
from graphings.generators import (random_det_pair, random_subprob_pair,
                                  split_sources)
from graphings.graphing import (Edge, GraphingRep, Weight, equivalent,
                                format_edges, format_graphing, is_deterministic)
from graphings.measurement import make_test, membership
from graphings.realizer import Realizer
from graphings.space import Atom, Interval, Region, box_get, disjoint_ae
from graphings.words import bang_representation, canonical_representation
from test_space import _refine

ACCEPT_REGION = Region((Atom("a"),))


def _difference(r1: Region, r2: Region) -> Region:
    """Atoms of ``r1`` not covered by ``r2`` (an a.e. set difference)."""
    elementary, (c1, c2) = _refine([r1, r2])
    return Region(tuple(elementary[i] for i in sorted(c1 - c2)))


def cut_between(f: GraphingRep, g: GraphingRep) -> CutSpec:
    """The overlap of two supports as a cut, with the leftovers as rests."""
    shared = Region(tuple(got for a in f.support.atoms for b in g.support.atoms
                          if (got := a.intersect(b)) is not None))
    left = _difference(f.support, shared)
    right = _difference(g.support, shared)
    if not disjoint_ae(left, right):
        raise ValidationError("supports overlap outside the shared cut")
    return CutSpec(shared.sorted(), left.sorted(), right.sorted())

# a tiny hand-built arena: one accept cell on the left, two dialogue
# symbols as the cut, one reject cell on the right
A = Atom("a", (Interval(F(0), F(1, 2)),))
C1 = Atom("0i")
C2 = Atom("0o")
B = Atom("r")

_TO_C1 = Realizer(shift=-4)          # a -> 0i
_C2_TO_C1 = Realizer(shift=-1)       # 0o -> 0i
_C1_TO_C2 = Realizer(shift=1)
_C1_TO_B = Realizer(shift=5)         # 0i -> r


def _pair(f_edges, g_edges, g_dialect=(0,)):
    f = GraphingRep(Region((A, C1, C2)), (0,), tuple(f_edges))
    g = GraphingRep(Region((C1, C2, B)), g_dialect, tuple(g_edges))
    return f, g


def test_cut_between_splits_supports():
    f, g = _pair((), ())
    cut = cut_between(f, g)
    assert cut.cut.measure == 2
    assert cut.left_rest.atoms == (A,)
    assert cut.right_rest.atoms == (B,)


def test_plug_rejects_overlapping_rests():
    # a hand-built cut whose two rests share the accept cell
    f = GraphingRep(Region((A, C1)), (0,), ())
    g = GraphingRep(Region((C1, A)), (0,), ())
    spec = CutSpec(Region((C1,)), Region((A,)), Region((A,)))
    with pytest.raises(ValidationError):
        plug(f, g, spec)


@pytest.mark.parametrize("side", ["left", "right"])
def test_plug_refuses_a_support_that_is_not_its_rest_plus_the_cut(side):
    f, g = _pair((), ())
    cut = cut_between(f, g)
    short = Region((C1,))  # the cut alone, missing its rest
    if side == "left":
        f = GraphingRep(short, f.dialect, ())
    else:
        g = GraphingRep(short, g.dialect, ())
    with pytest.raises(ValidationError, match=f"^{side} support must be"):
        plug(f, g, cut)


def test_plug_composes_a_two_step_corridor():
    f, g = _pair((Edge(Region((A,)), 0, 0, _TO_C1),),
                 (Edge(Region((C1,)), 0, 0, _C1_TO_B),))
    out = plug(f, g, cut_between(f, g))
    assert out.dialect == (0,)
    assert len(out.edges) == 1
    e = out.edges[0]
    assert e.source.atoms == (A,)
    assert e.realizer == Realizer(shift=1)  # a -> r, box untouched
    assert e.weight == Weight(F(1))
    assert is_deterministic(out)


def test_plug_sums_cycles_through_the_cut():
    # g loops back through the cut with probability 1/2 or exits with 1/2;
    # the family masses form a geometric series adding to one
    f, g = _pair((Edge(Region((A,)), 0, 0, _TO_C1),
                  Edge(Region((C2,)), 0, 0, _C2_TO_C1)),
                 (Edge(Region((C1,)), 0, 0, _C1_TO_C2, Weight(F(1, 2))),
                  Edge(Region((C1,)), 0, 0, _C1_TO_B, Weight(F(1, 2)))))
    out = plug(f, g, cut_between(f, g))
    assert len(out.edges) == 1
    e = out.edges[0]
    assert e.weight == Weight(F(1))
    assert e.realizer == Realizer(shift=1)


def test_plug_raises_when_family_mass_exceeds_one():
    f, g = _pair((Edge(Region((A,)), 0, 0, _TO_C1),
                  Edge(Region((C2,)), 0, 0, _C2_TO_C1)),
                 (Edge(Region((C1,)), 0, 0, _C1_TO_C2, Weight(F(2, 3))),
                  Edge(Region((C1,)), 0, 0, _C1_TO_B, Weight(F(2, 3)))))
    with pytest.raises(ClosureViolation):
        plug(f, g, cut_between(f, g))


def _popping_pair():
    # every trip around the cycle pops one more tracked symbol, so the
    # composite stack action grows without bound; g either loops the probe
    # back (1/2) or lets it exit (1/2)
    return _pair((Edge(Region((A,)), 0, 0, _TO_C1),
                  Edge(Region((C2,)), 0, 0,
                       Realizer(shift=-1, pops=1)),),
                 (Edge(Region((C1,)), 0, 0, _C1_TO_C2, Weight(F(1, 2))),
                  Edge(Region((C1,)), 0, 0, _C1_TO_B, Weight(F(1, 2)))))


def test_plug_stack_budget():
    f, g = _popping_pair()
    with pytest.raises(TruncationError):
        plug(f, g, cut_between(f, g), ExecOptions(stack_depth=5))
    out = plug(f, g, cut_between(f, g), ExecOptions(stack_depth=5, strict=False))
    # one family per popped prefix: 3^n sources after n laps, none past the budget
    assert len(out.edges) == sum(3 ** n for n in range(6))
    assert max(e.realizer.pops for e in out.edges) == 5
    assert all(e.weight == Weight(F(1, 2 ** (e.realizer.pops + 1)))
               for e in out.edges)


def test_plug_tiles_an_image_straddling_cells():
    # f moves a|[0,1/2] onto 0i|[1/4,3/4], across the two halves of 0i that
    # g sends on to r and to 0o; only the quarter that reaches r exits
    low = Atom("0i", (Interval(F(0), F(1, 2)),))
    high = Atom("0i", (Interval(F(1, 2), F(1)),))
    f, g = _pair((Edge(Region((A,)), 0, 0,
                       Realizer(shift=-4, box_shift=((1, F(1, 4)),))),),
                 (Edge(Region((low,)), 0, 0, _C1_TO_B),
                  Edge(Region((high,)), 0, 0, _C1_TO_C2)))
    out = plug(f, g, cut_between(f, g))
    assert format_edges(out.edges) == [
        "edge: a|[0,1/4]|-|0 @ 0 @ 0 @ s1 b1:1/4 @ 1"]


def _refined(g: GraphingRep) -> GraphingRep:
    """``g`` with every edge source replaced by its own refinement."""
    return GraphingRep(g.support, g.dialect, tuple(
        replace(e, source=Region(tuple(_refine([e.source])[0])))
        for e in g.edges))


def test_plug_keeps_one_piece_families_as_they_are():
    # the two halves of the image go on to r along different composites,
    # so each family holds one piece, emitted as it is
    low = Atom("0i", (Interval(F(0), F(1, 2)),))
    high = Atom("0i", (Interval(F(1, 2), F(1)),))
    f, g = _pair((Edge(Region((A,)), 0, 0,
                       Realizer(shift=-4, box_shift=((1, F(1, 4)),))),),
                 (Edge(Region((low,)), 0, 0, _C1_TO_B),
                  Edge(Region((high,)), 0, 0,
                       Realizer(shift=5, box_shift=((1, F(-1, 2)),)))))
    out = plug(f, g, cut_between(f, g))
    assert format_edges(out.sorted_edges()) == [
        "edge: a|[0,1/4]|-|0 @ 0 @ 0 @ s1 b1:1/4 @ 1",
        "edge: a|[1/4,1/2]|-|0 @ 0 @ 0 @ s1 b1:-1/4 @ 1"]
    assert format_graphing(_refined(out)) == format_graphing(out)


@pytest.mark.parametrize("make", [random_det_pair, random_subprob_pair])
def test_plugged_sources_are_their_own_refinement(make):
    for seed in range(40):
        out = plug(*make(seed))
        assert format_graphing(_refined(out)) == format_graphing(out), seed


def test_plug_adds_the_masses_of_overlapping_pieces_per_cell():
    # two overlapping sources of g send the probe on to r along the same
    # composite: one family of two pieces, a|[0,1/4] and a|[0,1/2]
    f, g = _pair((Edge(Region((A,)), 0, 0, _TO_C1),),
                 (Edge(Region((Atom("0i", (Interval(F(0), F(1, 4)),)),)), 0, 0,
                       _C1_TO_B, Weight(F(1, 2))),
                  Edge(Region((Atom("0i", (Interval(F(0), F(1, 2)),)),)), 0, 0,
                       _C1_TO_B, Weight(F(1, 2)))))
    out = plug(f, g, cut_between(f, g))
    assert format_edges(out.sorted_edges()) == [
        "edge: a|[0,1/4]|-|0 @ 0 @ 0 @ s1 @ 1",
        "edge: a|[1/4,1/2]|-|0 @ 0 @ 0 @ s1 @ 1/2"]


def test_plug_tracks_the_origin_cylinder_through_a_carved_cut():
    # the cut carved into the three stack cylinders: each landing in the
    # cut fixes one more symbol of the origin's cylinder, which the pops
    # later read
    f, g = _popping_pair()
    cut = cut_between(f, g)
    deep = replace(cut, cut=Region(tuple(Atom(a.sym, a.box, c)
                                         for a in cut.cut.atoms for c in "*01")))
    opts = ExecOptions(stack_depth=5, strict=False)
    assert equivalent(plug(f, g, deep, opts), plug(f, g, cut, opts))
    # the move tables, warm from both plugs, key on one cylinder symbol
    # while the origins' cylinders grow to five; fresh copies start empty
    assert f._move_parts[2] == 1
    for spec in (deep, cut):
        assert (format_graphing(plug(f, g, spec, opts))
                == format_graphing(plug(replace(f), replace(g), spec, opts)))


def _carved(region: Region) -> Region:
    # box pieces that cut across the generators' grid cells
    cuts = (F(0), F(1, 3), F(1, 2), F(1))
    return Region(tuple(Atom(a.sym, (Interval(lo, hi),) + a.box[1:], a.cyl)
                        for a in region.atoms for lo, hi in zip(cuts, cuts[1:])))


@pytest.mark.parametrize("make", [random_det_pair, random_subprob_pair])
def test_plug_does_not_depend_on_how_the_rests_are_carved(make):
    # every rest atom is an origin of the walk, so carving the rests into
    # smaller atoms must give an equivalent graphing
    for seed in range(100):
        f, g, cut = make(seed)
        carved = CutSpec(cut.cut, _carved(cut.left_rest), _carved(cut.right_rest))
        assert equivalent(plug(f, g, carved), plug(f, g, cut)), seed


@pytest.mark.parametrize("make", [random_det_pair, random_subprob_pair])
def test_a_warm_move_table_plugs_as_fresh_graphings(make):
    for seed in range(40):
        f, g, cut = make(seed)
        # the carved rests warm both tables on other origins first
        plug(f, g, CutSpec(cut.cut, _carved(cut.left_rest), _carved(cut.right_rest)))
        assert (format_graphing(plug(f, g, cut))
                == format_graphing(plug(replace(f), replace(g), cut))), seed


def test_plug_of_split_subprobabilistic_sources_is_equivalent():
    # criterion 9 for sub-probabilistic pairs: families that split at
    # different source pieces end on overlapping pieces of one rest atom,
    # and must add up on the cells they share
    for seed in range(100):
        f, g, cut = random_subprob_pair(seed)
        assert equivalent(plug(split_sources(f, seed), g, cut), plug(f, g, cut)), seed


def test_plug_dialect_is_the_sorted_product():
    f, g = _pair((), (), g_dialect=(0, 1))
    out = plug(f, g, cut_between(f, g))
    assert out.dialect == (0, 1)


def test_plug_keeps_unengaged_side_diagonal():
    # f exits without ever consulting g, so the result carries one copy of
    # the exit per g dialect state
    f, g = _pair((Edge(Region((A,)), 0, 0,
                       Realizer(shift=1, box_shift=((1, F(1, 2)),))),),
                 (), g_dialect=(0, 1))
    out = plug(f, g, cut_between(f, g))
    assert len(out.edges) == 2
    assert {(e.in_state, e.out_state) for e in out.edges} == {(0, 0), (1, 1)}


def test_path_sum_of_immediate_accept():
    m = compile_automaton(by_name("retry-half"))
    ps = accept_path_sum(m, canonical_representation(""), ACCEPT_REGION)
    assert ps.total == {"": F(1)}
    assert ps.exact and ps.dropped == 0


def test_path_sum_groups_stack_classes():
    m = compile_automaton(by_name("zeros-then-ones"))
    ps = accept_path_sum(m, canonical_representation("01"), ACCEPT_REGION)
    assert ps.lower_bound == 1
    assert set(ps.total) == {""}


def test_path_sum_reports_truncated_mass():
    m = compile_automaton(by_name("biased-stack-walk"))
    ps = accept_path_sum(m, canonical_representation(""), ACCEPT_REGION,
                         ExecOptions(stack_depth=8))
    assert not ps.exact
    assert 0 < ps.dropped < F(1, 1000)
    deeper = accept_path_sum(m, canonical_representation(""), ACCEPT_REGION,
                             ExecOptions(stack_depth=16))
    assert deeper.dropped < ps.dropped
    assert deeper.lower_bound > ps.lower_bound


@pytest.mark.parametrize("name, word, region, want, dropped", [
    ("even-ones", "0", "a+r", {"": F(2)}, 0),
    ("even-ones", "0", "a-halves", {"": F(1)}, 0),
    ("even-ones", "01", "a-halves", {}, 0),
    ("biased-stack-walk", "", "a+r", {"": F(19680, 9841)}, F(2, 9841)),
    ("biased-stack-walk", "", "a-halves", {"": F(17220, 9841)}, F(2, 9841)),
    ("biased-stack-walk", "01", "a-halves", {"": F(8610, 9841)}, F(1, 9841)),
])
def test_path_sum_from_two_atom_regions(name, word, region, want, dropped):
    regions = {"a+r": Region((Atom("a"), Atom("r"))),
               "a-halves": Region((Atom("a", (Interval(F(0), F(1, 2)),)),
                                   Atom("a", (Interval(F(1, 2), F(1)),))))}
    m = compile_automaton(by_name(name))
    ps = accept_path_sum(m, canonical_representation(word), regions[region],
                         ExecOptions(stack_depth=8))
    assert ps.total == want
    assert ps.dropped == dropped and ps.exact == (dropped == 0)


def _plugged_accept_mass(m, word: str, opts: ExecOptions) -> F:
    """Plug's weight from the marker point at the start state back into ``a``.

    The point has every head on the marker cell and the stack at the bottom
    marker; only composites that leave no pushes behind count, as in the
    path sum's empty class.
    """
    rep = canonical_representation(word)
    marker = Interval(F(0), F(1, rep.cells))  # canonically in the first cell
    out = plug(m.graphing, rep.graphing, cut_between(m.graphing, rep.graphing),
               opts)
    pairs = sorted(product(m.graphing.dialect, rep.graphing.dialect))
    start = pairs.index((m.start_state, 0))
    total = F(0)
    for e in out.edges:
        (src,) = e.source.atoms
        if (e.in_state == start and src.sym == "a" and set(src.cyl) <= {"*"}
                and all(box_get(src.box, c).intersect(marker) == marker
                        for c in range(1, m.automaton.heads + 1))
                and e.realizer.shift == 0 and not e.realizer.pushes):
            total += e.weight.p
    return total


@pytest.mark.parametrize("a", corpus(), ids=lambda a: a.name)
def test_plug_agrees_with_the_path_sum_and_the_oracle(a):
    # three routes to one acceptance probability: plugging the machine into
    # the word, the dialogue path sum, and the configuration oracle
    m = compile_automaton(a)
    opts = ExecOptions(stack_depth=16, strict=not a.stack)
    for word in ("", "1", "01", "110"):
        plugged = _plugged_accept_mass(m, word, opts)
        ps = accept_path_sum(m, canonical_representation(word), ACCEPT_REGION, opts)
        p, oracle_exact = accept_probability(a, word, 16)
        if a.stack:
            assert abs(plugged - p) <= F(1, 10**6), word
            assert abs(ps.lower_bound - p) <= F(1, 10**6), word
        else:
            assert oracle_exact and ps.exact, word
            assert plugged == ps.lower_bound == p, word


def test_plug_matches_the_oracle_at_a_tight_stack_budget():
    # no run of this machine on 01 holds more than four stack symbols
    a = by_name("push-all-pop-all")
    opts = ExecOptions(stack_depth=4, strict=False)
    p, oracle_exact = accept_probability(a, "01", 4)
    assert oracle_exact
    assert _plugged_accept_mass(compile_automaton(a), "01", opts) == p


def test_node_budget_raises_in_both_walks(monkeypatch):
    monkeypatch.setattr(linsolve, "MAX_NODES", 1)
    m = compile_automaton(by_name("even-ones"))
    with pytest.raises(ClosureViolation, match="dialogue walk exceeded"):
        accept_path_sum(m, canonical_representation("01"), ACCEPT_REGION)
    f, g = _pair((Edge(Region((A,)), 0, 0, _TO_C1),),
                 (Edge(Region((C1,)), 0, 0, _C1_TO_B),))
    with pytest.raises(ClosureViolation, match="plug walk exceeded"):
        plug(f, g, cut_between(f, g))


def test_the_largest_corpus_plug_interns_as_many_nodes_as_before(monkeypatch):
    # zigzag-parity against 110 walks 12,684 configurations, seeds included;
    # the source piece each one carries is a function of its other fields,
    # so it adds no node
    m = compile_automaton(by_name("zigzag-parity"))
    rep = canonical_representation("110")
    cut = cut_between(m.graphing, rep.graphing)
    monkeypatch.setattr(linsolve, "MAX_NODES", 12_683)
    with pytest.raises(ClosureViolation, match="plug walk exceeded"):
        plug(m.graphing, rep.graphing, cut)
    monkeypatch.setattr(linsolve, "MAX_NODES", 12_684)
    out = plug(m.graphing, rep.graphing, cut)
    assert out.dialect == tuple(range(6318))
    assert format_edges(out.edges) == [
        "edge: a|[0,1/4]x[0,1/4]x[0,1/4]|*|0 @ 0 @ 6075 @ s1 p(1,2,3) @ 1",
        "edge: r|[0,1/4]x[0,1/4]x[0,1/4]|*|0 @ 0 @ 6075 @ p(1,2,3) @ 1"]


def _oracle_budget(monkeypatch, a, word):
    """Smallest ``linsolve.MAX_NODES`` at which the oracle does not run out.

    The budget is left at that value.
    """
    for n in count(1):
        monkeypatch.setattr(linsolve, "MAX_NODES", n)
        try:
            accept_probability(a, word, 16)
            return n
        except ClosureViolation:
            pass


@pytest.mark.parametrize("word", ["", "0", "0110"])
@pytest.mark.parametrize("name", ["biased-stack-walk", "prob-push-walk",
                                  "push-all-pop-all", "even-ones",
                                  "two-head-palindrome"])
def test_path_sum_interns_exactly_the_oracle_configurations(monkeypatch, name, word):
    # word answers are folded into the machine move, so the walk interns
    # one node per machine configuration, as the oracle does
    a = by_name(name)
    m = compile_automaton(a)
    rep = canonical_representation(word)
    n = _oracle_budget(monkeypatch, a, word)
    accept_path_sum(m, rep, ACCEPT_REGION, ExecOptions(stack_depth=16))
    monkeypatch.setattr(linsolve, "MAX_NODES", n - 1)
    with pytest.raises(ClosureViolation, match="oracle walk exceeded"):
        accept_probability(a, word, 16)
    with pytest.raises(ClosureViolation, match="dialogue walk exceeded"):
        accept_path_sum(m, rep, ACCEPT_REGION, ExecOptions(stack_depth=16))


@pytest.mark.parametrize("change", [
    lambda e: replace(e, realizer=replace(e.realizer, pushes="0")),
    lambda e: replace(e, source=Region(tuple(replace(a, cyl="0")
                                             for a in e.source.atoms))),
], ids=["pushing-edge", "guarded-source"])
def test_answering_side_must_be_stack_free(change):
    m = compile_automaton(by_name("even-ones"))
    g = canonical_representation("01").graphing
    accept_path_sum(m, g, ACCEPT_REGION)  # the original's table is made
    word = replace(g, edges=(change(g.edges[0]),) + g.edges[1:])
    for _ in range(2):  # a refused table is not kept
        with pytest.raises(ValidationError, match="stack-free"):
            accept_path_sum(m, word, ACCEPT_REGION)
    with pytest.raises(ValidationError, match="stack-free"):
        enumerate_paths(m, word)


def test_answering_side_must_have_one_dialect_state():
    m = compile_automaton(by_name("even-ones"))
    g = canonical_representation("01").graphing
    word = replace(g, dialect=(0, 1))
    with pytest.raises(ValidationError, match="one-state dialect"):
        accept_path_sum(m, word, ACCEPT_REGION)
    with pytest.raises(ValidationError, match="one-state dialect"):
        enumerate_paths(m, word)


def test_walks_refuse_a_start_atom_off_the_space():
    # the move table keys an atom without its dialect state
    m = compile_automaton(by_name("even-ones"))
    rep = canonical_representation("")
    probe = Region((Atom("a", state=1),))
    with pytest.raises(ValidationError, match="must be spatial"):
        accept_path_sum(m, rep, probe)
    with pytest.raises(ValidationError, match="must be spatial"):
        enumerate_paths(m, rep, accept_region=probe)
    f = GraphingRep(Region((replace(A, state=1), C1)), (0,), ())
    g = GraphingRep(Region((C1, B)), (0,), ())
    with pytest.raises(ValidationError, match="must be spatial"):
        plug(f, g, cut_between(f, g))


def test_memoised_word_answers_match_a_fresh_representation(monkeypatch):
    # biased-stack-walk asks first and on deep cylinders, so every later
    # machine reads answers kept at the empty cylinder and moved onto its own
    monkeypatch.setattr(words, "_canonical", {})
    # every walk here interns fewer than 100 configurations; an answer left
    # on the wrong cylinder can run away, so it should fail fast
    monkeypatch.setattr(linsolve, "MAX_NODES", 10_000)
    opts = ExecOptions(stack_depth=16)
    machines = sorted(corpus(), key=lambda a: a.name != "biased-stack-walk")
    for a in machines:
        m = compile_automaton(a)
        for word in ("", "1", "01", "110"):
            fresh = bang_representation(word, range(len(word) + 1),
                                        len(word) + 1)
            memo = canonical_representation(word)
            assert (accept_path_sum(m, memo, ACCEPT_REGION, opts)
                    == accept_path_sum(m, fresh, ACCEPT_REGION, opts)), (a.name, word)


def test_enumerated_paths_match_machine_traces():
    for name, word in (("coin-half", ""), ("even-ones", "10"),
                       ("zeros-then-ones", "01")):
        a = by_name(name)
        m = compile_automaton(a)
        want = Counter(w for _, w in trace_enumerate(a, word, max_len=10))
        got = Counter(enumerate_paths(m, canonical_representation(word),
                                      max_edges=20))
        assert got == want, name


def test_enumerate_paths_respects_the_length_bound():
    a = by_name("retry-half")  # loops forever with probability 1/2 per round
    m = compile_automaton(a)
    short = enumerate_paths(m, canonical_representation(""), max_edges=4)
    longer = enumerate_paths(m, canonical_representation(""), max_edges=8)
    assert len(longer) > len(short)


class _CountingEdges(tuple):
    """An edge tuple that counts how often it is scanned."""

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def _count_moves(monkeypatch) -> list:
    """Record every realizer a move computation applies from now on."""
    applied = []
    apply_atom = Realizer.apply_atom
    monkeypatch.setattr(Realizer, "apply_atom",
                        lambda r, atom: applied.append(r) or apply_atom(r, atom))
    return applied


def test_path_sums_reuse_the_machine_edge_index(monkeypatch):
    m = compile_automaton(by_name("two-head-palindrome"))
    rep = canonical_representation("010")
    first = accept_path_sum(m, rep, ACCEPT_REGION)
    walked, word = m.reachable, rep.graphing
    # the machine's table and the word's answers, both filled by the walk
    parts = [g._move_parts for g in (walked, word)]
    assert all(table for table, _, _ in parts)
    sizes = [len(table) for table, _, _ in parts]
    # the representatives are frozen; swap their edges for counting copies
    counted = []
    for g in (m.graphing, walked, word):
        edges = _CountingEdges(g.edges)
        edges.scans = 0
        object.__setattr__(g, "edges", edges)
        counted.append(edges)
    applied = _count_moves(monkeypatch)

    def no_prune(machine):
        raise AssertionError("the machine was pruned again")

    monkeypatch.setattr(compiler, "prune_reachable", no_prune)
    assert accept_path_sum(m, rep, ACCEPT_REGION) == first
    assert applied == []
    assert [edges.scans for edges in counted] == [0, 0, 0]
    assert m.reachable is walked
    assert all(g._move_parts is got for g, got in zip((walked, word), parts))
    assert [len(table) for table, _, _ in parts] == sizes
    assert "_move_parts" not in vars(m.graphing)


def test_second_plug_and_enumeration_compute_no_move(monkeypatch):
    f, g, cut = random_subprob_pair(7)
    m = compile_automaton(by_name("two-head-palindrome"))
    rep = canonical_representation("010")
    first_plug = format_graphing(plug(f, g, cut))
    first_paths = enumerate_paths(m, rep, max_edges=12)
    assert first_paths
    applied = _count_moves(monkeypatch)
    assert format_graphing(plug(f, g, cut)) == first_plug
    assert enumerate_paths(m, rep, max_edges=12) == first_paths
    assert applied == []


# every member region of the three test families: the result intervals
# and the shrinking cubes, bare and under the cylinder ``"*" * n``
def _member_regions(heads: int):
    tests = [make_test("neg"), make_test("pos", heads=heads),
             make_test("prob", heads=heads, epsilon=F(1, 2))]
    return [mb.region for t in tests for mb in t.members]


def test_move_table_answers_match_a_fresh_machine(monkeypatch):
    # a move kept under too short a key can run away; fail fast
    monkeypatch.setattr(linsolve, "MAX_NODES", 10_000)
    for a in corpus():
        queries = [(w, region) for w in ("", "0", "1", "00", "01", "10", "11")
                   for region in _member_regions(a.heads)]
        warm = compile_automaton(a)
        # the warmed machine has run every query, the later ones first
        for w, region in reversed(queries):
            accept_path_sum(warm, canonical_representation(w), region)
        r = compile_automaton(a).reachable
        for w, region in queries:
            # a new representative over the same edges has a move table of
            # its own, so each query starts from an empty one
            fresh = SimpleNamespace(reachable=GraphingRep(r.support, r.dialect, r.edges),
                                    start_state=warm.start_state)
            rep = canonical_representation(w)
            assert (accept_path_sum(warm, rep, region)
                    == accept_path_sum(fresh, rep, region)), (a.name, w, region)


def test_move_table_does_not_grow_with_the_stack_budget(monkeypatch):
    m = compile_automaton(by_name("biased-stack-walk"))

    def size_and_reach(depth: int) -> tuple:
        for w in ("", "0", "01", "0110", "101101"):
            accept_path_sum(m, canonical_representation(w), ACCEPT_REGION,
                            ExecOptions(stack_depth=depth))
        table, _, reach = m.reachable._move_parts
        return len(table), reach

    warm = size_and_reach(8)
    assert warm[0] > 0 and warm[1] == 1
    applied = _count_moves(monkeypatch)
    assert size_and_reach(16) == warm
    assert applied == []


def test_word_side_is_read_at_its_own_dialect_state():
    m = compile_automaton(by_name("even-ones"))
    g = canonical_representation("").graphing
    moved = GraphingRep(g.support, (3,), tuple(
        Edge(e.source, 3, 3, e.realizer, e.weight) for e in g.edges))
    want = accept_path_sum(m, g, ACCEPT_REGION)
    assert want.total == {"": F(1)}
    assert accept_path_sum(m, moved, ACCEPT_REGION) == want


def test_degenerate_accept_region_carries_no_mass():
    # a null probe starts no dialogue, so nothing is dropped at the budget
    m = compile_automaton(by_name("biased-stack-walk"))
    point = Region((Atom("a", (Interval(F(1, 3), F(1, 3)),)),))
    ps = accept_path_sum(m, canonical_representation(""), point,
                         ExecOptions(stack_depth=8))
    assert ps.total == {}
    assert ps.exact and ps.dropped == 0


@pytest.mark.parametrize("kw, field", [
    ({"stack_depth": 1.5}, "stack_depth"), ({"stack_depth": True}, "stack_depth"),
    ({"stack_depth": "3"}, "stack_depth"), ({"strict": 2}, "strict")],
    ids=["float-depth", "bool-depth", "str-depth", "int-strict"])
def test_wrong_typed_options_are_refused_by_name(kw, field):
    with pytest.raises(ValidationError, match=f"option's {field} must be"):
        ExecOptions(**kw)


@pytest.mark.parametrize("depth", [1.5, True, "3"])
def test_the_oracle_refuses_a_stack_budget_that_is_not_an_int(depth):
    with pytest.raises(ValidationError, match="stack_depth must be an int"):
        accept_probability(by_name("biased-stack-walk"), "", depth)


def test_negative_stack_budget_is_rejected():
    with pytest.raises(ValidationError, match="stack depth"):
        ExecOptions(stack_depth=-1)
    assert ExecOptions(stack_depth=0).stack_depth == 0


def test_solve_walk_prunes_a_loop_that_never_exits():
    # the seed splits into a probability-one loop with no exit and an exit;
    # the walk's own predecessor lists prune the loop before the solve
    moves = {"seed": [("node", F(1, 2), "loop"), ("exit", F(1, 2), "out")],
             "loop": [("node", F(1), "loop")]}
    got = execution._solve_walk(["seed"], lambda key: moves[key],
                                "test", 2)
    assert got == [(F(1, 2), "out")]


def test_solve_walk_refuses_a_weight_off_its_denominator():
    moves = {"seed": [("node", F(1, 3), "next")], "next": [("exit", F(1), "out")]}
    with pytest.raises(ClosureViolation,
                       match="weight 1/3 is not over the walk's denominator 2"):
        execution._solve_walk(["seed"], lambda key: moves[key],
                              "test", 2)


def _watch_walks(monkeypatch):
    """Record ``(p, den)`` for every move of every walk: the move's weight
    and the denominator its walk declared."""
    real, seen = execution._solve_walk, []

    def spy(seeds, expand, what, den):
        def watched(key):
            for move in expand(key):
                seen.append((move[1], den))
                yield move
        return real(seeds, watched, what, den)

    monkeypatch.setattr(execution, "_solve_walk", spy)
    return seen


def _watch_plug_pieces(monkeypatch) -> Counter:
    """Check the source piece every plug exit carries against a fresh
    pullback of its atom onto its origin, the one seed atom the piece meets,
    at the piece's cylinder; and count, per move, which rule set the child's
    piece: inherited from the parent, the moved piece of a seed, or pulled
    back at the move."""
    real, pull, rules = execution._solve_walk, Realizer.preimage_atom, Counter()

    def counted(self, piece, constraint):
        rules["pullbacks"] += 1
        return pull(self, piece, constraint)

    def spy(seeds, expand, what, den):
        origins = {key[2] for key in seeds}

        def watched(key):
            moves = expand(key)
            while True:
                pulled = rules["pullbacks"]
                move = next(moves, None)
                if move is None:
                    return
                child = move[2]
                if rules["pullbacks"] > pulled:
                    rules["pulled back"] += 1
                elif child[-1] is key[-1]:
                    rules["inherited"] += 1
                else:
                    assert key[4] == Realizer() and key[2] is key[-1]
                    rules["moved piece"] += 1
                yield move

        out = real(seeds, watched, what, den)
        for _, (_, _, part, _, comp, _, piece) in out:
            [origin] = [o for o in origins if o.intersect(piece) is not None]
            assert piece == pull(comp, Atom(origin.sym, origin.box, piece.cyl),
                                 part)
            rules["exits"] += 1
        return out

    monkeypatch.setattr(execution, "_solve_walk", spy)
    monkeypatch.setattr(Realizer, "preimage_atom", counted)
    return rules


def test_plug_exits_carry_their_pulled_back_piece(monkeypatch):
    rules = _watch_plug_pieces(monkeypatch)
    for seed in range(100):
        for make in (random_det_pair, random_subprob_pair):
            plug(*make(seed))
        f, g, cut = random_det_pair(seed)
        plug(split_sources(f, seed), g, cut)  # the criterion 9 triple
    assert rules["exits"] > 1_000
    # the walk pulls back at few moves, and no exit pulls back on its own
    assert rules["pullbacks"] == rules["pulled back"] < rules["exits"] // 4


@pytest.mark.parametrize("a", [a for a in corpus() if a.stack],
                         ids=lambda a: a.name)
def test_compiled_pushdown_plugs_carry_their_pulled_back_piece(monkeypatch, a):
    rules = _watch_plug_pieces(monkeypatch)
    m = compile_automaton(a)
    for word in ("", "1", "01", "110"):
        _plugged_accept_mass(m, word, ExecOptions(stack_depth=16, strict=False))
    assert rules["exits"] and rules["pullbacks"] == rules["pulled back"], rules


def test_each_rule_for_the_carried_piece_runs(monkeypatch):
    # a|[0,1/4] and a|[1/4,1/2] leave the rest a|[0,1/2] as two narrower
    # pieces of a seed; the first lands on 0i|[0,1/4], which g moves whole
    # into r, and the second on 0i|[1/2,3/4], which g narrows to [1/2,5/8]
    rules = _watch_plug_pieces(monkeypatch)
    quarter, third_eighth = (Atom("a", (Interval(F(lo), F(hi)),))
                             for lo, hi in ((0, F(1, 4)), (F(1, 4), F(1, 2))))
    f, g = _pair((Edge(Region((quarter,)), 0, 0, _TO_C1),
                  Edge(Region((third_eighth,)), 0, 0,
                       Realizer(shift=-4, box_shift=((1, F(1, 4)),)))),
                 (Edge(Region((Atom("0i", (Interval(F(0), F(1, 2)),)),)), 0, 0,
                       _C1_TO_B),
                  Edge(Region((Atom("0i", (Interval(F(1, 2), F(5, 8)),)),)), 0, 0,
                       _C1_TO_B)))
    out = plug(f, g, cut_between(f, g))
    assert format_edges(out.sorted_edges()) == [
        "edge: a|[0,1/4]|-|0 @ 0 @ 0 @ s1 @ 1",
        "edge: a|[1/4,3/8]|-|0 @ 0 @ 0 @ s1 b1:1/4 @ 1"]
    assert rules == Counter({"moved piece": 2, "inherited": 1, "pulled back": 1,
                             "pullbacks": 1, "exits": 2})


def test_plug_runs_one_walk_seeded_at_every_rest_atom_and_pair(monkeypatch):
    real, walks = execution._solve_walk, []

    def counting(seeds, expand, what, den):
        walks.append((what, len(seeds)))
        return real(seeds, expand, what, den)

    monkeypatch.setattr(execution, "_solve_walk", counting)
    m = compile_automaton(by_name("even-ones"))
    rep = canonical_representation("01")
    for f, g, cut in ((m.graphing, rep.graphing, cut_between(m.graphing, rep.graphing)),
                      random_subprob_pair(0)):
        walks.clear()
        plug(f, g, cut)
        rest_atoms = len(cut.left_rest.atoms) + len(cut.right_rest.atoms)
        assert walks == [("plug", rest_atoms * len(f.dialect) * len(g.dialect))]


def test_every_move_is_over_the_denominator_its_walk_declared(monkeypatch):
    seen = _watch_walks(monkeypatch)
    words_up_to_3 = ["".join(w) for n in range(4) for w in product("01", repeat=n)]
    walked = 0
    for a in corpus():
        m = compile_automaton(a)
        for word in words_up_to_3:
            rep = canonical_representation(word)
            seen.clear()
            accept_path_sum(m, rep, ACCEPT_REGION)
            walked += bool(seen)  # reject-now never moves from accept
            assert {den for _, den in seen} <= {
                m.reachable.weight_den * rep.graphing.weight_den}
            assert all(den % p.denominator == 0 for p, den in seen)
    assert walked == 45 * len(words_up_to_3)
    for seed in range(4):
        f, g, cut = random_subprob_pair(seed)
        seen.clear()
        plug(f, g, cut)
        assert {den for _, den in seen} == {lcm(f.weight_den, g.weight_den)}
        assert all(den % p.denominator == 0 for p, den in seen)


@pytest.mark.parametrize("word", ["*", "2", "1*"])
def test_both_routes_refuse_a_word_not_over_01(word):
    a = by_name("even-ones")
    refused = pytest.raises(ValidationError,
                            match=re.escape(f"word must be over 0/1, got {word!r}"))
    with refused:
        accept_probability(a, word)
    with refused:
        trace_enumerate(a, word)
    with refused:
        membership(compile_automaton(a), word, make_test("neg"))
