"""Graph-shaped dynamics: edges, weights, comparison predicates."""

from dataclasses import fields, replace
from fractions import Fraction as F
from functools import reduce
from math import gcd

import pytest

from graphings import graphing
from graphings.errors import ValidationError
from graphings.generators import random_subprob_pair
from graphings.graphing import (Edge, GraphingRep, Weight, equivalent,
                                format_graphing, is_deterministic,
                                is_refinement, is_subprobabilistic,
                                parse_graphing)
from graphings.realizer import Realizer
from graphings.space import Atom, Interval, Region
from graphings.words import canonical_representation


def test_weight_bounds():
    with pytest.raises(ValidationError):
        Weight(F(3, 2))
    with pytest.raises(ValidationError):
        Weight(F(1, 2), 2)


def test_edge_source_must_be_spatial_and_fat():
    with pytest.raises(ValidationError):
        Edge(Region((Atom("a", state=1),)), 0, 0)
    with pytest.raises(ValidationError):
        Edge(Region((Atom("a", (Interval(F(0), F(0)),)),)), 0, 0)


def _two_cells():
    left = Atom("a", (Interval(F(0), F(1, 2)),))
    right = Atom("a", (Interval(F(1, 2), F(1)),))
    return left, right


def _hop(src, dst):
    return Realizer(box_shift=((1, dst.box[0].lo - src.box[0].lo),)
                    if src.box != dst.box else ())


def test_validate_catches_stray_states_and_supports():
    left, right = _two_cells()
    sup = Region((left, right))
    g = GraphingRep(sup, (0,), (Edge(Region((left,)), 0, 1, _hop(left, right)),))
    with pytest.raises(ValidationError):
        g.validate()
    g2 = GraphingRep(Region((left,)), (0,),
                     (Edge(Region((left,)), 0, 0, _hop(left, right)),))
    with pytest.raises(ValidationError):
        g2.validate()  # image escapes the support


def _shared_edges():
    """The two cell sources, and a thousand edges sharing them and two
    realizer objects, as parsed, compiled and generated edges do."""
    left, right = _two_cells()
    sources = Region((left,)), Region((right,))
    hops = _hop(left, right), _hop(right, left)
    return sources, tuple(Edge(sources[i % 2], 0, 0, hops[i % 2])
                          for i in range(1000))


def test_validate_checks_each_distinct_part_once(monkeypatch):
    left, right = _two_cells()
    _, edges = _shared_edges()
    g = GraphingRep(Region((left, right)), (0,),
                    edges + (Edge(Region((left,)), 0, 0),))
    calls = []
    real = graphing.subset_ae
    monkeypatch.setattr(graphing, "subset_ae",
                        lambda r1, r2: calls.append(r1) or real(r1, r2))
    assert g.validate() is g
    # three source objects in the support, and the images of three
    # (source, realizer) pairs: the two shared ones and the last edge's
    assert len(calls) == 3 + 3


@pytest.mark.parametrize("late", ["image", "source", "pops"])
def test_validate_fails_on_a_late_edge_with_new_parts(late):
    left, right = _two_cells()
    sources, edges = _shared_edges()
    late_edge = {
        # a shared source, with a realizer no earlier edge pairs it with
        "image": Edge(sources[0], 0, 0, Realizer(shift=1)),
        "source": Edge(Region((Atom("r", (Interval(F(0), F(1, 2)),)),)), 0, 0),
        "pops": Edge(sources[1], 0, 0, Realizer(pops=1)),
    }[late]
    g = GraphingRep(Region((left, right)), (0,), edges + (late_edge,))
    with pytest.raises(ValidationError, match=late):
        g.validate()


def test_equivalence_is_blind_to_source_splitting():
    left, right = _two_cells()
    sup = Region((left, right))
    whole = GraphingRep(sup, (0,), (Edge(sup, 0, 0),))
    halves = GraphingRep(sup, (0,), (Edge(Region((left,)), 0, 0),
                                     Edge(Region((right,)), 0, 0)))
    assert equivalent(whole, halves)
    assert is_refinement(halves, whole)
    assert not equivalent(whole, GraphingRep(sup, (0,), ()))


def test_equivalence_sees_weights_and_realizers():
    left, right = _two_cells()
    sup = Region((left, right))
    id_edge = GraphingRep(sup, (0,), (Edge(sup, 0, 0),))
    half_p = GraphingRep(sup, (0,), (Edge(sup, 0, 0, weight=Weight(F(1, 2))),))
    moved = GraphingRep(sup, (0,), (Edge(Region((left,)), 0, 0, _hop(left, right)),
                                    Edge(Region((right,)), 0, 0, _hop(right, left))))
    assert not equivalent(id_edge, half_p)
    assert not equivalent(id_edge, moved)


def test_deterministic_and_subprobabilistic():
    left, right = _two_cells()
    sup = Region((left, right))
    two_ways = GraphingRep(sup, (0,), (
        Edge(Region((left,)), 0, 0, _hop(left, right), Weight(F(1, 2))),
        Edge(Region((left,)), 0, 0, Realizer(), Weight(F(1, 2)))))
    assert not is_deterministic(two_ways)
    assert is_subprobabilistic(two_ways)
    det = GraphingRep(sup, (0,), (Edge(Region((left,)), 0, 0, _hop(left, right)),))
    assert is_deterministic(det)
    over = GraphingRep(sup, (0,), (
        Edge(Region((left,)), 0, 0, Realizer(), Weight(F(2, 3))),
        Edge(Region((left,)), 0, 0, _hop(left, right), Weight(F(1, 2)))))
    assert not is_subprobabilistic(over)


def test_overlapping_same_weight_edges_are_not_a_refinement():
    left, right = _two_cells()
    sup = Region((left, right))
    # two full-weight copies of the same loop is twice the family, not a split
    doubled = GraphingRep(sup, (0,), (Edge(sup, 0, 0), Edge(sup, 0, 0)))
    single = GraphingRep(sup, (0,), (Edge(sup, 0, 0),))
    assert not equivalent(doubled, single)
    assert not is_refinement(doubled, single)


def test_refinement_requires_matching_maps():
    left, right = _two_cells()
    sup = Region((left, right))
    fine = GraphingRep(sup, (0,), (Edge(Region((left,)), 0, 0, _hop(left, right)),
                                   Edge(Region((right,)), 0, 0)))
    coarse = GraphingRep(sup, (0,), (Edge(sup, 0, 0),))
    assert not is_refinement(fine, coarse)


def test_dialect_must_match_for_equivalence():
    sup = Region((Atom("a"),))
    assert not equivalent(GraphingRep(sup, (0,), ()), GraphingRep(sup, (0, 1), ()))


def test_graphing_roundtrip_with_states_and_stack():
    left, right = _two_cells()
    sup = Region((left, right))
    g = GraphingRep(sup, (0, 2), (
        Edge(Region((left,)), 0, 2, Realizer(pops=1, pushes="0"), Weight(F(1, 3), 1)),
        Edge(Region((right,)), 2, 0, _hop(right, left)),))
    assert parse_graphing(format_graphing(g)) == g


def _weighted_graphings():
    yield GraphingRep(Region((Atom("a"),)))  # no edges: weight_den is 1
    for seed in range(6):
        yield from random_subprob_pair(seed)[:2]
    for word in ("", "0110"):
        yield canonical_representation(word).graphing
    a1, a2 = _two_cells()
    yield GraphingRep(Region((a1, a2)), (0,), (
        Edge(Region((a1,)), 0, 0, weight=Weight(F(1, 6))),
        Edge(Region((a1,)), 0, 0, weight=Weight(F(3, 4), 1)),
        Edge(Region((a2,)), 0, 0, weight=Weight(F(2, 9)))))


def test_weight_den_is_the_lcm_of_the_edge_denominators():
    for g in _weighted_graphings():
        want = reduce(lambda x, y: x * y // gcd(x, y),
                      (e.weight.p.denominator for e in g.edges), 1)
        assert g.weight_den == want
        assert all((e.weight.p * want).denominator == 1 for e in g.edges)
    assert g.weight_den == 36


def test_weight_den_stays_out_of_equality_hash_and_text():
    assert [f.name for f in fields(GraphingRep)] == ["support", "dialect", "edges"]
    for g in map(replace, _weighted_graphings()):  # copies with no cache
        fresh = replace(g)
        text, key, shown = format_graphing(g), hash(g), repr(g)
        assert "weight_den" not in vars(g)
        g.weight_den
        assert "weight_den" in vars(g) and "weight_den" not in vars(fresh)
        assert g == fresh and hash(g) == hash(fresh) == key
        assert format_graphing(g) == format_graphing(fresh) == text
        assert repr(g) == shown and "weight_den" not in shown
