"""Graph-shaped dynamics: edges, weights, comparison predicates."""

from fractions import Fraction as F

import pytest

from graphings.errors import ValidationError
from graphings.graphing import (Edge, GraphingRep, Weight, equivalent,
                                format_graphing, is_deterministic,
                                is_refinement, is_subprobabilistic,
                                parse_graphing)
from graphings.realizer import Realizer
from graphings.space import Atom, Interval, Region, region_of


def test_weight_bounds():
    with pytest.raises(ValidationError):
        Weight(F(3, 2))
    with pytest.raises(ValidationError):
        Weight(F(1, 2), 2)


def test_edge_source_must_be_spatial_and_fat():
    with pytest.raises(ValidationError):
        Edge(region_of(Atom("a", state=1)), 0, 0)
    with pytest.raises(ValidationError):
        Edge(region_of(Atom("a", (Interval(F(0), F(0)),))), 0, 0)


def _two_cells():
    left = Atom("a", (Interval(F(0), F(1, 2)),))
    right = Atom("a", (Interval(F(1, 2), F(1)),))
    return left, right


def _hop(src, dst):
    return Realizer(box_shift=((1, dst.box[0].lo - src.box[0].lo),)
                    if src.box != dst.box else ())


def test_validate_catches_stray_states_and_supports():
    left, right = _two_cells()
    sup = region_of(left, right)
    g = GraphingRep(sup, (0,), (Edge(region_of(left), 0, 1, _hop(left, right)),))
    with pytest.raises(ValidationError):
        g.validate()
    g2 = GraphingRep(region_of(left), (0,),
                     (Edge(region_of(left), 0, 0, _hop(left, right)),))
    with pytest.raises(ValidationError):
        g2.validate()  # image escapes the support


def test_equivalence_is_blind_to_source_splitting():
    left, right = _two_cells()
    sup = region_of(left, right)
    whole = GraphingRep(sup, (0,), (Edge(sup, 0, 0),))
    halves = GraphingRep(sup, (0,), (Edge(region_of(left), 0, 0),
                                     Edge(region_of(right), 0, 0)))
    assert equivalent(whole, halves)
    assert is_refinement(halves, whole)
    assert not equivalent(whole, GraphingRep(sup, (0,), ()))


def test_equivalence_sees_weights_and_realizers():
    left, right = _two_cells()
    sup = region_of(left, right)
    id_edge = GraphingRep(sup, (0,), (Edge(sup, 0, 0),))
    half_p = GraphingRep(sup, (0,), (Edge(sup, 0, 0, weight=Weight(F(1, 2))),))
    moved = GraphingRep(sup, (0,), (Edge(region_of(left), 0, 0, _hop(left, right)),
                                    Edge(region_of(right), 0, 0, _hop(right, left))))
    assert not equivalent(id_edge, half_p)
    assert not equivalent(id_edge, moved)


def test_deterministic_and_subprobabilistic():
    left, right = _two_cells()
    sup = region_of(left, right)
    two_ways = GraphingRep(sup, (0,), (
        Edge(region_of(left), 0, 0, _hop(left, right), Weight(F(1, 2))),
        Edge(region_of(left), 0, 0, Realizer(), Weight(F(1, 2)))))
    assert not is_deterministic(two_ways)
    assert is_subprobabilistic(two_ways)
    det = GraphingRep(sup, (0,), (Edge(region_of(left), 0, 0, _hop(left, right)),))
    assert is_deterministic(det)
    over = GraphingRep(sup, (0,), (
        Edge(region_of(left), 0, 0, Realizer(), Weight(F(2, 3))),
        Edge(region_of(left), 0, 0, _hop(left, right), Weight(F(1, 2)))))
    assert not is_subprobabilistic(over)


def test_overlapping_same_weight_edges_are_not_a_refinement():
    left, right = _two_cells()
    sup = region_of(left, right)
    # two full-weight copies of the same loop is twice the family, not a split
    doubled = GraphingRep(sup, (0,), (Edge(sup, 0, 0), Edge(sup, 0, 0)))
    single = GraphingRep(sup, (0,), (Edge(sup, 0, 0),))
    assert not equivalent(doubled, single)
    assert not is_refinement(doubled, single)


def test_refinement_requires_matching_maps():
    left, right = _two_cells()
    sup = region_of(left, right)
    fine = GraphingRep(sup, (0,), (Edge(region_of(left), 0, 0, _hop(left, right)),
                                   Edge(region_of(right), 0, 0)))
    coarse = GraphingRep(sup, (0,), (Edge(sup, 0, 0),))
    assert not is_refinement(fine, coarse)


def test_dialect_must_match_for_equivalence():
    sup = region_of(Atom("a"))
    assert not equivalent(GraphingRep(sup, (0,), ()), GraphingRep(sup, (0, 1), ()))


def test_graphing_roundtrip_with_states_and_stack():
    left, right = _two_cells()
    sup = region_of(left, right)
    g = GraphingRep(sup, (0, 2), (
        Edge(region_of(left), 0, 2, Realizer(pops=1, pushes="0"), Weight(F(1, 3), 1)),
        Edge(region_of(right), 2, 0, _hop(right, left)),))
    assert parse_graphing(format_graphing(g)) == g
