"""Word graphs and their interval representations."""

from fractions import Fraction as F

import pytest

from graphings import words
from graphings.errors import ValidationError
from graphings.graphing import is_deterministic
from graphings.space import Interval
from graphings.words import (bang_representation, canonical_representation,
                             rep_family, word_graph)


def test_word_graph_positions_and_letters():
    g = word_graph("01")
    assert g.positions == 3
    assert [g.letter(i) for i in range(3)] == ["*", "0", "1"]
    assert g.letter(3) == "*"  # wraps


def test_word_graph_edge_counts():
    assert len(list(word_graph("").edges())) == 2
    assert len(list(word_graph("0").edges())) == 4
    assert len(list(word_graph("01").edges())) == 6


def test_empty_word_edges_loop_on_the_marker():
    edges = list(word_graph("").edges())
    assert (("r", 0), ("*", "o", 0), ("*", "i", 0)) in edges
    assert (("l", 0), ("*", "i", 0), ("*", "o", 0)) in edges


def test_canonical_representation_shape():
    rep = canonical_representation("01")
    assert rep.cells == 3
    assert rep.injection == (0, 1, 2)
    # the marker's outgoing right edge starts on its cell
    assert rep.graphing.edges[0].source.atoms[0].box == (Interval(F(0), F(1, 3)),)
    assert len(rep.graphing.edges) == 6
    assert rep.graphing.dialect == (0,)
    assert is_deterministic(rep.graphing)


def test_canonical_representation_is_built_once_per_word(monkeypatch):
    monkeypatch.setattr(words, "_canonical", {})
    rep = canonical_representation("01")
    assert canonical_representation("01") is rep
    assert rep == bang_representation(word_graph("01"), range(3), 3)
    with pytest.raises(ValidationError):
        canonical_representation("012")
    assert list(words._canonical) == ["01"]


def test_canonical_memo_drops_the_oldest_word_first(monkeypatch):
    monkeypatch.setattr(words, "_canonical", {})
    monkeypatch.setattr(words, "MEMO_WORDS", 2)
    first = canonical_representation("0")
    second = canonical_representation("1")
    canonical_representation("01")
    assert list(words._canonical) == ["1", "01"]
    assert canonical_representation("1") is second
    assert canonical_representation("0") is not first
    assert list(words._canonical) == ["01", "0"]


def test_representation_edges_preserve_measure():
    rep = canonical_representation("10")
    for e in rep.graphing.edges:
        assert e.image().measure == e.source.measure


def test_injection_must_be_one_to_one_and_fit():
    g = word_graph("0")
    with pytest.raises(ValidationError):
        bang_representation(g, (0, 0))
    with pytest.raises(ValidationError):
        bang_representation(g, (0,))
    with pytest.raises(ValidationError, match="need at least 2 cells, got 1"):
        bang_representation(g, (0, 1), cells=1)
    with pytest.raises(ValidationError, match="cells must lie in 0..2"):
        bang_representation(g, (0, 3), cells=3)


def test_rep_family_is_every_injection():
    fam = rep_family("0", 2)  # 2 positions into 3 cells
    assert len(fam) == 6
    assert len({r.injection for r in fam}) == 6
    with pytest.raises(ValidationError):
        rep_family("01", 1)


def test_scattered_injection_still_deterministic():
    rep = bang_representation(word_graph("11"), (4, 0, 2), cells=5)
    assert is_deterministic(rep.graphing)
    # the marker's outgoing right edge starts on its cell
    assert rep.graphing.edges[0].source.atoms[0].box == (Interval(F(4, 5), F(1)),)
