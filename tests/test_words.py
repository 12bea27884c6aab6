"""Interval representations of marked binary words."""

from fractions import Fraction as F
import hashlib
from itertools import combinations, permutations, product

import pytest

from graphings import words
from graphings.errors import ValidationError
from graphings.graphing import is_deterministic
from graphings.space import Interval
from graphings.words import bang_representation, canonical_representation


def rep_family(word: str, cells_minus_one: int) -> list:
    """Every representation of ``word`` into cells 0..``cells_minus_one``."""
    positions = len(word) + 1
    if cells_minus_one + 1 < positions:
        raise ValidationError(
            f"word of length {len(word)} needs at least {positions} cells")
    return [bang_representation(word, injection, cells_minus_one + 1)
            for injection in permutations(range(cells_minus_one + 1), positions)]


# SHA-256 of the representations below, pinned so that however they are
# built they stay the same bytes
REPRESENTATIONS_SHA256 = (
    "62ad3879b5b53490e1a6af15f8053128f878437a007ea9498fa2ea1de054225f")


def test_representations_are_pinned():
    # every injection on len + 1 cells, and every order-keeping one with the
    # marker at cell 0 on len + 3 cells, of each word of length at most 4
    digest = hashlib.sha256()
    for k in range(5):
        for word in map("".join, product("01", repeat=k)):
            reps = rep_family(word, k)
            reps += [bang_representation(word, (0,) + scatter, k + 3)
                     for scatter in combinations(range(1, k + 3), k)]
            for rep in reps:
                digest.update(repr(rep).encode())
    assert digest.hexdigest() == REPRESENTATIONS_SHA256


def test_word_graph_positions_and_letters():
    # one right edge per position, marker first, each leaving its letter
    # outgoing; then one left edge per position, leaving it incoming
    for word in ("", "0", "01", "110"):
        rep = bang_representation(word, range(len(word) + 1), len(word) + 1)
        edges, letters = rep.graphing.edges, "*" + word
        assert len(rep.injection) == len(word) + 1
        assert [e.source.atoms[0].sym for e in edges] == (
            [ch + "o" for ch in letters] + [ch + "i" for ch in letters])
    # the last position's right edge wraps round onto the marker
    last_right = bang_representation("01", range(3), 3).graphing.edges[2]
    (image,) = last_right.image().atoms
    assert (image.sym, image.box) == ("*i", (Interval(F(0), F(1, 3)),))


def test_word_graph_edge_counts():
    for word in ("", "0", "01", "110"):
        edges = bang_representation(word, range(len(word) + 1),
                                    len(word) + 1).graphing.edges
        assert len(edges) == 2 * (len(word) + 1)


def test_empty_word_edges_loop_on_the_marker():
    # the marker's right edge sends *o to *i, its left edge *i to *o, and
    # both stay on its one cell
    right, left = bang_representation("", (0,), 1).graphing.edges
    for edge, src, dst in ((right, "*o", "*i"), (left, "*i", "*o")):
        (source,), (image,) = edge.source.atoms, edge.image().atoms
        assert (source.sym, image.sym) == (src, dst)
        assert image.box == source.box


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
    assert rep == bang_representation("01", range(3), 3)
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
    with pytest.raises(ValidationError):
        bang_representation("0", (0, 0), 1)
    with pytest.raises(ValidationError):
        bang_representation("0", (0,), 1)
    with pytest.raises(ValidationError, match="need at least 2 cells, got 1"):
        bang_representation("0", (0, 1), cells=1)
    with pytest.raises(ValidationError, match="cells must lie in 0..2"):
        bang_representation("0", (0, 3), cells=3)
    with pytest.raises(ValidationError, match="word must be over 0/1"):
        bang_representation("0*", (0, 1, 2), 3)


def test_rep_family_is_every_injection():
    fam = rep_family("0", 2)  # 2 positions into 3 cells
    assert len(fam) == 6
    assert len({r.injection for r in fam}) == 6
    with pytest.raises(ValidationError):
        rep_family("01", 1)


def test_scattered_injection_still_deterministic():
    rep = bang_representation("11", (4, 0, 2), cells=5)
    assert is_deterministic(rep.graphing)
    # the marker's outgoing right edge starts on its cell
    assert rep.graphing.edges[0].source.atoms[0].box == (Interval(F(4, 5), F(1)),)
