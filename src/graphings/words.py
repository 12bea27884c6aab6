"""Circular word graphs and their interval representations.

A binary word is read as a cycle with a single marker cell in front, so a
word of length k occupies positions 0..k with position 0 reserved for the
marker.  The word graph has one right-moving and one left-moving edge per
position; a representation places each position into one of ``cells`` unit
subintervals of coordinate 1 and realizes the edges by interval
translations.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import ValidationError
from .graphing import Edge, GraphingRep, WEIGHT_ONE
from .realizer import Realizer
from .space import (EXT_SYMBOLS, Region, _atom, _canon_box, _interval,
                    full_symbol_region, sym_index, sym_of)


@dataclass(frozen=True)
class WordGraph:
    """The cyclic dialogue graph of a marked binary word."""

    word: str

    def __post_init__(self):
        if any(ch not in "01" for ch in self.word):
            raise ValidationError(f"word must be over 0/1, got {self.word!r}")

    @property
    def positions(self) -> int:
        """Number of cells on the cycle, marker included."""
        return len(self.word) + 1

    def letter(self, i: int) -> str:
        i %= self.positions
        return "*" if i == 0 else self.word[i - 1]

    def edges(self):
        """Labeled edges ``(label, source, target)``.

        Vertices are ``(letter, direction, position)``.  The right edge at
        position i carries an outgoing visit to the next position; the left
        edge carries an incoming visit to the previous one.
        """
        n = self.positions
        for i in range(n):
            j = (i + 1) % n
            yield (("r", i), (self.letter(i), "o", i), (self.letter(j), "i", j))
        for i in range(n):
            j = (i - 1) % n
            yield (("l", i), (self.letter(i), "i", i), (self.letter(j), "o", j))


def word_graph(word: str) -> WordGraph:
    return WordGraph(word)


@dataclass(frozen=True)
class WordRepresentation:
    """A word graph realized on the six dialogue symbol intervals.

    ``injection[i]`` is the cell (out of ``cells`` equal subdivisions of
    coordinate 1) assigned to position i.
    """

    graphing: GraphingRep
    word: str
    injection: tuple
    cells: int


def bang_representation(graph: WordGraph, injection, cells: int | None = None) -> WordRepresentation:
    """Realize a word graph with the given position-to-cell injection."""
    injection = tuple(injection)
    if len(injection) != graph.positions:
        raise ValidationError(
            f"injection must assign all {graph.positions} positions")
    if len(set(injection)) != len(injection):
        raise ValidationError("injection must be one-to-one")
    if cells is None:
        cells = max(injection) + 1
    if cells < graph.positions:
        raise ValidationError(
            f"need at least {graph.positions} cells, got {cells}")
    if any(not 0 <= s < cells for s in injection):
        raise ValidationError(f"cells must lie in 0..{cells - 1}")

    # each position's cell, built once and unchecked: the injection is valid
    boxes = [_canon_box((_interval(s, s + 1, cells),)) for s in injection]
    edges = []
    for _, (x, d, i), (y, d2, j) in graph.edges():
        src = sym_of(x, d)
        dst = sym_of(y, d2)
        move = Fraction(injection[j] - injection[i], cells)
        realizer = Realizer(shift=sym_index(dst) - sym_index(src),
                            box_shift=(((1, move),) if move else ()))
        edges.append(Edge(Region((_atom(src, boxes[i], "", 0),)), 0, 0,
                          realizer, WEIGHT_ONE))
    rep = GraphingRep(full_symbol_region(EXT_SYMBOLS), (0,), tuple(edges))
    return WordRepresentation(rep, graph.word, injection, cells)


def rep_family(word: str, cells_minus_one: int) -> list[WordRepresentation]:
    """Every representation of ``word`` into cells 0..``cells_minus_one``."""
    graph = word_graph(word)
    if cells_minus_one + 1 < graph.positions:
        raise ValidationError(
            f"word of length {len(word)} needs at least {graph.positions} cells")
    out = []
    for injection in permutations(range(cells_minus_one + 1), graph.positions):
        out.append(bang_representation(graph, injection, cells_minus_one + 1))
    return out


# The most words ``canonical_representation`` keeps; past it the word asked
# for first is dropped first.
MEMO_WORDS = 1024
_canonical: dict = {}


def canonical_representation(word: str) -> WordRepresentation:
    """The identity-injection representation on the fewest cells.

    It depends on the word alone and is frozen, so one representation per
    word is kept, together with the move table that its graphing fills as
    walks ask it; the memo holds at most ``MEMO_WORDS``.
    """
    rep = _canonical.get(word)
    if rep is None:
        graph = word_graph(word)
        if len(_canonical) >= MEMO_WORDS:
            del _canonical[next(iter(_canonical))]
        rep = _canonical[word] = bang_representation(
            graph, range(graph.positions), graph.positions)
    return rep
