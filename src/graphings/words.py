"""Interval representations of marked binary words.

A binary word is read as a cycle with a single marker cell in front, so a
word of length k occupies positions 0..k with position 0 reserved for the
marker.  Its representation is a graphing with one right-moving and one
left-moving edge per position: it places each position into one of
``cells`` unit subintervals of coordinate 1 and realizes the edges by
interval translations.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .graphing import Edge, GraphingRep, WEIGHT_ONE
from .realizer import Realizer
from .space import (EXT_SYMBOLS, Region, _atom, _canon_box, _interval,
                    full_symbol_region, sym_index, sym_of)


@dataclass(frozen=True)
class WordRepresentation:
    """A marked word realized on the six dialogue symbol intervals.

    ``injection[i]`` is the cell (out of ``cells`` equal subdivisions of
    coordinate 1) assigned to position i.
    """

    graphing: GraphingRep
    word: str
    injection: tuple
    cells: int


def bang_representation(word: str, injection, cells: int) -> WordRepresentation:
    """Realize ``word`` with the given position-to-cell injection: a right
    edge per position carrying an outgoing visit to the next one round the
    cycle, then a left edge per position carrying an incoming visit back."""
    if any(ch not in "01" for ch in word):
        raise ValidationError(f"word must be over 0/1, got {word!r}")
    letters = "*" + word
    positions = len(letters)
    injection = tuple(injection)
    if len(injection) != positions:
        raise ValidationError(f"injection must assign all {positions} positions")
    if len(set(injection)) != len(injection):
        raise ValidationError("injection must be one-to-one")
    if cells < positions:
        raise ValidationError(f"need at least {positions} cells, got {cells}")
    if any(not 0 <= s < cells for s in injection):
        raise ValidationError(f"cells must lie in 0..{cells - 1}")

    # each position's cell, built once and unchecked: the injection is valid
    boxes = [_canon_box((_interval(s, s + 1, cells),)) for s in injection]
    edges = []
    for step, d_src, d_dst in ((1, "o", "i"), (-1, "i", "o")):
        for i in range(positions):
            j = (i + step) % positions
            src = sym_of(letters[i], d_src)
            dst = sym_of(letters[j], d_dst)
            move = Fraction(injection[j] - injection[i], cells)
            realizer = Realizer(shift=sym_index(dst) - sym_index(src),
                                box_shift=(((1, move),) if move else ()))
            edges.append(Edge(Region((_atom(src, boxes[i], "", 0),)), 0, 0,
                              realizer, WEIGHT_ONE))
    rep = GraphingRep(full_symbol_region(EXT_SYMBOLS), (0,), tuple(edges))
    return WordRepresentation(rep, word, injection, cells)


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
        positions = len(word) + 1
        rep = bang_representation(word, range(positions), positions)
        if len(_canonical) >= MEMO_WORDS:
            del _canonical[next(iter(_canonical))]
        _canonical[word] = rep
    return rep
