"""Seeded random graphings and cuts for the closure and refinement checks.

Everything generated here is stack-free and grid-aligned: sources are
whole cells of a coordinate-one grid, and realizers only shift symbols and
translate between cells, so every plug walk narrows to whole cells.

Every pair draws its parts from eight symbols, grids 2-4 and a dozen
weights, so each part is built and checked once per distinct value: every
cell's one-atom source region (checked as an edge source), every hop
between cells and every weight is kept in one module table, which that
alphabet bounds, and the edges share them.
"""

from fractions import Fraction
import random

from .errors import ValidationError
from .execution import CutSpec
from .graphing import (GraphingRep, Weight, _check_source, _edge, is_deterministic,
                       is_subprobabilistic)
from .realizer import Realizer
from .space import Atom, Interval, Region, format_atom, sym_index

_CUT_CHOICES = (("0i",), ("0o",), ("1i",), ("0i", "1o"), ("0o", "1i"))

# (maker, *arguments) -> the part it made; generated parts are immutable
_PARTS: dict = {}


def _part(make, *args):
    """``make(*args)``, built once."""
    value = _PARTS.get((make, *args))
    if value is None:
        value = _PARTS[make, *args] = make(*args)
    return value


def _cell(sym: str, i: int, grid: int, cyl: str) -> Region:
    """Cell ``i`` of ``grid`` on coordinate 1 of ``sym`` under the cylinder
    ``cyl``, as a checked one-atom edge source."""
    interval = Interval(Fraction(i, grid), Fraction(i + 1, grid))
    return _check_source(Region((Atom(sym, (interval,), cyl),)))


def _hop(shift: int, moved: int, grid: int) -> Realizer:
    """Shift ``shift`` symbols and move ``moved`` cells of ``grid``."""
    return Realizer(shift=shift,
                    box_shift=((1, Fraction(moved, grid)),) if moved else ())


def _weight(num: int, den: int, flag: int) -> Weight:
    return Weight(Fraction(num, den), flag)


def _layout(rng: random.Random):
    grid = rng.choice((2, 3, 4))
    cut_syms = rng.choice(_CUT_CHOICES)
    v_cells = [("a", i) for i in range(grid)]
    c_cells = [(s, i) for s in cut_syms for i in range(grid)]
    w_cells = [("r", i) for i in range(grid)]
    cut = CutSpec(Region(tuple(Atom(s) for s in cut_syms)),
                  Region((Atom("a"),)), Region((Atom("r"),)))
    return grid, v_cells, c_cells, w_cells, cut


def _wire(rng: random.Random, grid: int, sources, targets, dialect,
          weights_for) -> list:
    edges = []
    for sym, i in sources:
        source, k = _part(_cell, sym, i, grid, ""), sym_index(sym)
        for in_state in dialect:
            for weight in weights_for(rng):
                dst, j = rng.choice(targets)
                edges.append(_edge(source, in_state, rng.choice(dialect),
                                   _part(_hop, sym_index(dst) - k, j - i, grid),
                                   _part(_weight, *weight)))
    return edges


# weights are drawn as (numerator, denominator, flag), in lowest terms
def _det_weights(rng: random.Random):
    return [(1, 1, 0)] if rng.random() < 0.85 else []


_SUBPROB_MASSES = ((1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4))


def _subprob_weights(rng: random.Random):
    roll = rng.random()
    if roll < 0.2:
        return []
    if roll < 0.65:
        return [(*rng.choice(_SUBPROB_MASSES), rng.choice((0, 0, 1)))]
    a = rng.choice((2, 3, 4))
    b = rng.choice((4, 6, 8))
    return [(1, a, 0), (1, b, rng.choice((0, 1)))]


def _pair(seed: int, weights_for):
    rng = random.Random(seed)
    grid, v_cells, c_cells, w_cells, cut = _layout(rng)
    df = tuple(range(rng.choice((1, 1, 2))))
    dg = tuple(range(rng.choice((1, 1, 2))))
    all_cells = v_cells + c_cells + w_cells
    f_edges = _wire(rng, grid, v_cells + c_cells, all_cells, df, weights_for)
    g_edges = _wire(rng, grid, c_cells + w_cells, all_cells, dg, weights_for)
    f = GraphingRep(Region(tuple(cut.left_rest.atoms) + tuple(cut.cut.atoms)),
                    df, tuple(f_edges))
    g = GraphingRep(Region(tuple(cut.cut.atoms) + tuple(cut.right_rest.atoms)),
                    dg, tuple(g_edges))
    return f, g, cut


def random_det_pair(seed: int):
    """Two deterministic graphings joined by a cut, reproducible by seed."""
    f, g, cut = _pair(seed, _det_weights)
    if not (is_deterministic(f) and is_deterministic(g)):
        raise ValidationError(f"seed {seed} generated a nondeterministic pair")
    return f, g, cut


def random_subprob_pair(seed: int):
    """Two sub-probabilistic graphings joined by a cut."""
    f, g, cut = _pair(seed, _subprob_weights)
    if not (is_subprobabilistic(f) and is_subprobabilistic(g)):
        raise ValidationError(f"seed {seed} generated a pair with mass above one")
    return f, g, cut


def split_sources(g: GraphingRep, seed: int) -> GraphingRep:
    """Refine a generated graphing by cutting some edge sources into pieces.

    Each chosen edge is replaced by copies over a partition of its source
    cell (its two halves, which are cells of the grid twice as fine, or its
    three cylinder children); the realizer and weight are untouched, so the
    result represents the same graphing.  The pieces come from the same
    table as the generated cells.
    """
    rng = random.Random(seed)
    out = []
    for e in g.sorted_edges():
        atoms = e.source.atoms
        if rng.random() < 0.4 or len(atoms) > 1:
            out.append(e)
            continue
        a = atoms[0]
        i, grid = _cell_index(a)
        if rng.random() < 0.5 and a.box:
            pieces = [_part(_cell, a.sym, 2 * i + h, 2 * grid, a.cyl) for h in (0, 1)]
        else:
            pieces = [_part(_cell, a.sym, i, grid, a.cyl + c) for c in "*01"]
        out.extend(_edge(piece, e.in_state, e.out_state, e.realizer, e.weight)
                   for piece in pieces)
    return GraphingRep(g.support, g.dialect, tuple(out))


def _cell_index(a: Atom) -> tuple:
    """``(i, grid)`` of a source atom that is cell ``i`` of ``grid``."""
    if not a.box:
        return 0, 1
    (lo, hi, den), *rest = a.box  # in lowest terms: a cell is (i, i + 1, grid)
    if rest or hi != lo + 1:
        raise ValidationError(f"split_sources cuts grid cells, not {format_atom(a)}")
    return lo, den
