"""Seeded random graphings and cuts for the closure and refinement checks.

Everything generated here is stack-free and grid-aligned: sources are
whole cells of a coordinate-one grid, and realizers only shift symbols and
translate between cells, so every plug walk narrows to whole cells.
"""

from fractions import Fraction
import random

from .errors import ValidationError
from .execution import CutSpec
from .graphing import Edge, GraphingRep, Weight
from .realizer import Realizer
from .space import Atom, Interval, Region, sym_index

_CUT_CHOICES = (("0i",), ("0o",), ("1i",), ("0i", "1o"), ("0o", "1i"))


def _cell(sym: str, i: int, grid: int) -> Atom:
    return Atom(sym, (Interval(Fraction(i, grid), Fraction(i + 1, grid)),))


def _hop(src: Atom, dst: Atom, grid: int) -> Realizer:
    shift = sym_index(dst.sym) - sym_index(src.sym)
    delta = dst.box[0].lo - src.box[0].lo
    box_shift = ((1, delta),) if delta else ()
    return Realizer(shift=shift, box_shift=box_shift)


def _layout(rng: random.Random):
    grid = rng.choice((2, 3, 4))
    cut_syms = rng.choice(_CUT_CHOICES)
    v_cells = [_cell("a", i, grid) for i in range(grid)]
    c_cells = [_cell(s, i, grid) for s in cut_syms for i in range(grid)]
    w_cells = [_cell("r", i, grid) for i in range(grid)]
    cut = CutSpec(Region(tuple(Atom(s) for s in cut_syms)),
                  Region((Atom("a"),)), Region((Atom("r"),)))
    return grid, v_cells, c_cells, w_cells, cut


def _wire(rng: random.Random, grid: int, sources, targets, dialect,
          weights_for) -> list:
    edges = []
    for src in sources:
        for in_state in dialect:
            for p, flag in weights_for(rng):
                dst = rng.choice(targets)
                edges.append(Edge(Region((src,)), in_state,
                                  rng.choice(dialect), _hop(src, dst, grid),
                                  Weight(p, flag)))
    return edges


def _det_weights(rng: random.Random):
    return [(Fraction(1), 0)] if rng.random() < 0.85 else []


_SUBPROB_MASSES = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                   Fraction(1, 4), Fraction(3, 4))


def _subprob_weights(rng: random.Random):
    roll = rng.random()
    if roll < 0.2:
        return []
    if roll < 0.65:
        return [(rng.choice(_SUBPROB_MASSES), rng.choice((0, 0, 1)))]
    a = Fraction(1, rng.choice((2, 3, 4)))
    b = Fraction(1, rng.choice((4, 6, 8)))
    return [(a, 0), (b, rng.choice((0, 1)))]


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
    if not (f.is_deterministic() and g.is_deterministic()):
        raise ValidationError(f"seed {seed} generated a nondeterministic pair")
    return f, g, cut


def random_subprob_pair(seed: int):
    """Two sub-probabilistic graphings joined by a cut."""
    f, g, cut = _pair(seed, _subprob_weights)
    if not (f.is_subprobabilistic() and g.is_subprobabilistic()):
        raise ValidationError(f"seed {seed} generated a pair with mass above one")
    return f, g, cut


def split_sources(g: GraphingRep, seed: int) -> GraphingRep:
    """Refine a graphing by cutting some edge sources into smaller pieces.

    Each chosen edge is replaced by copies over a partition of its source
    (box halves or the three cylinder children); the realizer and weight
    are untouched, so the result represents the same graphing.
    """
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
        for piece in halves:
            out.append(Edge(Region((piece,)), e.in_state, e.out_state,
                            e.realizer, e.weight))
    return GraphingRep(g.support, g.dialect, tuple(out))
