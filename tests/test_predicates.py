"""The graphing predicates and region comparisons against a refinement reference.

``is_deterministic``, ``is_subprobabilistic`` and the region comparisons
decide by pairwise intersection and refine only where sources meet.  The
reference here refines every edge piece into elementary cells and reads
each verdict off the per-cell tables.
"""

from collections import defaultdict
from dataclasses import replace
from fractions import Fraction as F
import hashlib
import random

import pytest

from graphings import execution, generators, graphing, space
from graphings.graphing import (Edge, GraphingRep, Weight, equivalent,
                                format_graphing, is_deterministic,
                                is_refinement, is_subprobabilistic)
from graphings.realizer import Realizer, swap
from graphings.space import (Atom, Interval, Region, ae_equal, disjoint_ae,
                             refine_regions, subset_ae, sym_index)
from test_space import _refine


# --- the reference ---------------------------------------------------------------


def _reference_tables(graphings):
    """Per graphing: elementary cell -> payloads of the edge pieces over it."""
    items = []  # (edge piece at its in_state, (graphing index, payload))
    for gi, g in enumerate(graphings):
        for e in g.edges:
            for atom in e.source.atoms:
                for piece, _ in e.realizer.apply_atom(atom):
                    payload = (e.out_state, e.realizer.normalized_on(piece.cyl),
                               e.weight)
                    items.append((replace(piece, state=e.in_state), (gi, payload)))
    _, carried = refine_regions(items)
    tables = [defaultdict(list) for _ in graphings]
    for cell, payloads in enumerate(carried):
        for gi, payload in payloads:
            tables[gi][cell].append(payload)
    return tables


def _reference_deterministic(g):
    if any(e.weight.p != 1 for e in g.edges):
        return False
    (table,) = _reference_tables([g])
    return all(len(v) <= 1 for v in table.values())


def _reference_subprobabilistic(g):
    (table,) = _reference_tables([g])
    return all(sum(w.p for _, _, w in v) <= 1 for v in table.values())


def _reference_equivalent(g1, g2):
    if g1.dialect != g2.dialect:
        return False
    _, (c1, c2) = _refine([g1.support, g2.support])
    if c1 != c2:
        return False
    t1, t2 = _reference_tables([g1, g2])
    return all(sorted(t1.get(c, ())) == sorted(t2.get(c, ()))
               for c in set(t1) | set(t2))


# --- seeded random graphings with overlapping sources ------------------------------

_SYMS = ("0i", "1i")
_GRIDS = (2, 3, 4, 6)
_WEIGHTS = (F(1), F(1, 2), F(1, 3), F(2, 3))


def _random_atom(rng):
    box = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        n = rng.choice(_GRIDS)
        i = rng.randrange(n)
        box.append(Interval(F(i, n), F(rng.randrange(i + 1, n + 1), n)))
    cyl = "".join(rng.choice("*01") for _ in range(rng.choice((0, 1, 2))))
    return Atom(rng.choice(_SYMS), tuple(box), cyl)


def _random_region(rng, size):
    """Up to ``size`` pairwise disjoint atoms on mixed grids."""
    atoms = []
    for _ in range(size):
        a = _random_atom(rng)
        if all(a.intersect(b) is None for b in atoms):
            atoms.append(a)
    return Region(tuple(atoms))


def _random_realizer(rng):
    # every shift keeps both source symbols on the symbol line
    low, high = (sym_index(s) for s in _SYMS)
    pops = rng.choice((0, 0, 1, 2))
    pushes = "".join(rng.choice("*01") for _ in range(rng.choice((0, 1, 2))))
    return Realizer(shift=rng.randrange(-low, len(space.SYMBOLS) - high),
                    perm=swap(1, 2) if rng.random() < 0.2 else (),
                    pops=pops, pushes=pushes)


def _random_graphing(rng):
    unit = rng.random() < 0.5
    edges = []
    for _ in range(rng.randrange(1, 6)):
        source = _random_region(rng, rng.choice((1, 1, 2)))
        p = F(1) if unit else rng.choice(_WEIGHTS)
        edges.append(Edge(source, rng.choice((0, 1)), rng.choice((0, 1)),
                          _random_realizer(rng),
                          Weight(p, rng.choice((0, 0, 1)))))
    return GraphingRep(Region(tuple(Atom(s) for s in space.SYMBOLS)), (0, 1),
                       tuple(edges))


def _split(g, rng):
    """The same graphing, some sources cut into their cylinder children and
    some stack-free edges written as popping and pushing back their top."""
    out = []
    for e in g.edges:
        roll = rng.random()
        if roll < 0.3:
            out += [Edge(Region((Atom(a.sym, a.box, a.cyl + c),)), e.in_state,
                         e.out_state, e.realizer, e.weight)
                    for a in e.source.atoms for c in "*01"]
        elif roll < 0.6 and not (e.realizer.pops or e.realizer.pushes):
            r = e.realizer
            out += [Edge(Region((Atom(a.sym, a.box, cyl),)), e.in_state,
                         e.out_state, Realizer(r.shift, r.perm, (), len(cyl), cyl),
                         e.weight)
                    for a in e.source.atoms for cyl in (a.cyl + c for c in "*01")]
        else:
            out.append(e)
    return GraphingRep(g.support, g.dialect, tuple(out))


def _tweaked(g, rng):
    """``g`` with one edge's weight or target state changed."""
    edges = list(g.edges)
    i = rng.randrange(len(edges))
    e = edges[i]
    if rng.random() < 0.5:
        edges[i] = Edge(e.source, e.in_state, 1 - e.out_state, e.realizer, e.weight)
    else:
        edges[i] = Edge(e.source, e.in_state, e.out_state, e.realizer,
                        Weight(e.weight.p, 1 - e.weight.flag))
    return GraphingRep(g.support, g.dialect, tuple(edges))


@pytest.mark.parametrize("block", range(4))
def test_predicates_agree_with_the_refinement_reference(block):
    seen = set()
    for seed in range(block * 150, (block + 1) * 150):
        rng = random.Random(seed)
        g = _random_graphing(rng)
        det, sub = is_deterministic(g), is_subprobabilistic(g)
        assert det == _reference_deterministic(g), seed
        assert sub == _reference_subprobabilistic(g), seed
        seen.add((det, sub))
        for other in (_split(g, rng), _tweaked(g, rng), _random_graphing(rng)):
            got = equivalent(g, other)
            assert got == _reference_equivalent(g, other), seed
            seen.add(got)
    # every verdict occurs, so neither side can be a constant
    assert {(True, True), (False, True), (False, False), True, False} <= seen


def _carve(a, rng):
    """A partition of an atom: its first interval cut at a point of another
    grid, or else its three cylinder children."""
    if a.box:
        lo, hi = a.box[0].lo, a.box[0].hi
        n = rng.choice(_GRIDS) * 5
        inside = [F(k, n) for k in range(1, n) if lo < F(k, n) < hi]
        if inside:
            m = rng.choice(inside)
            return [Atom(a.sym, (iv,) + a.box[1:], a.cyl)
                    for iv in (Interval(lo, m), Interval(m, hi))]
    return [Atom(a.sym, a.box, a.cyl + c) for c in "*01"]


@pytest.mark.parametrize("block", range(4))
def test_region_comparisons_agree_with_refinement_covers(block):
    seen = set()
    for seed in range(block * 250, (block + 1) * 250):
        rng = random.Random(seed)
        r1 = _random_region(rng, rng.randrange(0, 5))
        roll = rng.random()
        if roll < 0.5:
            # the same set, or part of it, carved differently
            kept = r1.atoms if roll < 0.25 else r1.atoms[1:]
            r2 = Region(tuple(p for a in kept for p in _carve(a, rng)))
            if rng.random() < 0.5:
                r1, r2 = r2, r1
        else:
            r2 = _random_region(rng, rng.randrange(0, 5))
        _, (c1, c2) = _refine([r1, r2])
        verdicts = (ae_equal(r1, r2), subset_ae(r1, r2), subset_ae(r2, r1),
                    disjoint_ae(r1, r2))
        assert verdicts == (c1 == c2, c1 <= c2, c2 <= c1, not c1 & c2), seed
        seen.add(verdicts)
    assert len(seen) >= 4


def test_region_comparisons_over_mixed_denominators():
    half = Region((Atom("a", (Interval(F(0), F(1, 2)),)),))
    upper = Region((Atom("a", (Interval(F(1, 2), F(1)),)),))
    thirds = Region((Atom("a", (Interval(F(0), F(1, 3)),)),
                     Atom("a", (Interval(F(1, 3), F(1)),))))
    whole = Region((Atom("a"),))
    assert subset_ae(half, thirds) and not subset_ae(thirds, half)
    assert not ae_equal(half, thirds) and ae_equal(whole, thirds)
    assert disjoint_ae(half, upper) and not disjoint_ae(thirds, half)
    assert disjoint_ae(Region(), thirds) and subset_ae(Region(), half)


# --- what the predicates no longer do ----------------------------------------------


def test_predicates_refine_nothing_where_no_sources_meet(monkeypatch):
    def no_refinement(regions):
        raise AssertionError("refine_regions was called")

    pairs = [generators.random_det_pair(s) for s in range(40)]
    monkeypatch.setattr(space, "refine_regions", no_refinement)
    monkeypatch.setattr(graphing, "refine_regions", no_refinement)
    for f, g, cut in pairs:
        for h in (f, g):
            assert is_deterministic(h) and is_subprobabilistic(h)
        assert ae_equal(f.support, f.support)
        assert subset_ae(cut.cut, f.support) and subset_ae(cut.cut, g.support)


def test_plug_output_bytes_are_pinned():
    # SHA-256 of every plug output over seeds 0-99 of both generators, as
    # graphing text and as the edges' repr: it pins the order of the edges
    digest = hashlib.sha256()
    for make in (generators.random_det_pair, generators.random_subprob_pair):
        for seed in range(100):
            out = execution.plug(*make(seed))
            digest.update(format_graphing(out).encode())
            digest.update(repr(out.edges).encode())
    assert digest.hexdigest() == (
        "539a8f960ae3092f3783e9c4cf4ae96307acbd35e467233ee426861955d52d31")


def test_refinement_triple_bytes_and_verdicts_are_pinned():
    # criterion 9 over seeds 0-99: the plug of the split left side, as text
    # and as the edges' repr, and the three verdicts the triple is checked by
    digest = hashlib.sha256()
    for seed in range(100):
        f, g, cut = generators.random_det_pair(seed)
        fine = generators.split_sources(f, seed)
        out = execution.plug(fine, g, cut)
        digest.update(format_graphing(out).encode())
        digest.update(repr(out.edges).encode())
        verdicts = (is_refinement(fine, f), equivalent(fine, f),
                    equivalent(out, execution.plug(f, g, cut)))
        digest.update(repr(verdicts).encode())
    assert digest.hexdigest() == (
        "e636f9a77bd9839d88545ecdc90162f3c0d8d2b90bee277b245ca4fde6c9ff5c")
