"""Execution of graphings: discretization, plugging, and dialogue path sums.

Plugging two graphings along a cut region sums the weights of alternating
paths through the cut, exactly.  Cells come from a joint refinement of both
edge systems; the walk over cells tracks the running composite realizer, and
cyclic mass is resolved by an exact linear solve rather than iteration.

The path-sum entry point specializes the same walk to a compiled machine
probing a word representation from a result interval.  Paths are counted as
families: a family narrows spatially when an answer constrains it and dies
when no answer matches, but its weight stays the product of the edge
probabilities along it, and families are bucketed by the net stack word of
their composite, reduced against the cylinder they started from.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (ClosureViolation, DiscretizationError, TruncationError,
                     ValidationError)
from .graphing import Edge, GraphingRep, Weight, realizer_key
from .linsolve import prune, solve_affine
from .realizer import Realizer, perm_apply
from .space import (Atom, Region, RESULT_SYMBOLS, ae_equal, box_get,
                    difference, disjoint_ae, refine_regions, sym_index)

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class ExecOptions:
    stack_depth: int = 16
    start_state: int | None = None
    strict: bool = True          # plug: raise instead of dropping cut branches
    max_rounds: int = 12
    max_nodes: int = 500_000


@dataclass(frozen=True)
class CutSpec:
    cut: Region
    left_rest: Region
    right_rest: Region


def cut_between(f: GraphingRep, g: GraphingRep) -> CutSpec:
    """The overlap of two supports as a cut, with the leftovers as rests."""
    shared = f.support.intersect(g.support)
    left = difference(f.support, shared)
    right = difference(g.support, shared)
    if not disjoint_ae(left, right):
        raise ValidationError("supports overlap outside the shared cut")
    return CutSpec(shared.sorted(), left.sorted(), right.sorted())


# --- discretized skeletons ------------------------------------------------------


@dataclass(frozen=True)
class ThickNode:
    sym: str
    cube: tuple  # sorted ((coordinate, cell index), ...) for constrained coords
    state: int


@dataclass(frozen=True)
class ThickEdge:
    source: int
    target: int
    weight: Weight
    theta: str
    guard: str


@dataclass(frozen=True)
class ThickGraph:
    nodes: tuple
    edges: tuple
    grid: int


def _grid_cells(iv, grid: int, what: str):
    lo, hi = iv.lo * grid, iv.hi * grid
    if lo.denominator != 1 or hi.denominator != 1:
        raise DiscretizationError(
            f"{what} endpoints [{iv.lo},{iv.hi}] do not sit on the 1/{grid} grid")
    return range(int(lo), int(hi))


def _thicken(g: GraphingRep, grid: int) -> ThickGraph:
    raw_nodes: set = set()
    raw_edges: list = []
    for e in g.sorted_edges():
        for piece, img in e.pieces():
            coords = [c for c in range(1, len(piece.box) + 1)
                      if box_get(piece.box, c).measure < 1]
            cell_axes = [list(_grid_cells(box_get(piece.box, c), grid, "edge source"))
                         for c in coords]
            for combo in product(*cell_axes) if coords else [()]:
                src_cube = tuple(zip(coords, combo))
                dst = {}
                for c, cell in src_cube:
                    c2 = perm_apply(e.realizer.perm, c)
                    move = e.realizer.box_shift_at(c2) * grid
                    if move.denominator != 1:
                        raise DiscretizationError(
                            f"translation by {e.realizer.box_shift_at(c2)} is not "
                            f"a multiple of 1/{grid}")
                    dst[c2] = cell + int(move)
                dst_cube = tuple(sorted(dst.items()))
                src = ThickNode(piece.sym, src_cube, e.in_state)
                tgt = ThickNode(img.sym, dst_cube, e.out_state)
                raw_nodes.add(src)
                raw_nodes.add(tgt)
                raw_edges.append((src, tgt, e.weight, e.realizer.theta_word,
                                  piece.cyl))
    nodes = sorted(raw_nodes, key=lambda n: (sym_index(n.sym), n.cube, n.state))
    index = {n: i for i, n in enumerate(nodes)}
    edges = sorted((ThickEdge(index[s], index[t], w, th, gu)
                    for s, t, w, th, gu in raw_edges),
                   key=lambda e: (e.source, e.target, e.weight.key(), e.theta, e.guard))
    return ThickGraph(tuple(nodes), tuple(edges), grid)


def discretize(f: GraphingRep, g: GraphingRep, grid: int):
    """Finite skeletons of two graphings over a shared coordinate grid."""
    if grid < 1:
        raise ValidationError(f"grid must be positive, got {grid}")
    return _thicken(f, grid), _thicken(g, grid)


# --- dialogue path sums ---------------------------------------------------------


def _theta_normal(pops: int, pushes: str, origin: str) -> str:
    """Net stack word of a composite, reduced against the start cylinder.

    Popping a tracked symbol and pushing the same symbol back acts as the
    identity on the start cylinder, so such pairs cancel before bucketing.
    """
    while pops > 0 and pushes and pops <= len(origin) and pushes[-1] == origin[pops - 1]:
        pops -= 1
        pushes = pushes[:-1]
    return pushes + "c" * pops


def _compose_theta(pops: int, pushes: str, e_pops: int, e_pushes: str):
    if e_pops <= len(pushes):
        return pops, e_pushes + pushes[e_pops:]
    return pops + e_pops - len(pushes), e_pushes


@dataclass
class PathSum:
    """Exact weight of each stack class of probing dialogues.

    ``dropped`` is the total weight of families cut off by the stack
    budget; every class total is exact for the surviving families, and the
    true value of any class lies within ``dropped`` above its total.
    """

    total: dict
    exact: bool
    dropped: Fraction = _ZERO

    @property
    def lower_bound(self) -> Fraction:
        return self.total.get("", _ZERO)

    @property
    def mass(self) -> Fraction:
        return sum(self.total.values(), _ZERO)

    def classes(self):
        return sorted(self.total.items())


def _incoming(rows: list) -> list:
    """Transpose pruned transitions: row ``j`` lists the ``(i, p)`` edges into ``j``.

    The walks record where mass goes; the solve wants, per node, where its
    mass comes from.
    """
    out = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, p in row:
            out[j].append((i, p))
    return out


def _machine_parts(machine, opts: ExecOptions):
    g = getattr(machine, "graphing", machine)
    start = opts.start_state
    if start is None:
        start = getattr(machine, "start_state", None)
    if start is None:
        raise ValidationError("no start dialect state: pass a compiled machine "
                              "or set start_state")
    index: dict = {}
    for e in g.edges:
        for a in e.source.atoms:
            index.setdefault((e.in_state, a.sym), []).append((a, e))
    return g, start, index


def _word_parts(w):
    g = getattr(w, "graphing", w)
    if len(g.dialect) != 1:
        raise ValidationError("the answering side must have a one-state dialect")
    index: dict = {}
    for e in g.edges:
        for a in e.source.atoms:
            index.setdefault(a.sym, []).append((a, e))
    return g, index


def accept_path_sum(machine, word, accept_region: Region,
                    opts: ExecOptions = ExecOptions()) -> PathSum:
    """Stack-class weights of all probing dialogues from a result region.

    The probe enters through ``accept_region``, the machine and the word
    alternate, and every maximal family that lands back in ``accept_region``
    contributes its weight to the class of its reduced net stack word.
    Branches whose tracked cylinder would outgrow the stack budget are
    dropped and flagged, making the class totals exact lower bounds.
    """
    _, start, m_index = _machine_parts(machine, opts)
    _, w_index = _word_parts(word)
    depth = opts.stack_depth

    nodes: dict = {}
    order: list = []
    trans: list = []       # per node: list of (succ, p)
    exits: list = []       # per node: list of (p, bucket)
    b: list = []

    def intern(key) -> int:
        i = nodes.get(key)
        if i is None:
            if len(order) >= opts.max_nodes:
                raise ClosureViolation("dialogue walk exceeded the node budget")
            i = nodes[key] = len(order)
            order.append(key)
            trans.append([])
            exits.append([])
            b.append(_ZERO)
        return i

    def machine_steps(atom: Atom, state: int, pops: int, pushes: str, origin: str):
        """Yield ('exit', p, bucket) and ('node', p, key) successors.

        A bucket of None marks a branch dropped at the stack budget; its
        callers route that weight into the truncation bound.
        """
        for src, e in m_index.get((state, atom.sym), ()):
            inter = atom.intersect(src)
            if inter is None or inter.measure == 0:
                continue
            for piece, img in e.realizer.apply_atom(inter):
                new_origin = origin + piece.cyl[len(atom.cyl):]
                new_pops, new_pushes = _compose_theta(
                    pops, pushes, e.realizer.pops, e.realizer.pushes)
                if len(img.cyl) > depth:
                    yield ("exit", e.weight.p, None)
                    continue
                if img.sym in RESULT_SYMBOLS:
                    hit = any(img.intersect(ra) is not None and
                              img.intersect(ra).measure > 0
                              for ra in accept_region.atoms)
                    if hit:
                        yield ("exit", e.weight.p,
                               _theta_normal(new_pops, new_pushes, new_origin))
                    continue
                yield ("node", e.weight.p,
                       (img, e.out_state, 1, new_pops, new_pushes, new_origin))

    for a0 in accept_region.atoms:
        if a0.state != 0:
            raise ValidationError("the probed region must be spatial")

    totals: dict = {}
    for a0 in accept_region.atoms:
        for kind, p, payload in machine_steps(a0, start, 0, "", a0.cyl):
            if kind == "exit":
                totals[payload] = totals.get(payload, _ZERO) + p
            else:
                b[intern(payload)] += p

    pos = 0
    while pos < len(order):
        key = order[pos]
        atom, state, turn, pops, pushes, origin = key
        if turn == 0:
            for kind, p, payload in machine_steps(atom, state, pops, pushes, origin):
                if kind == "exit":
                    exits[pos].append((p, payload))
                else:
                    trans[pos].append((intern(payload), p))
        else:
            for src, e in w_index.get(atom.sym, ()):
                inter = atom.intersect(src)
                if inter is None or inter.measure == 0:
                    continue
                for piece, img in e.realizer.apply_atom(inter):
                    succ = (img, state, 0,
                            *_compose_theta(pops, pushes, e.realizer.pops,
                                            e.realizer.pushes),
                            origin + piece.cyl[len(atom.cyl):])
                    trans[pos].append((intern(succ), e.weight.p))
        pos += 1

    # Masses of families arriving at each configuration; only ancestors of an
    # exit matter, and pruning the rest keeps endless loops out of the solve.
    kept, rows = prune(trans, [i for i, ex in enumerate(exits) if ex])
    if kept:
        try:
            x = solve_affine(_incoming(rows), [b[i] for i in kept])
        except ArithmeticError as exc:
            raise ClosureViolation(f"dialogue mass does not converge: {exc}") from exc
        for s, i in enumerate(kept):
            for p, bucket in exits[i]:
                totals[bucket] = totals.get(bucket, _ZERO) + x[s] * p

    dropped = totals.pop(None, _ZERO)
    return PathSum({k: v for k, v in sorted(totals.items()) if v != 0},
                   dropped == 0, dropped)


def enumerate_paths(machine, word, max_edges: int = 40,
                    accept_region: Region | None = None,
                    opts: ExecOptions = ExecOptions()) -> list:
    """Weights of all odd-length dialogue prefixes from a result region.

    Every prefix ending on a machine move is recorded once, at the product
    of the move probabilities along it; answer moves carry weight one and
    only bound the length.  No stack budget applies: the length bound
    already bounds the stack.
    """
    _, start, m_index = _machine_parts(machine, opts)
    _, w_index = _word_parts(word)
    if accept_region is None:
        accept_region = Region((Atom("a"),))
    out: list = []

    def walk(atom: Atom, state: int, turn: int, used: int, weight: Fraction):
        if used >= max_edges:
            return
        if turn == 0:
            for src, e in m_index.get((state, atom.sym), ()):
                inter = atom.intersect(src)
                if inter is None or inter.measure == 0:
                    continue
                for piece, img in e.realizer.apply_atom(inter):
                    w = weight * e.weight.p
                    out.append(w)
                    if img.sym not in RESULT_SYMBOLS:
                        walk(img, e.out_state, 1, used + 1, w)
        else:
            for src, e in w_index.get(atom.sym, ()):
                inter = atom.intersect(src)
                if inter is None or inter.measure == 0:
                    continue
                for piece, img in e.realizer.apply_atom(inter):
                    walk(img, state, 0, used + 1, weight * e.weight.p)

    for a0 in accept_region.atoms:
        walk(a0, start, 0, 0, _ONE)
    return sorted(out)


# --- plugging -------------------------------------------------------------------


def _constituents(img: Atom, group: list, cells: list) -> list | None:
    """Indices of the cells tiling an image atom, or None if any cell cuts it."""
    found, covered = [], _ZERO
    for ci in group:
        cell = cells[ci]
        inter = cell.intersect(img)
        if inter is None or inter.measure == 0:
            continue
        if inter.measure != cell.measure:
            return None
        found.append(ci)
        covered += cell.measure
    if covered != img.measure:
        return None
    return found


def _plug_cells(f: GraphingRep, g: GraphingRep, cut: CutSpec, opts: ExecOptions):
    """Joint stable cell partition; returns cells, zone map, per-side tables."""
    sides = (f, g)
    extra: list = []
    for _ in range(opts.max_rounds):
        splitters = [cut.left_rest, cut.cut, cut.right_rest]
        piece_refs: list = []  # (side, edge, splitter index)
        for si, gr in enumerate(sides):
            for e in gr.edges:
                for piece, _ in e.pieces():
                    piece_refs.append((si, e, len(splitters)))
                    splitters.append(Region((piece,)))
        splitters.extend(extra)
        cells, covers = refine_regions(splitters)
        groups: dict = {}
        for i, cell in enumerate(cells):
            groups.setdefault(cell.sym, []).append(i)

        stable = True
        new_extra: list = []
        tables: list = [dict(), dict()]
        for si, e, ref in piece_refs:
            for ci in covers[ref]:
                cell = cells[ci]
                pieces = e.realizer.apply_atom(cell)
                if len(pieces) != 1 or pieces[0][0] != cell:
                    for pc, _ in pieces:
                        new_extra.append(Region((pc,)))
                    stable = False
                    continue
                img = pieces[0][1]
                targets = _constituents(img, groups.get(img.sym, ()), cells)
                if targets is None:
                    new_extra.append(Region((img,)))
                    stable = False
                    continue
                tables[si].setdefault(ci, []).append((e, img, tuple(targets)))
        if stable:
            zone = {}
            for z, ref in ((0, 0), (1, 1), (2, 2)):
                for ci in covers[ref]:
                    zone[ci] = z
            return cells, zone, tables
        extra.extend(new_extra)
    raise DiscretizationError(
        f"cell partition did not stabilize in {opts.max_rounds} rounds")


def plug_dialect_pairs(f: GraphingRep, g: GraphingRep) -> list:
    return sorted(product(f.dialect, g.dialect))


def plug(f: GraphingRep, g: GraphingRep, cut: CutSpec,
         opts: ExecOptions = ExecOptions()) -> GraphingRep:
    """Execute two graphings against each other along a cut.

    The result lives on the two rests with the product dialect (pairs in
    sorted order).  Each maximal alternating path family contributes one
    edge from its pulled-back source piece, weighted by the product of the
    probabilities along it, with cyclic mass summed exactly.
    """
    whole_f = Region(tuple(cut.left_rest.atoms) + tuple(cut.cut.atoms))
    whole_g = Region(tuple(cut.cut.atoms) + tuple(cut.right_rest.atoms))
    if not ae_equal(f.support, whole_f):
        raise ValidationError("left support must be the left rest plus the cut")
    if not ae_equal(g.support, whole_g):
        raise ValidationError("right support must be the cut plus the right rest")
    if not disjoint_ae(cut.left_rest, cut.right_rest):
        raise ValidationError("the two rests overlap")

    cells, zone, tables = _plug_cells(f, g, cut, opts)
    pairs = plug_dialect_pairs(f, g)
    pair_index = {pr: i for i, pr in enumerate(pairs)}
    dialects = (f.dialect, g.dialect)
    results: dict = {}

    def emit(mass: Fraction, flag: int, comp: Realizer, origin: Atom,
             ocyl: str, tc: Atom, in_pair, out_pair):
        base = Atom(origin.sym, origin.box, ocyl)
        piece = comp.preimage_atom(base, tc)
        if piece is None:
            raise ClosureViolation("exit family lost its source piece")
        key = (piece, pair_index[in_pair], pair_index[out_pair],
               realizer_key(comp), flag)
        prev_mass, _ = results.get(key, (_ZERO, comp))
        results[key] = (prev_mass + mass, comp)

    for origin_ci, origin_zone in sorted(zone.items()):
        if origin_zone == 1:
            continue
        side0 = 0 if origin_zone == 0 else 1
        origin = cells[origin_ci]
        for in0 in dialects[side0]:
            _walk_origin(side0, origin_ci, origin, in0, cells, zone, tables,
                         dialects, opts, emit)

    edges = []
    for (piece, in_i, out_i, _, flag), (mass, comp) in sorted(
            results.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1:])):
        if mass == 0:
            continue
        try:
            weight = Weight(mass, flag)
        except ValidationError as exc:
            raise ClosureViolation(f"path mass exceeds one: {exc}") from exc
        edges.append(Edge(Region((piece,)), in_i, out_i, comp, weight))
    support = Region(tuple(cut.left_rest.atoms) + tuple(cut.right_rest.atoms))
    return GraphingRep(support, tuple(range(len(pairs))), tuple(edges))


def _walk_origin(side0: int, origin_ci: int, origin: Atom, in0: int,
                 cells: list, zone: dict, tables: list, dialects, opts, emit):
    # node: (cell, turn, cur_f, cur_g, first_other, comp, ocyl, flag)
    cur0 = (in0, None) if side0 == 0 else (None, in0)
    start_key = (origin_ci, side0, cur0[0], cur0[1], None,
                 Realizer(), origin.cyl, 0)
    nodes = {start_key: 0}
    order = [start_key]
    trans: list = [[]]
    exit_rows: list = [[]]
    b = [_ONE]

    def intern(key):
        i = nodes.get(key)
        if i is None:
            if len(order) >= opts.max_nodes:
                raise ClosureViolation("plug walk exceeded the node budget")
            i = nodes[key] = len(order)
            order.append(key)
            trans.append([])
            exit_rows.append([])
            b.append(_ZERO)
        return i

    pos = 0
    while pos < len(order):
        ci, turn, cur_f, cur_g, first_other, comp, ocyl, flag = order[pos]
        cur = (cur_f, cur_g)
        for e, img, targets in tables[turn].get(ci, ()):
            if cur[turn] is not None and e.in_state != cur[turn]:
                continue
            engaged_first = first_other
            if cur[turn] is None:
                engaged_first = e.in_state
            nxt = comp.compose(e.realizer)
            if max(nxt.pops, len(nxt.pushes)) > opts.stack_depth:
                if opts.strict:
                    raise TruncationError("composite stack action outgrew the budget")
                continue
            new_flag = flag | e.weight.flag
            new_cur = list(cur)
            new_cur[turn] = e.out_state
            for ti in targets:
                tc = cells[ti]
                new_ocyl = ocyl + tc.cyl[len(img.cyl):]
                comp_n = nxt.normalized_on(new_ocyl)
                if zone[ti] == 1:
                    key = (ti, 1 - turn, new_cur[0], new_cur[1],
                           engaged_first, comp_n, new_ocyl, new_flag)
                    trans[pos].append((intern(key), e.weight.p))
                else:
                    exit_rows[pos].append(
                        (e.weight.p, comp_n, new_ocyl, tc,
                         tuple(new_cur), engaged_first, new_flag))
        pos += 1

    kept, rows = prune(trans, [i for i, ex in enumerate(exit_rows) if ex])
    if not kept:
        return
    try:
        x = solve_affine(_incoming(rows), [b[i] for i in kept])
    except ArithmeticError as exc:
        raise ClosureViolation(f"plug mass does not converge: {exc}") from exc

    other = 1 - side0
    for s, i in enumerate(kept):
        for p, comp, ocyl, tc, cur, engaged_first, flag in exit_rows[i]:
            mass = x[s] * p
            if mass == 0:
                continue
            if cur[other] is None:
                # The other side never spoke: it passes through diagonally.
                for d in dialects[other]:
                    in_pair = (in0, d) if side0 == 0 else (d, in0)
                    out_pair = (cur[side0], d) if side0 == 0 else (d, cur[side0])
                    emit(mass, flag, comp, origin, ocyl, tc, in_pair, out_pair)
            else:
                in_pair = (in0, engaged_first) if side0 == 0 else (engaged_first, in0)
                out_pair = tuple(cur)
                emit(mass, flag, comp, origin, ocyl, tc, in_pair, out_pair)
