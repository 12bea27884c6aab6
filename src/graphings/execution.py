"""Execution of graphings: plugging and dialogue path sums.

``plug`` executes two graphings against each other along a cut: it sums
the weights of alternating paths through the cut, exactly, on the product
dialect.

The path-sum entry point runs the same kind of walk for a compiled machine
probing a word representation from a result interval.  Paths are counted as
families: a family narrows spatially when an answer constrains it and dies
when no answer matches, but its weight stays the product of the edge
probabilities along it, and families are bucketed by the net stack word of
their composite, reduced against the cylinder they started from.  The word
must be stack-free, as every word representation is, so its answers to a
question depend only on the question's symbol and box and leave its
cylinder alone; they are folded into the machine move.  Every interned
configuration is thus a machine configuration, and the node budget
``linsolve.MAX_NODES`` counts exactly those.  A walk reads the machine's
``start_state`` and its ``reachable`` graphing (the edges reachable from its
start state) and nothing else.

Every walk, ``enumerate_paths`` too, reads both sides' moves from
``GraphingRep.moves``, which computes each once per graphing and keeps it
across walks; the walk rebuilds each image's cylinder from the move.

Both walks run on one kernel, ``_solve_walk``, and each caller supplies
only its own moves, reads its own exits and declares the walk's
denominator, which every move weight divides (``GraphingRep.weight_den``:
the product of both sides' for the path sum, whose moves are a machine edge
and an answer, and their lcm for ``plug``, whose moves are one edge).
Stack actions compose and cancel through ``theta``, as in ``Realizer``.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from . import linsolve
from .errors import ClosureViolation, TruncationError, ValidationError, check_type
from .graphing import GraphingRep, Weight, _edge
from .linsolve import prune, solve_affine
from .realizer import Realizer
from .space import (Atom, Region, RESULT_SYMBOLS, _atom, _new_object, _set,
                    ae_equal, box_den, disjoint_ae, refine_regions)
from .theta import cancel_on, pair_mul

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class ExecOptions:
    stack_depth: int = 16
    strict: bool = True          # plug: raise instead of dropping cut branches

    def __post_init__(self):
        check_type("an option's stack_depth", self.stack_depth, int)
        check_type("an option's strict", self.strict, bool)
        if self.stack_depth < 0:
            raise ValidationError(
                f"stack depth must be at least 0, got {self.stack_depth}")


@dataclass(frozen=True)
class CutSpec:
    cut: Region
    left_rest: Region
    right_rest: Region


# --- dialogue path sums ---------------------------------------------------------


@dataclass
class PathSum:
    """Exact weight of each stack class of probing dialogues.

    ``total`` maps each class of nonzero weight to that weight, the classes
    in sorted order.  ``dropped`` is the total weight of families cut off by
    the stack budget; every class total is exact for the surviving families,
    and the true value of any class lies within ``dropped`` above its total.
    """

    total: dict
    dropped: Fraction = _ZERO

    @property
    def exact(self) -> bool:
        return self.dropped == 0

    @property
    def lower_bound(self) -> Fraction:
        return self.total.get("", _ZERO)


def _solve_walk(seeds, expand, what: str, den: int) -> list:
    """Exact mass leaving a walk through each of its exits.

    ``seeds`` lists the keys of the starting configurations, each seeded
    with mass one.  ``expand(key)`` yields ``("node", p, key)`` for a move
    to another configuration and ``("exit", p, payload)`` for a move that
    leaves the walk.  ``den`` is the walk's declared denominator: every node
    move ``p`` is a multiple of ``1 / den``.  Configurations are interned
    breadth first, each move is recorded as ``(pred, p * den)`` in the list
    of the configuration it enters, only ancestors of an exit are kept (which
    keeps endless loops out of the solve), and the mass arriving at each is
    resolved by one exact solve in ints over those lists.  Returns
    ``(mass, payload)`` per exit move; only the nodes with exits become
    ``Fraction``s.
    """
    nodes: dict = {}
    order: list = []
    preds: list = []       # per node: list of (pred, p) moves into it
    exits: list = []       # per node: list of (p, payload)
    b: list = []

    def intern(key) -> int:
        i = nodes.get(key)
        if i is None:
            if len(order) >= linsolve.MAX_NODES:
                raise ClosureViolation(f"{what} walk exceeded the node budget")
            i = nodes[key] = len(order)
            order.append(key)
            preds.append([])
            exits.append([])
            b.append(0)
        return i

    def scaled(p: Fraction) -> int:
        q, r = divmod(den, p.denominator)
        if r:
            raise ClosureViolation(f"{what} weight {p} is not over the walk's "
                                   f"denominator {den}")
        return p.numerator * q

    for key in seeds:
        b[intern(key)] += den
    pos = 0
    while pos < len(order):
        for kind, p, payload in expand(order[pos]):
            if kind == "exit":
                exits[pos].append((p, payload))
            else:
                preds[intern(payload)].append((pos, scaled(p)))
        pos += 1

    # The mass arriving at a node is its seed mass plus what each move into
    # it carries, so the predecessor lists are the rows of the solve.
    kept, rows = prune(preds, [i for i, ex in enumerate(exits) if ex])
    if not kept:
        return []
    try:
        nums, dens = solve_affine(rows, [b[i] for i in kept], den)
    except ArithmeticError as exc:
        raise ClosureViolation(f"{what} mass does not converge: {exc}") from exc
    return [(Fraction(nums[s] * p.numerator, dens[s] * p.denominator), payload)
            for s, i in enumerate(kept) for p, payload in exits[i]]


def _word_parts(w):
    """The answering side's graphing and its one dialect state."""
    g = getattr(w, "graphing", w)
    if len(g.dialect) != 1:
        raise ValidationError("the answering side must have a one-state dialect")
    if not g.stack_free:
        raise ValidationError("the answering side must be stack-free")
    return g, g.dialect[0]


def _spatial(atoms: tuple, what: str) -> tuple:
    """Atoms a walk reads, which must be spatial: ``GraphingRep.moves``
    keys an atom without its state."""
    if any(a.state for a in atoms):
        raise ValidationError(f"{what} must be spatial")
    return atoms


def accept_path_sum(machine, word, accept_region: Region,
                    opts: ExecOptions = ExecOptions()) -> PathSum:
    """Stack-class weights of all probing dialogues from a result region.

    The probe enters through ``accept_region``, the machine and the word
    alternate, and every maximal family that lands back in ``accept_region``
    contributes its weight to the class of its reduced net stack word.
    Branches whose tracked cylinder would outgrow the stack budget are
    dropped and flagged, making the class totals exact lower bounds.
    """
    start, m = machine.start_state, machine.reachable
    w, w_state = _word_parts(word)
    probes = _spatial(accept_region.atoms, "the probed region")
    depth = opts.stack_depth

    # key: (atom, dialect state, composite as (pushes, pops), origin
    # cylinder), always at the machine's turn.  An exit bucket of None marks
    # a branch dropped at the stack budget; its weight goes into the
    # truncation bound.
    def expand(key):
        atom, state, stack, origin = key
        for e, grow, sym, box, _ in m.moves(state, atom.sym, atom.box, atom.cyl):
            r = e.realizer
            cyl = r.pushes + (atom.cyl + grow)[r.pops:]
            if len(cyl) > depth:
                yield "exit", e.weight.p, None
                continue
            new_stack = pair_mul((r.pushes, r.pops), stack)
            new_origin = origin + grow
            if sym not in RESULT_SYMBOLS:
                # a stack-free answer neither reads nor moves the cylinder
                for ans, _, s, b, _ in w.moves(w_state, sym, box, ""):
                    yield "node", e.weight.p * ans.weight.p, (
                        _atom(s, b, cyl, 0), e.out_state, new_stack, new_origin)
            elif any(_atom(sym, box, cyl, 0).intersect(ra) is not None
                     for ra in probes):
                pushes, pops = cancel_on(new_stack, new_origin)
                yield "exit", e.weight.p, pushes + "c" * pops

    # every node move is one machine edge and one answer
    seeds = [(a0, start, ("", 0), a0.cyl) for a0 in probes]
    totals: dict = {}
    for mass, bucket in _solve_walk(seeds, expand, "dialogue",
                                    m.weight_den * w.weight_den):
        totals[bucket] = totals.get(bucket, _ZERO) + mass
    dropped = totals.pop(None, _ZERO)
    return PathSum({k: v for k, v in sorted(totals.items()) if v != 0}, dropped)


def enumerate_paths(machine, word, max_edges: int = 40,
                    accept_region: Region | None = None) -> list:
    """Weights of all odd-length dialogue prefixes from a result region.

    Every prefix ending on a machine move is recorded once, at the product
    of the move probabilities along it; answer moves carry weight one and
    only bound the length.  No stack budget applies: the length bound
    already bounds the stack.
    """
    start, m = machine.start_state, machine.reachable
    w, w_state = _word_parts(word)
    if accept_region is None:
        accept_region = Region((Atom("a"),))
    out: list = []

    def walk(atom: Atom, state: int, turn: int, used: int, weight: Fraction):
        if used >= max_edges:
            return
        side, s = (m, state) if turn == 0 else (w, w_state)
        for e, grow, sym, box, _ in side.moves(s, atom.sym, atom.box, atom.cyl):
            r = e.realizer
            img = _atom(sym, box, r.pushes + (atom.cyl + grow)[r.pops:], 0)
            p = weight * e.weight.p
            if turn == 1:
                walk(img, state, 0, used + 1, p)
            else:
                out.append(p)
                if sym not in RESULT_SYMBOLS:
                    walk(img, e.out_state, 1, used + 1, p)

    for a0 in _spatial(accept_region.atoms, "the probed region"):
        walk(a0, start, 0, 0, _ONE)
    return sorted(out)


# --- plugging -------------------------------------------------------------------


def plug(f: GraphingRep, g: GraphingRep, cut: CutSpec,
         opts: ExecOptions = ExecOptions()) -> GraphingRep:
    """Execute two graphings against each other along a cut.

    The result lives on the two rests with the product dialect (pairs in
    sorted order).  One walk is seeded at every rest atom at every dialect
    pair, on the turn of the side the atom belongs to, and each maximal
    alternating path family through the cut contributes its source piece,
    carried along the walk and pulled back only at moves that narrow the
    family (never at the exit), weighted by the product of the
    probabilities along it, with cyclic mass summed exactly.  A side that
    never speaks keeps its state, so it passes through diagonally.  Families
    ending on the same dialect pairs, composite and flag are refined
    together, so pieces that overlap add their weights; a family of one
    piece is kept as it is, and so is the mass of a cell only one piece
    covers.  A move out of a seed takes its edge's realizer as the
    composite, composing nothing, and masses are tested against zero and
    ``(0, 1]`` on their numerator and denominator.  The node budget counts
    every configuration of the walk, seeds included.
    """
    whole_f = Region(tuple(cut.left_rest.atoms) + tuple(cut.cut.atoms))
    whole_g = Region(tuple(cut.cut.atoms) + tuple(cut.right_rest.atoms))
    if not ae_equal(f.support, whole_f):
        raise ValidationError("left support must be the left rest plus the cut")
    if not ae_equal(g.support, whole_g):
        raise ValidationError("right support must be the cut plus the right rest")
    if not disjoint_ae(cut.left_rest, cut.right_rest):
        raise ValidationError("the two rests overlap")
    _spatial(whole_f.atoms + cut.right_rest.atoms, "the cut and the rests")

    sides = (f, g)
    pairs = sorted(product(f.dialect, g.dialect))
    pair_index = {pr: i for i, pr in enumerate(pairs)}
    zones: dict = {}  # symbol -> [(kind, atom)]: only these can meet an image
    for kind, atoms in (("node", cut.cut.atoms),
                        ("exit", cut.left_rest.atoms + cut.right_rest.atoms)):
        for a in atoms:
            zones.setdefault(a.sym, []).append((kind, a))

    # key: (in pair, turn, atom, cur, comp, flag, piece).  ``in pair`` is the
    # index of the family's starting dialect pair, ``atom`` is where the
    # family stands, ``cur`` holds both sides' current dialect states, and
    # ``piece`` is the part of the rest atom the family started from (its
    # origin, the one rest atom the piece lies in) that ``comp`` maps onto
    # ``atom``, at the cylinder the family tracks: a function of the other
    # fields, so the node budget counts the same configurations with it as
    # without.  Each move narrows the family to the part of the edge source
    # it meets, splits the image against the cut (a turn of the other side)
    # and the rests (an exit), and deepens the piece's cylinder as pops and
    # narrower targets demand.  A move that narrows nothing keeps the piece,
    # a move out of a seed takes the moved piece from ``GraphingRep.moves``,
    # and any other move pulls the piece back once, at that move; an exit
    # reads its piece and pulls nothing back.
    identity = Realizer()

    def expand(key):
        in_i, turn, atom, cur, comp, flag, piece = key
        cyl = atom.cyl
        moves = sides[turn].moves(cur[turn], atom.sym, atom.box, cyl)
        for e, grow, sym, box, moved in moves:
            r = e.realizer
            nxt = r if comp is identity else comp.compose(r)
            if max(nxt.pops, len(nxt.pushes)) > opts.stack_depth:
                if opts.strict:
                    raise TruncationError("composite stack action outgrew the budget")
                continue
            new_cur = (e.out_state, cur[1]) if turn == 0 else (cur[0], e.out_state)
            img = _atom(sym, box, r.pushes + (cyl + grow)[r.pops:], 0)
            deeper = piece.cyl + grow
            for kind, target in zones.get(sym, ()):
                part = img.intersect(target)
                if part is None:
                    continue
                piece_cyl = deeper + part.cyl[len(img.cyl):]
                new_comp = nxt.normalized_on(piece_cyl)
                if part is img and not grow and moved is None:
                    new_piece = piece  # the whole atom lands inside the zone
                elif part is img and comp is identity:
                    # out of a seed, whose atom and piece are its origin
                    new_piece = _atom(piece.sym, piece.box if moved is None
                                      else moved, piece_cyl, 0)
                else:
                    new_piece = new_comp.preimage_atom(
                        _atom(piece.sym, piece.box, piece_cyl, 0), part)
                    if new_piece is None:
                        raise ClosureViolation("a family lost its source piece")
                yield kind, e.weight.p, (in_i, 1 - turn, part, new_cur, new_comp,
                                         flag | e.weight.flag, new_piece)

    seeds = [(in_i, side, a, pr, identity, 0, a)
             for side, rest in enumerate((cut.left_rest, cut.right_rest))
             for a in rest.atoms for in_i, pr in enumerate(pairs)]
    families: dict = {}  # (in pair, out pair, composite, flag) -> [(piece, mass)]
    # every move is one edge of one side
    for mass, (in_i, _, _, cur, comp, flag, piece) in _solve_walk(
            seeds, expand, "plug", lcm(f.weight_den, g.weight_den)):
        if not mass.numerator:
            continue
        families.setdefault((in_i, pair_index[cur], comp, flag),
                            []).append((piece, mass))

    rows = []  # (cell, in pair, out pair, composite, flag, mass)
    for (in_i, out_i, comp, flag), found in families.items():
        # One piece, never null, is its own refinement; more are refined
        # together and their masses added per cell, where more than one
        # piece covers it.
        if len(found) > 1:
            cells, carried = refine_regions(found)
            found = zip(cells, (masses[0] if len(masses) == 1
                                else sum(masses, _ZERO) for masses in carried))
        for cell, mass in found:
            if not mass.numerator:
                continue
            if not 0 < mass.numerator <= mass.denominator:
                raise ClosureViolation(f"path mass exceeds one: weight "
                                       f"probability {mass} outside [0,1]")
            rows.append((cell, in_i, out_i, comp, flag, mass))
    den = box_den(row[0] for row in rows)
    rows.sort(key=lambda row: (row[0].sort_key_over(den), *row[1:5]))
    edges = tuple(_cell_edge(*row) for row in rows)
    support = Region(tuple(cut.left_rest.atoms) + tuple(cut.right_rest.atoms))
    return GraphingRep(support, tuple(range(len(pairs))), edges)


def _cell_edge(cell: Atom, in_i: int, out_i: int, comp: Realizer, flag: int,
               mass: Fraction):
    """One edge of ``plug``'s output.  The cell is a positive-measure spatial
    atom and the mass lies in (0, 1], so nothing is checked."""
    source, weight = _new_object(Region), _new_object(Weight)
    _set(source, "atoms", (cell,))
    _set(weight, "p", mass)
    _set(weight, "flag", flag)
    return _edge(source, in_i, out_i, comp, weight)

