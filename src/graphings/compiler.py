"""Compilation of multihead automata into symbolic dialogue graphings.

A compiled machine plays the answering role against a word representation.
Its dialect tracks everything the control needs between answers: the state,
which coordinate currently carries which head, the remembered letter under
every head, and the most recently popped stack symbol.  The head involved in
the last exchange always sits on coordinate 1, so every move edge composes a
transposition bringing the newly active head there before the answer arrives.

Edges come in three shapes.  Start edges probe the run from either result
interval under the bottom stack marker.  Move edges realize one table row for
every bookkeeping context it can fire in: the coordinate assignment, the
direction the previous answer arrived with, the stale remembered letter of the
previously active head, and the applicable last-popped symbols (pop rows split
further over the symbol actually popped, guarded by its cylinder).  Halting
edges land in the result intervals without moving anything.

One step builds the edges of a table row in every shape; its stack action
is the row's operation as ``theta`` encodes it, split into pushes and pops.

A run only meets the dialect states its start state reaches, so compiling
emits just those: from the start state, each state's firing rows are
stepped and every newly met state is visited in turn, which lists the edges
exactly as pruning the whole graphing would.  The whole graphing (every
row in every bookkeeping context) is emitted only when something reads it;
path sums, ``membership`` and the CLI's ``accept`` and ``dump --word``
never do.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from math import factorial

from .automata import (ACCEPT, INIT, REJECT, Automaton, _format_instr,
                       firing_key)
from .errors import ValidationError
from .graphing import (MAX_DIALECT_RANGE, Edge, GraphingRep, Weight, _edge,
                       format_edges, format_header)
from .realizer import Realizer, perm_apply, swap
from .space import (Atom, Region, built_once, full_symbol_region, sym_index,
                    sym_of)
from .theta import encode_stack_op, split_normal

_RESULT_SYM = {ACCEPT: "a", REJECT: "r"}


@dataclass(frozen=True, slots=True)
class DialectState:
    """One dialect state: control state, head placement, beliefs, last pop."""

    state: str
    coords: tuple  # coords[h-1] = coordinate carrying head h
    read: str      # remembered letter per head
    last: str      # most recently popped stack symbol


class _Dialect:
    """The numbering of a machine's dialect states.

    States are numbered by control state (in the machine's order), then
    head placement (sorted), remembered letters and last pop.  A number is
    worked out from the state's fields, so no state is listed until one is
    asked for; a dialect wider than a graphing file can name
    (``MAX_DIALECT_RANGE``) is refused before that.
    """

    def __init__(self, a: Automaton):
        self.size = len(a.states) * factorial(a.heads) * 3 ** a.heads * 3
        if self.size > MAX_DIALECT_RANGE:
            raise ValidationError(f"{a.heads} heads and {len(a.states)} states give a "
                                  f"dialect of {self.size} states, more than the "
                                  f"{MAX_DIALECT_RANGE} a graphing file can name")
        self.states = a.states
        self.perms = sorted(permutations(range(1, a.heads + 1)))
        self.reads = ["".join(r) for r in product("*01", repeat=a.heads)]
        self.ranks = tuple({x: i for i, x in enumerate(xs)}
                           for xs in (self.states, self.perms, self.reads, "*01"))

    def number(self, d: DialectState) -> int:
        qs, ps, rs, ls = self.ranks
        return ((qs[d.state] * len(ps) + ps[d.coords]) * len(rs) + rs[d.read]) * 3 \
            + ls[d.last]

    def label(self, index: int) -> DialectState:
        index, last = divmod(index, 3)
        index, read = divmod(index, len(self.reads))
        state, coords = divmod(index, len(self.perms))
        return DialectState(self.states[state], self.perms[coords],
                            self.reads[read], "*01"[last])


@dataclass
class CompiledMachine:
    """A machine compiled into a graphing over its dialect.

    ``CompiledMachine(automaton)`` compiles: it finds the start state and
    emits the ``reachable`` graphing, the edges the start state reaches,
    which is all any walk reads.  The whole ``graphing`` is emitted on
    first read, and so is ``provenance``; reading provenance first fills
    both from one pass.  ``dataclasses.replace`` compiles again, so the
    copy walks a reachable graphing, and a move table, of its own.
    """

    automaton: Automaton

    def __post_init__(self):
        self._dialect = _Dialect(self.automaton)
        self.start_state, edges = _emit_edges(self.automaton, self._dialect,
                                              reachable=True)
        dialect = {self.start_state, *(e.out_state for e in edges)}
        self.reachable = GraphingRep(full_symbol_region(), tuple(sorted(dialect)),
                                     tuple(edges))

    @cached_property
    def graphing(self) -> GraphingRep:
        """Every edge of the compiled machine."""
        return self._whole(_emit_edges(self.automaton, self._dialect)[1])

    def _whole(self, edges: list) -> GraphingRep:
        return GraphingRep(full_symbol_region(), tuple(range(self._dialect.size)),
                           tuple(edges))

    @cached_property
    def provenance(self) -> dict:
        """Edge -> list of ``(key, Instruction)``: the table rows behind it.

        Made on first read, by emitting the automaton's edges with recording
        on; the same pass builds the whole graphing if nothing has read it
        yet.
        """
        recorded: dict = {}
        _, edges = _emit_edges(self.automaton, self._dialect, recorded)
        if "graphing" not in vars(self):
            self.graphing = self._whole(edges)
        return recorded


def _source(sym: str, last: str) -> Region:
    """An edge source: the symbol ``sym`` under the stack cylinder ``last``."""
    return Region((Atom(sym, (), last),))


def _move_action(head: int, coords: tuple, stack_op: str):
    """A move of ``head`` from the placement ``coords``: the transposition
    bringing it to coordinate 1, the placement after it, and the stack
    action as pushes and pops."""
    tau = swap(1, coords[head - 1])
    return (tau, tuple(perm_apply(tau, c) for c in coords),
            split_normal(encode_stack_op(stack_op)))


def compile_automaton(a: Automaton) -> CompiledMachine:
    return CompiledMachine(a)


def _emit_edges(a: Automaton, dialect: _Dialect, provenance: dict | None = None,
                reachable: bool = False):
    """The start state and edge list of the compiled ``a``.

    Every edge, or with ``reachable`` those the start state reaches, listed
    as a depth-first prune of the whole list keeps them: each state's edges
    in the order the whole list has them, the states in depth-first order
    from the start.
    With a ``provenance`` dict, each edge's ``(key, Instruction)`` table
    rows are recorded in it as well.
    """
    k = a.heads
    marker = "*" * k
    identity = tuple(range(1, k + 1))
    number = dialect.number
    start = number(DialectState(INIT, identity, marker, "*"))
    edges: list[Edge] = []
    # The edges share few sources, realizers and weights, and every copy
    # would stay alive with the machine; each move's action is worked out once.
    parts: dict = {}

    def emit(sym, last, in_state, out, realizer, key, instr, weight):
        edge = _edge(built_once(parts, _source, sym, last), in_state, out, realizer,
                     weight)
        edges.append(edge)
        if provenance is not None:
            provenance.setdefault(edge, []).append((key, instr))

    def step(src_sym, guard, in_state, coords, read, last, key, t, weight):
        """The edges of row ``t``, of weight ``weight``, fired from
        ``in_state`` on ``src_sym``: a halt lands on its result interval; a
        move lands on its head's letter on coordinate 1, and a pop splits
        over the symbols ``guard`` allows."""
        if t.next_state in (ACCEPT, REJECT):
            shift = sym_index(_RESULT_SYM[t.next_state]) - sym_index(src_sym)
            out = number(DialectState(t.next_state, coords, read, last))
            emit(src_sym, guard, in_state, out, built_once(parts, Realizer, shift), key,
                 t, weight)
            return
        tau, out_coords, (pushes, pops) = built_once(parts, _move_action, t.head,
                                                     coords, t.stack_op)
        shift = sym_index(sym_of(read[t.head - 1], t.direction)) - sym_index(src_sym)
        realizer = built_once(parts, Realizer, shift, tau, (), pops, pushes)
        # a pop is guarded on the symbol it pops, which becomes the last one
        for src_guard, out_last in ([(p, p) for p in guard or "*01"] if pops
                                    else [(guard, last)]):
            out = number(DialectState(t.next_state, out_coords, read, out_last))
            emit(src_sym, src_guard, in_state, out, realizer, key, t, weight)

    # Start edges: the probe arrives on a result interval with the bottom
    # marker tracked, the machine believing every head reads the marker.
    start_key = firing_key(a, marker, INIT, "*")
    for t in a.delta.get(start_key, ()):
        for probe in ("a", "r"):
            step(probe, "*", start, identity, marker, "*", start_key, t,
                 built_once(parts, Weight, t.prob))

    if reachable:
        # Move and halting edges out of each state the start state reaches,
        # found depth first as the edges are emitted.  A row fires from a
        # state whose letters it agrees with off the head on coordinate 1,
        # so the rows are filed, in table order, under each head they may
        # leave out.
        rows: dict = {}
        for key, instrs in a.delta.items():
            read_t, q, _ = key
            weighted = [(t, built_once(parts, Weight, t.prob)) for t in instrs]
            for h in range(k):
                rows.setdefault((q, h, read_t[:h] + read_t[h + 1:]), []).append(
                    (key, weighted))
        seen = {start}
        frontier = [start]
        done = 0
        while frontier:
            s = frontier.pop()
            d = dialect.label(s)
            h = d.coords.index(1)  # head h + 1 sits on coordinate 1
            for key, instrs in rows.get((d.state, h, d.read[:h] + d.read[h + 1:]), ()):
                read_t, q, _ = key
                if firing_key(a, read_t, q, d.last) != key:
                    continue
                for t, weight in instrs:
                    for d_src in "io":
                        step(sym_of(read_t[h], d_src), "", s, d.coords, read_t,
                             d.last, key, t, weight)
            for e in edges[done:]:
                if e.out_state not in seen:
                    seen.add(e.out_state)
                    frontier.append(e.out_state)
            done = len(edges)
        return start, edges

    # Move and halting edges, one family member per bookkeeping context.
    for key, instrs in a.delta.items():
        read_t, q, _ = key
        u_range = [u for u in "*01" if firing_key(a, read_t, q, u) == key]
        for t in instrs:
            weight = built_once(parts, Weight, t.prob)
            for coords in permutations(range(1, k + 1)):
                h1 = coords.index(1) + 1  # head currently on coordinate 1
                src_letter = read_t[h1 - 1]
                for d_src in "io":
                    src_sym = sym_of(src_letter, d_src)
                    for stale in "*01":
                        in_read = read_t[:h1 - 1] + stale + read_t[h1:]
                        for u in u_range:
                            in_state = number(DialectState(q, coords, in_read, u))
                            step(src_sym, "", in_state, coords, read_t, u, key, t,
                                 weight)
    return start, edges


def prune_reachable(m: CompiledMachine) -> CompiledMachine:
    """A fresh compile of ``m``'s machine whose graphing is its reachable one."""
    lean = CompiledMachine(m.automaton)
    lean.graphing = lean.reachable
    return lean


def format_compiled(m: CompiledMachine) -> str:
    """Graphing text with a provenance comment naming each edge's table row.

    Comment lines start with '#' and are skipped by the parser, so the
    output is an ordinary graphing file.  Provenance is read first, so one
    pass emits it and the whole graphing.
    """
    provenance = m.provenance
    lines = [f"# compiled from {m.automaton.name or 'unnamed machine'}"]
    lines.extend(format_header(m.graphing))
    edges = m.graphing.sorted_edges()
    for e, text in zip(edges, format_edges(edges)):
        for (read, state, last), instr in provenance.get(e, ()):
            lines.append(f"# rule {read} | {state} | {last or '-'} -> "
                         f"{_format_instr(instr)}")
        lines.append(text)
    return "\n".join(lines) + "\n"
