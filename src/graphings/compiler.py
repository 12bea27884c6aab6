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
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from math import factorial

from .automata import ACCEPT, INIT, REJECT, Automaton, _format_instr, lookup
from .errors import ValidationError
from .graphing import (MAX_DIALECT_RANGE, Edge, GraphingRep, Weight,
                       format_edge, format_header)
from .realizer import Realizer, perm_apply, swap
from .space import Atom, Region, full_symbol_region, sym_index, sym_of
from .theta import encode_stack_op, split_normal

_RESULT_SYM = {ACCEPT: "a", REJECT: "r"}


@dataclass(frozen=True, slots=True)
class DialectState:
    """One dialect state: control state, head placement, beliefs, last pop."""

    state: str
    coords: tuple  # coords[h-1] = coordinate carrying head h
    read: str      # remembered letter per head
    last: str      # most recently popped stack symbol


@dataclass
class CompiledMachine:
    graphing: GraphingRep
    automaton: Automaton
    dialect_states: tuple
    start_state: int

    @property
    def heads(self) -> int:
        return self.automaton.heads

    @cached_property
    def provenance(self) -> dict:
        """Edge -> list of ``(key, Instruction)``: the table rows behind it.

        Made on first read, by emitting the automaton's edges again with
        recording on and keeping those of this machine's graphing, so a
        pruned machine holds the full machine's, restricted to its edges.
        """
        recorded: dict = {}
        _emit_edges(self.automaton, recorded)
        return {e: recorded[e] for e in self.graphing.edges}

    @cached_property
    def reachable(self) -> GraphingRep:
        """The graphing cut down to the edges reachable from the start state.

        Made on first read; path sums walk it, so they never index the
        edges that no dialogue can reach.
        """
        return prune_reachable(self).graphing

    def label(self, index: int) -> DialectState:
        return self.dialect_states[index]


def _enumerate_dialect(a: Automaton):
    # the dialect is written back as the range 0-(size-1): refuse, before
    # listing any of it, one wider than the graphing parser reads
    size = len(a.states) * factorial(a.heads) * 3 ** a.heads * 3
    if size > MAX_DIALECT_RANGE:
        raise ValidationError(f"{a.heads} heads and {len(a.states)} states give a "
                              f"dialect of {size} states, more than the "
                              f"{MAX_DIALECT_RANGE} a graphing file can name")
    perms = sorted(permutations(range(1, a.heads + 1)))
    reads = ["".join(r) for r in product("*01", repeat=a.heads)]
    states = []
    for q in a.states:
        for coords in perms:
            for read in reads:
                for last in "*01":
                    states.append(DialectState(q, coords, read, last))
    return tuple(states), {d: i for i, d in enumerate(states)}


def _source(sym: str, last: str) -> Region:
    """An edge source: the symbol ``sym`` under the stack cylinder ``last``."""
    return Region((Atom(sym, (), last),))


def compile_automaton(a: Automaton) -> CompiledMachine:
    dialect_states, start, edges = _emit_edges(a)
    graphing = GraphingRep(full_symbol_region(), tuple(range(len(dialect_states))),
                           tuple(edges))
    return CompiledMachine(graphing, a, dialect_states, start)


def _emit_edges(a: Automaton, provenance: dict | None = None):
    """The dialect, start state and edge list of the compiled ``a``.

    With a ``provenance`` dict, each edge's ``(key, Instruction)`` table
    rows are recorded in it as well.
    """
    k = a.heads
    marker = "*" * k
    identity = tuple(range(1, k + 1))
    dialect_states, index = _enumerate_dialect(a)
    start = index[DialectState(INIT, identity, marker, "*")]
    edges: list[Edge] = []
    parts: dict = {}

    def part(make, *args):
        """``make(*args)`` built once.  The edges share few sources, realizers
        and weights, and every copy would stay alive with the machine; each
        stack operation's action is worked out once."""
        value = parts.get((make, *args))
        if value is None:
            value = parts[make, *args] = make(*args)
        return value

    def emit(sym, last, in_state, out, realizer, key, instr):
        edge = Edge(part(_source, sym, last), in_state, out, realizer,
                    part(Weight, instr.prob))
        edges.append(edge)
        if provenance is not None:
            provenance.setdefault(edge, []).append((key, instr))

    def step(src_sym, guard, in_state, coords, read, last, key, t):
        """The edges of row ``t`` fired from ``in_state`` on ``src_sym``: a
        halt lands on its result interval; a move lands on its head's letter
        on coordinate 1, and a pop splits over the symbols ``guard`` allows."""
        if t.next_state in (ACCEPT, REJECT):
            shift = sym_index(_RESULT_SYM[t.next_state]) - sym_index(src_sym)
            out = index[DialectState(t.next_state, coords, read, last)]
            emit(src_sym, guard, in_state, out, part(Realizer, shift), key, t)
            return
        tau = swap(1, coords[t.head - 1])
        out_coords = tuple(perm_apply(tau, c) for c in coords)
        shift = sym_index(sym_of(read[t.head - 1], t.direction)) - sym_index(src_sym)
        pushes, pops = part(split_normal, encode_stack_op(t.stack_op))
        realizer = part(Realizer, shift, tau, (), pops, pushes)
        # a pop is guarded on the symbol it pops, which becomes the last one
        for src_guard, out_last in ([(p, p) for p in guard or "*01"] if pops
                                    else [(guard, last)]):
            out = index[DialectState(t.next_state, out_coords, read, out_last)]
            emit(src_sym, src_guard, in_state, out, realizer, key, t)

    # Start edges: the probe arrives on a result interval with the bottom
    # marker tracked, the machine believing every head reads the marker.
    start_key = (marker, INIT, "*" if (marker, INIT, "*") in a.delta else None)
    for t in lookup(a, marker, INIT, "*"):
        for probe in ("a", "r"):
            step(probe, "*", start, identity, marker, "*", start_key, t)

    # Move and halting edges, one family member per bookkeeping context.
    for key, instrs in a.delta.items():
        read_t, q, last_t = key
        if last_t is None:
            u_range = [u for u in "*01" if (read_t, q, u) not in a.delta]
        else:
            u_range = [last_t]
        for t in instrs:
            for coords in permutations(range(1, k + 1)):
                h1 = coords.index(1) + 1  # head currently on coordinate 1
                src_letter = read_t[h1 - 1]
                for d_src in "io":
                    src_sym = sym_of(src_letter, d_src)
                    for stale in "*01":
                        in_read = read_t[:h1 - 1] + stale + read_t[h1:]
                        for u in u_range:
                            in_state = index[DialectState(q, coords, in_read, u)]
                            step(src_sym, "", in_state, coords, read_t, u, key, t)
    return dialect_states, start, edges


def prune_reachable(m: CompiledMachine) -> CompiledMachine:
    """Restrict to dialect states reachable from the start state."""
    outgoing: dict[int, list[Edge]] = {}
    for e in m.graphing.edges:
        outgoing.setdefault(e.in_state, []).append(e)
    seen = {m.start_state}
    frontier = [m.start_state]
    kept = []
    while frontier:
        s = frontier.pop()
        for e in outgoing.get(s, ()):
            kept.append(e)
            if e.out_state not in seen:
                seen.add(e.out_state)
                frontier.append(e.out_state)
    graphing = GraphingRep(m.graphing.support, tuple(sorted(seen)), tuple(kept))
    return CompiledMachine(graphing, m.automaton, m.dialect_states, m.start_state)


def format_compiled(m: CompiledMachine) -> str:
    """Graphing text with a provenance comment naming each edge's table row.

    Comment lines start with '#' and are skipped by the parser, so the
    output is an ordinary graphing file.
    """
    lines = [f"# compiled from {m.automaton.name or 'unnamed machine'}"]
    lines.extend(format_header(m.graphing))
    for e in m.graphing.sorted_edges():
        for (read, state, last), instr in m.provenance.get(e, ()):
            lines.append(f"# rule {read} | {state} | {last or '-'} -> "
                         f"{_format_instr(instr)}")
        lines.append(format_edge(e))
    return "\n".join(lines) + "\n"
