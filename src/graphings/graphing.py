"""Finite representations of weighted measurable graphs over the symbol space.

A representative holds a support region, a dialect (a finite set of control
states tensored onto the space; the space itself is never enlarged, edges jump
between states), and finitely many edges.  An edge restricts to a source
region at one dialect state, applies a realizer, and lands at another state,
carrying a weight.

A weight is a probability together with a marker flag.  Weights multiply along
paths; the flag is sticky (a path is marked as soon as one of its edges is).

All comparisons are almost-everywhere and respect what edges do as maps, not
how they are written: sources may be carved up differently and stack actions
may pop symbols they immediately push back.  ``equivalent`` decides equality
up to common refinement, ``is_refinement`` the one-sided version.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import FormatError, ValidationError
from .realizer import Realizer, perm_apply, perm_of
from .space import (ONE, ZERO, Region, _atom, _new_object, _set, ae_equal,
                    box_den, expand_prefix, format_region, parse_region,
                    refine_regions, subset_ae)
from . import theta


@dataclass(frozen=True, order=True)
class Weight:
    p: Fraction = ONE
    flag: int = 0

    def __post_init__(self):
        if not isinstance(self.p, Fraction):
            object.__setattr__(self, "p", Fraction(self.p))
        if not ZERO <= self.p <= ONE:
            raise ValidationError(f"weight probability {self.p} outside [0,1]")
        if self.flag not in (0, 1):
            raise ValidationError(f"weight flag must be 0 or 1, got {self.flag}")


WEIGHT_ONE = Weight(ONE, 0)


@dataclass(frozen=True, slots=True)
class Edge:
    source: Region
    in_state: int
    out_state: int
    realizer: Realizer = Realizer()
    weight: Weight = WEIGHT_ONE

    def __post_init__(self):
        _check_source(self.source)

    def image(self) -> Region:
        return self.realizer.apply(self.source)


def _check_source(source: Region) -> Region:
    """Raise unless ``source`` may be an edge source: spatial and with no
    null atom.  Returns it, so a source shared by many edges is checked once."""
    for a in source.atoms:
        if a.state != 0:
            raise ValidationError("edge sources are spatial; state lives in in_state")
        if any(lo == hi for lo, hi, _ in a.box):
            raise ValidationError("edge source atom has measure zero")
    return source


def _edge(source: Region, in_state: int, out_state: int, realizer: Realizer,
          weight: Weight) -> Edge:
    """An edge from parts already valid, spatial and non-null; nothing is
    checked."""
    e = _new_object(Edge)
    _set(e, "source", source)
    _set(e, "in_state", in_state)
    _set(e, "out_state", out_state)
    _set(e, "realizer", realizer)
    _set(e, "weight", weight)
    return e


@dataclass(frozen=True)
class GraphingRep:
    support: Region
    dialect: tuple = (0,)
    edges: tuple = ()

    def __post_init__(self):
        dialect = tuple(sorted(set(self.dialect)))
        if not dialect or any(d < 0 for d in dialect):
            raise ValidationError("dialect must be a nonempty set of natural numbers")
        object.__setattr__(self, "dialect", dialect)
        object.__setattr__(self, "edges", tuple(self.edges))

    def validate(self) -> "GraphingRep":
        """Check the measure-theoretic side conditions; returns self.

        Each check runs once per distinct part object: source-in-support
        once per source, the pop and image checks once per (source,
        realizer) pair.  Edges sharing their parts, as parsed, compiled and
        generated ones do, cost little, and the edge that fails is the one
        that fails when every edge is checked in full.
        """
        states = set(self.dialect)
        for a in self.support.atoms:
            if a.state != 0:
                raise ValidationError("support is spatial; dialect is listed separately")
        # by id: every part stays alive in self.edges meanwhile
        inside, maps_inside = set(), set()
        for e in self.edges:
            if e.in_state not in states or e.out_state not in states:
                raise ValidationError(
                    f"edge states ({e.in_state},{e.out_state}) outside dialect")
            if id(e.source) not in inside:
                if not subset_ae(e.source, self.support):
                    raise ValidationError("edge source leaves the support")
                inside.add(id(e.source))
            pair = (id(e.source), id(e.realizer))
            if pair in maps_inside:
                continue
            # the three child pieces of a popped symbol share one image
            if any(e.realizer.pops > len(a.cyl) for a in e.source.atoms):
                raise ValidationError(f"edge pops {e.realizer.pops} symbols past "
                                      "its source cylinder")
            if not subset_ae(e.image(), self.support):
                raise ValidationError("edge image leaves the support")
            maps_inside.add(pair)
        return self

    def sorted_edges(self) -> tuple:
        """The edges ordered by states, source atoms, realizer and weight;
        each distinct source object's sort key is worked out once."""
        sources = {id(e.source): e.source for e in self.edges}
        den = box_den(a for source in sources.values() for a in source.atoms)
        source_keys = {i: sorted(a.sort_key_over(den) for a in source.atoms)
                       for i, source in sources.items()}

        def key(e: Edge):
            return (e.in_state, e.out_state, source_keys[id(e.source)], e.realizer,
                    e.weight)

        return tuple(sorted(self.edges, key=key))

    def moves(self, state: int, sym: str, box: tuple, cyl: str) -> tuple:
        """Every move out of an atom at a dialect state, computed once.

        Returns ``((edge, grow, image sym, image box, piece box), ...)``:
        ``grow`` is what the moved piece adds to the atom's cylinder
        ``cyl``, the image's cylinder is ``pushes + (cyl + grow)[pops:]``
        under the edge's realizer, and ``piece box`` is the moved piece's
        box, or ``None`` when the move does not narrow ``box``, so the
        table holds no new box for it.  No edge reads or pops past the
        graphing's stack reach (its longest source cylinder or pop count),
        so the rest of the cylinder rides along unchanged and the table's
        key drops it: the table does not grow with the stack.  The atom must
        be spatial.
        """
        table, index, reach = self._move_parts
        key = (state, sym, box, cyl[:reach])
        got = table.get(key)
        if got is None:
            head = _atom(sym, box, key[3], 0)
            got = table[key] = tuple(
                (e, piece.cyl[len(head.cyl):], img.sym, img.box,
                 None if piece.box == box else piece.box)
                for src, e in index.get((state, sym), ())
                if (inter := head.intersect(src)) is not None
                for piece, img in e.realizer.apply_atom(inter))
        return got

    @cached_property
    def _move_parts(self) -> tuple:
        """``moves``' table (filled as atoms arrive), its ``(in_state, sym)``
        edge index and the stack reach, made on first use and kept with the
        representative; equality and hashing still look at the fields only."""
        index: dict = {}
        reach = 0
        for e in self.edges:
            for a in e.source.atoms:
                index.setdefault((e.in_state, a.sym), []).append((a, e))
                reach = max(reach, e.realizer.pops, len(a.cyl))
        return {}, index, reach

    @cached_property
    def weight_den(self) -> int:
        """The lcm of the edge weights' denominators, so that any product of
        ``k`` weights is a multiple of ``1 / weight_den ** k``."""
        return lcm(*(e.weight.p.denominator for e in self.edges))

    @cached_property
    def stack_free(self) -> bool:
        """No edge pops, pushes or guards on a cylinder: no move depends on
        the stack, and every move leaves it alone."""
        return not any(e.realizer.pops or e.realizer.pushes
                       or any(a.cyl for a in e.source.atoms) for e in self.edges)


# --- per-cell comparisons -----------------------------------------------------
#
# ``equivalent`` splits every edge source as deep as its realizer pops, so the
# realizer's normal form is fixed on each piece, refines all pieces into
# elementary cells keyed by (spatial atom, in_state), and compares what each
# cell carries.  The other two predicates look at where sources meet, by
# pairwise intersection within an (in_state, symbol) group, and refine only
# those.


def _source_groups(g: GraphingRep) -> list:
    """Per ``(in_state, symbol)``: each source atom object, with the total
    probability of the edges on it as an int over ``g.weight_den``."""
    den = g.weight_den
    groups: dict = defaultdict(dict)
    for e in g.edges:
        p = e.weight.p
        units = p.numerator * (den // p.denominator)
        for a in e.source.atoms:
            group = groups[(e.in_state, a.sym)]
            got = group.get(id(a))
            group[id(a)] = (a, units if got is None else got[1] + units)
    return [list(group.values()) for group in groups.values()]


def _meeting(members: list) -> list:
    """The members whose source atom meets another member's."""
    hit = set()
    for i, (a, _) in enumerate(members):
        for j in range(i + 1, len(members)):
            if a.intersect(members[j][0]) is not None:
                hit.update((i, j))
    return [members[i] for i in sorted(hit)]


def equivalent(g1: GraphingRep, g2: GraphingRep) -> bool:
    """Equality up to common refinement of edge sources."""
    if g1.dialect != g2.dialect:
        return False
    if not ae_equal(g1.support, g2.support):
        return False
    items = []  # (piece at in_state, (graphing index, payload))
    for gi, g in enumerate((g1, g2)):
        for e in g.edges:
            r = e.realizer
            for atom in e.source.atoms:
                for cyl in expand_prefix(atom.cyl, r.pops):
                    payload = (e.out_state, r.normalized_on(cyl), e.weight)
                    items.append((_atom(atom.sym, atom.box, cyl, e.in_state),
                                  (gi, payload)))
    _, carried = refine_regions(items)
    return all(sorted(p for gi, p in payloads if gi == 0)
               == sorted(p for gi, p in payloads if gi == 1)
               for payloads in carried)


def is_deterministic(g: GraphingRep) -> bool:
    """At most one edge through every point at every state, with probability 1.

    With every probability 1, two edges through one point put 2 on it, so
    this is sub-probability at unit weights.  Every weight is 1 when none is
    0 and their denominators' lcm is 1.
    """
    return (g.weight_den == 1 and all(e.weight.p.numerator for e in g.edges)
            and is_subprobabilistic(g))


def is_subprobabilistic(g: GraphingRep) -> bool:
    """Total outgoing probability at most 1 through every point at every state.

    Sources in different ``(in_state, symbol)`` groups never meet.  Within
    a group the edges on one source atom object add up, and no total may
    pass 1; only points where distinct sources meet can carry more: those
    sources are refined into cells, unless their totals add up to at most 1
    anyway.  Probabilities add up as ints over ``g.weight_den``.
    """
    one = g.weight_den
    for members in _source_groups(g):
        if any(p > one for _, p in members):
            return False
        meeting = _meeting(members)
        if sum(p for _, p in meeting) <= one:
            continue
        _, carried = refine_regions(meeting)
        if any(sum(units) > one for units in carried):
            return False
    return True


# --- refinement ----------------------------------------------------------------


def _same_map_on(fe: Edge, ge: Edge) -> bool:
    """Do the two realizers agree pointwise a.e. on the source of ``fe``?"""
    if fe.realizer == ge.realizer:
        return True
    depth = max(fe.realizer.pops, ge.realizer.pops)
    for atom in fe.source.atoms:
        for cyl in expand_prefix(atom.cyl, depth):
            if fe.realizer.normalized_on(cyl) != ge.realizer.normalized_on(cyl):
                return False
    return True


def is_refinement(fine: GraphingRep, coarse: GraphingRep) -> bool:
    """Is ``fine`` obtained from ``coarse`` by partitioning edge sources?

    Every fine edge must be a restriction of a coarse edge with the same
    states, weight and map, and the fine edges assigned to one coarse edge
    must tile its source exactly.
    """
    if fine.dialect != coarse.dialect:
        return False
    if not ae_equal(fine.support, coarse.support):
        return False
    groups: dict = defaultdict(lambda: ([], []))
    for e in fine.edges:
        groups[(e.in_state, e.out_state, e.weight)][0].append(e)
    for e in coarse.edges:
        groups[(e.in_state, e.out_state, e.weight)][1].append(e)
    for f_edges, g_edges in groups.values():
        if not _assignable(f_edges, g_edges):
            return False
    return True


def _assignable(f_edges, g_edges) -> bool:
    compatible = [[j for j, ge in enumerate(g_edges)
                   if subset_ae(fe.source, ge.source) and _same_map_on(fe, ge)]
                  for fe in f_edges]
    if any(not c for c in compatible):
        return False
    # per edge, f's then g's: the cells of its source
    edges = f_edges + g_edges
    _, carried = refine_regions([(a, k) for k, e in enumerate(edges)
                                 for a in e.source.atoms])
    covers = [set() for _ in edges]
    for cell, sources in enumerate(carried):
        for k in sources:
            covers[k].add(cell)
    f_cells, remaining = covers[:len(f_edges)], covers[len(f_edges):]

    def assign(i: int) -> bool:
        if i == len(f_edges):
            return all(not r for r in remaining)
        for j in compatible[i]:
            if f_cells[i] <= remaining[j]:
                remaining[j] -= f_cells[i]
                if assign(i + 1):
                    return True
                remaining[j] |= f_cells[i]
        return False

    return assign(0)


# --- text form ------------------------------------------------------------------
#
#   dialect: 0-3,7
#   support: <region>
#   edge: <region> @ <in> @ <out> @ <realizer> @ <weight>
#
# Realizers are space-separated tokens: s<shift>, p(<cycle>)(<cycle>),
# b<coord>:<amount>,..., t<stack word> ('e' for the empty word), or 'id'.
# Weights are rationals with a trailing '!' when the flag is set.


def format_weight(w: Weight) -> str:
    return str(w.p) + ("!" if w.flag else "")


def parse_weight(text: str) -> Weight:
    text = text.strip()
    flag = 1 if text.endswith("!") else 0
    try:
        return Weight(Fraction(text[:-1] if flag else text), flag)
    except (ValueError, ZeroDivisionError, ValidationError) as exc:
        raise FormatError(f"bad weight {text!r}: {exc}") from None


def _perm_cycles(perm: tuple) -> str:
    seen, out = set(), []
    for start, _ in perm:
        if start in seen:
            continue
        cycle, c = [start], perm_apply(perm, start)
        seen.add(start)
        while c != start:
            cycle.append(c)
            seen.add(c)
            c = perm_apply(perm, c)
        out.append("(" + ",".join(map(str, cycle)) + ")")
    return "".join(out)


def format_realizer(r: Realizer) -> str:
    parts = []
    if r.shift:
        parts.append(f"s{r.shift}")
    if r.perm:
        parts.append("p" + _perm_cycles(r.perm))
    if r.box_shift:
        parts.append("b" + ",".join(f"{c}:{n}" if d == 1 else f"{c}:{n}/{d}"
                                    for c, n, d in r.box_shift))
    if r.pops or r.pushes:
        parts.append("t" + theta.format_theta(r.theta_word))
    return " ".join(parts) if parts else "id"


def parse_realizer(text: str) -> Realizer:
    text = text.strip()
    if text == "id":
        return Realizer()
    shift, perm, box_shift, pops, pushes = 0, (), [], 0, ""
    for tok in text.split():
        try:
            if tok.startswith("s"):
                shift = int(tok[1:])
            elif tok.startswith("p"):
                mapping: dict = {}
                body = tok[1:]
                if not (body.startswith("(") and body.endswith(")")):
                    raise ValueError("cycles expected")
                for cyc in body[1:-1].split(")("):
                    nums = [int(x) for x in cyc.split(",")]
                    for a, b in zip(nums, nums[1:] + nums[:1]):
                        mapping[a] = b
                perm = perm_of(mapping)
            elif tok.startswith("b"):
                for part in tok[1:].split(","):
                    c, a = part.split(":")
                    box_shift.append((int(c), Fraction(a)))
            elif tok.startswith("t"):
                pushes, pops = theta.split_normal(theta.reduce(theta.parse_theta(tok[1:])))
            else:
                raise ValueError(f"unknown token {tok!r}")
        except (ValueError, ZeroDivisionError, ValidationError) as exc:
            raise FormatError(f"bad realizer {text!r}: {exc}") from None
    try:
        return Realizer(shift, perm, tuple(box_shift), pops, pushes)
    except ValidationError as exc:
        raise FormatError(f"bad realizer {text!r}: {exc}") from None


def _format_ints(values) -> str:
    values = sorted(values)
    runs, start, prev = [], values[0], values[0]
    for v in values[1:]:
        if v == prev + 1:
            prev = v
            continue
        runs.append((start, prev))
        start = prev = v
    runs.append((start, prev))
    return ",".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs)


# Most states a dialect line may name, duplicates included.  The largest
# compiled corpus dialect has 6,318 states; each range is counted before it
# is expanded.
MAX_DIALECT_RANGE = 100_000


def _parse_ints(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part:
            a, b = part.split("-")
            lo, hi = int(a), int(b)
            if hi < lo:
                raise FormatError(f"descending range {part!r}")
        else:
            lo = hi = int(part)
        if len(out) + hi - lo >= MAX_DIALECT_RANGE:
            raise FormatError(f"{part!r} takes the dialect past {MAX_DIALECT_RANGE} "
                              f"states, the widest range a line may name")
        out.extend(range(lo, hi + 1))
    return out


def format_edges(edges) -> list:
    """The ``edge:`` line of each edge, in order.  Each distinct source,
    realizer and weight object is formatted once."""
    texts: dict = {}  # by id: every part stays alive in ``edges`` meanwhile

    def text(part, fmt) -> str:
        got = texts.get(id(part))
        if got is None:
            got = texts[id(part)] = fmt(part)
        return got

    return [f"edge: {text(e.source, format_region)} @ {e.in_state} @ {e.out_state}"
            f" @ {text(e.realizer, format_realizer)} @ {text(e.weight, format_weight)}"
            for e in edges]


def format_header(g: GraphingRep) -> list:
    """The ``dialect:`` and ``support:`` lines of a graphing file."""
    return [f"dialect: {_format_ints(g.dialect)}",
            f"support: {format_region(g.support)}"]


def format_graphing(g: GraphingRep) -> str:
    lines = format_header(g)
    lines.extend(format_edges(g.sorted_edges()))
    return "\n".join(lines) + "\n"


def _shared(table: dict, token: str, parse):
    """``parse(token)``, parsed once per distinct token of one file."""
    got = table.get(token)
    if got is None:
        got = table[token] = parse(token)
    return got


def _parse_source(text: str) -> Region:
    return _check_source(parse_region(text))


def parse_graphing(text: str) -> GraphingRep:
    """Read a graphing file.

    Within one call each distinct source-region, realizer and weight token
    is parsed, and each source checked as an edge source, once: at its
    first line, so a bad token fails there, and every error names its
    line.  Every edge carrying a token shares its one object.
    """
    dialect, support, edges = None, None, []
    sources, realizers, weights = {}, {}, {}  # token -> its one object
    headers = set()  # header keys read so far: each may appear once
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise FormatError(f"line {ln}: expected 'key: value'")
        key, value = line.split(":", 1)
        key, value = key.strip(), value.strip()
        try:
            if key in ("dialect", "support"):
                if key in headers:
                    raise FormatError(f"duplicate '{key}:' line")
                headers.add(key)
            if key == "dialect":
                dialect = tuple(_parse_ints(value))
            elif key == "support":
                support = parse_region(value)
            elif key == "edge":
                fields = [f.strip() for f in value.split("@")]
                if len(fields) != 5:
                    raise FormatError("edge needs 5 fields separated by '@'")
                source = _shared(sources, fields[0], _parse_source)
                realizer = _shared(realizers, fields[3], parse_realizer)
                weight = _shared(weights, fields[4], parse_weight)
                edges.append(_edge(source, int(fields[1]), int(fields[2]),
                                   realizer, weight))
            else:
                raise FormatError(f"unknown key {key!r}")
        except (ValueError, ValidationError, FormatError) as exc:
            raise FormatError(f"line {ln}: {exc}") from None
    if dialect is None or support is None:
        raise FormatError("graphing needs 'dialect:' and 'support:' lines")
    try:
        return GraphingRep(support, dialect, tuple(edges))
    except ValidationError as exc:
        raise FormatError(str(exc)) from None
