"""The measured space underlying every graphing, with a symbolic region calculus.

Points live in ``Z x [0,1]^N x {*,0,1}^N``: a real line carved into unit
intervals that name protocol symbols, a countable product of unit intervals
(one per tape head, plus slack), and a ternary sequence space holding a stack.
Everything here is finitely represented: a region is a finite list of atoms,
an atom is a symbol interval times a rational box times a cylinder.  All
measures are exact rationals; the cylinder over a prefix ``w`` has measure
``3**-len(w)``.

Equality of regions is always "almost everywhere": shared interval endpoints
carry no measure and are ignored throughout.

Text grammar (used by the file formats in :mod:`graphings.graphing` and by the
command line tools)::

    region   := atom (';' atom)*
    atom     := SYM '|' box '|' cyl '|' state
    SYM      := '*i' | '*o' | '0i' | '0o' | '1i' | '1o' | 'a' | 'r'
    box      := '-' | interval ('x' interval)*
    interval := '[' rational ',' rational ']'
    cyl      := '-' | word over '*01'
    state    := integer

``-`` denotes the full box (no tracked coordinates) or the full cylinder
(empty prefix).  Example: ``a|[0,1/2]|*0|0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import FormatError, ValidationError, check_type

# The fixed injection of the eight protocol symbols into unit intervals of the
# real line, in this order.  Index k occupies [k, k+1).  The first six form
# the dialogue alphabet (symbol read x direction); 'a' and 'r' carry results.
SYMBOLS = ("*i", "*o", "0i", "0o", "1i", "1o", "a", "r")
EXT_SYMBOLS = SYMBOLS[:6]
RESULT_SYMBOLS = ("a", "r")

_SYM_INDEX = {s: k for k, s in enumerate(SYMBOLS)}

ZERO = Fraction(0)
ONE = Fraction(1)


def sym_index(sym: str) -> int:
    try:
        return _SYM_INDEX[sym]
    except KeyError:
        raise ValidationError(f"unknown symbol {sym!r}") from None


def sym_shift(sym: str, z: int) -> str:
    """Symbol occupying the interval ``z`` steps to the right of ``sym``."""
    k = sym_index(sym) + z
    if not 0 <= k < len(SYMBOLS):
        raise ValidationError(f"shift {z} moves {sym!r} outside the symbol range")
    return SYMBOLS[k]


def sym_of(char: str, direction: str) -> str:
    """Dialogue symbol for a tape letter and direction ('in' receives, 'out' asks)."""
    if char not in "*01" or direction not in ("i", "o"):
        raise ValidationError(f"bad dialogue symbol ({char!r},{direction!r})")
    return char + direction


class Interval(tuple):
    """A closed rational subinterval of [0,1], kept as ``[a/d, b/d]``.

    The three ints ``(a, b, d)`` are in lowest terms, ``gcd(a, b, d) == 1``,
    so equal intervals are equal tuples, and they compare and hash as such.
    Intervals have no order; ``lo`` and ``hi`` are ``Fraction``s.
    """

    __slots__ = ()

    def __new__(cls, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if not ZERO <= lo <= hi <= ONE:
            raise ValidationError(f"interval [{lo},{hi}] not within [0,1]")
        # Over the lcm of two reduced denominators the form is already lowest.
        d = lcm(lo.denominator, hi.denominator)
        return _new_tuple(cls, (lo.numerator * (d // lo.denominator),
                                hi.numerator * (d // hi.denominator), d))

    def __getnewargs__(self):
        return self.lo, self.hi

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    @property
    def lo(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def hi(self) -> Fraction:
        return Fraction(self[1], self[2])

    def intersect(self, other: "Interval") -> "Interval | None":
        a1, b1, d1 = self
        a2, b2, d2 = other
        d = lcm(d1, d2)
        s1, s2 = d // d1, d // d2
        lo, hi = max(a1 * s1, a2 * s2), min(b1 * s1, b2 * s2)
        if lo >= hi:  # touching endpoints are a null set
            return None
        return _interval(lo, hi, d)

    def translate(self, num: int, den: int) -> "Interval":
        """The interval moved by ``num / den``, for ints with ``den > 0``."""
        a, b, d = self
        d2 = lcm(d, den)
        s, shift = d2 // d, num * (d2 // den)
        lo, hi = a * s + shift, b * s + shift
        if lo < 0 or hi > d2:
            raise ValidationError(f"translating [{self.lo},{self.hi}] by "
                                  f"{Fraction(num, den)} leaves the unit interval")
        return _interval(lo, hi, d2)


_new_tuple = tuple.__new__


def _interval(a: int, b: int, d: int) -> Interval:
    """``[a/d, b/d]`` for ``0 <= a <= b <= d``, reduced but not checked."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _new_tuple(Interval, (a, b, d))


FULL = Interval(ZERO, ONE)


def _canon_box(box) -> tuple:
    """Box with trailing full intervals removed (the implicit tail)."""
    box = tuple(box)
    n = len(box)
    while n and box[n - 1] == FULL:
        n -= 1
    return box[:n]


def _box_parts(box, den: int = 1) -> tuple:
    """Measure of a box, divided by ``den``, as ``(numerator, denominator)``
    ints, not reduced."""
    num = 1
    for a, b, d in box:
        num *= b - a
        den *= d
    return num, den


def box_get(box, coord: int) -> Interval:
    """Interval at 1-based coordinate ``coord`` (full beyond the tracked ones)."""
    return box[coord - 1] if coord <= len(box) else FULL


def box_intersect(b1, b2):
    n = max(len(b1), len(b2))
    out = []
    for c in range(1, n + 1):
        iv = box_get(b1, c).intersect(box_get(b2, c))
        if iv is None:
            return None
        out.append(iv)
    return _canon_box(out)


def cyl_intersect(u: str, v: str) -> str | None:
    """Common refinement of two cylinder prefixes, or None when disjoint."""
    if u.startswith(v):
        return u
    if v.startswith(u):
        return v
    return None


@dataclass(frozen=True, slots=True)
class Atom:
    """One measurable brick: symbol interval x box x cylinder, at a dialect state."""

    sym: str
    box: tuple = ()
    cyl: str = ""
    state: int = 0

    def __post_init__(self):
        sym_index(self.sym)
        box = tuple(self.box)
        if not all(isinstance(iv, Interval) for iv in box):
            raise ValidationError("an atom's box must be a tuple of intervals")
        object.__setattr__(self, "box", _canon_box(box))
        check_type("an atom's cylinder", self.cyl, str)
        if any(ch not in "*01" for ch in self.cyl):
            raise ValidationError(f"cylinder prefix {self.cyl!r} not over *01")
        check_type("an atom's state", self.state, int)
        if self.state < 0:
            raise ValidationError("dialect state must be a natural number")

    @property
    def measure(self) -> Fraction:
        return Fraction(*_box_parts(self.box, 3 ** len(self.cyl)))

    def intersect(self, other: "Atom") -> "Atom | None":
        """The common part, or None when it is null; never a null atom.  An
        atom of positive measure meets itself in itself."""
        if other is self:
            return None if any(a == b for a, b, _ in self.box) else self
        if self.sym != other.sym or self.state != other.state:
            return None
        cyl = cyl_intersect(self.cyl, other.cyl)
        if cyl is None:
            return None
        if self.box and other.box:
            box = box_intersect(self.box, other.box)
            if box is None:
                return None
        else:
            # A full box narrows nothing, but the other box may still be null.
            box = self.box or other.box
            for a, b, _ in box:
                if a == b:
                    return None
        if box is self.box and cyl is self.cyl:
            return self
        if box is other.box and cyl is other.cyl:
            return other
        return _atom(self.sym, box, cyl, self.state)

    def sort_key_over(self, den: int):
        """The atom's place in the order by symbol, state, cylinder and box
        endpoints, in ints: ``den`` must be a multiple of every interval's
        denominator (``box_den`` of the atoms being sorted)."""
        return (sym_index(self.sym), self.state, self.cyl,
                tuple((a * (den // d), b * (den // d)) for a, b, d in self.box))


def box_den(atoms) -> int:
    """The lcm of the atoms' interval denominators: over it, ``sort_key_over``
    orders them as their endpoints' values do."""
    return lcm(*(d for a in atoms for _, _, d in a.box))


_new_object, _set = object.__new__, object.__setattr__


def built_once(table: dict, make, *args):
    """``make(*args)``, built once per ``table``: a later call with the same
    ``make`` and arguments returns the object the first one built."""
    key = (make, *args)
    value = table.get(key)
    if value is None:
        value = table[key] = make(*args)
    return value


def _atom(sym: str, box: tuple, cyl: str, state: int) -> Atom:
    """An atom from parts already valid, ``box`` canonical; nothing is checked."""
    atom = _new_object(Atom)
    # field by field, like the generated __init__: an atom has slots, no dict
    _set(atom, "sym", sym)
    _set(atom, "box", box)
    _set(atom, "cyl", cyl)
    _set(atom, "state", state)
    return atom


@dataclass(frozen=True)
class Region:
    """A finite union of pairwise a.e.-disjoint atoms."""

    atoms: tuple = ()

    def __post_init__(self):
        atoms = tuple(self.atoms)
        for a in atoms:
            check_type("a region's atom", a, Atom)
        object.__setattr__(self, "atoms", atoms)
        for i, a in enumerate(atoms):
            for b in atoms[i + 1:]:
                if a.intersect(b) is not None:
                    raise ValidationError(
                        f"atoms overlap on positive measure: {format_atom(a)} vs {format_atom(b)}")

    @property
    def measure(self) -> Fraction:
        # added as ints over one denominator, as ``subset_ae`` does
        num, den = 0, 1
        for a in self.atoms:
            n, d = _box_parts(a.box, 3 ** len(a.cyl))
            common = lcm(den, d)
            num, den = num * (common // den) + n * (common // d), common
        return Fraction(num, den)

    def sorted(self) -> "Region":
        den = box_den(self.atoms)
        return Region(tuple(sorted(self.atoms, key=lambda a: a.sort_key_over(den))))


# --- common refinement -------------------------------------------------------
#
# Where atoms overlap and carry different payloads (plug's masses, the
# graphing predicates' edges), carve the family into elementary atoms fine
# enough that every input atom is exactly a union of them.  Per (symbol,
# state) group we split each coordinate at every endpoint present and expand
# every cylinder prefix to the longest length present.  The region
# comparisons below need no carving: they decide by pairwise intersection.


def expand_prefix(prefix: str, depth: int):
    """Descendants of length ``depth`` of a cylinder prefix; itself if that long."""
    if len(prefix) >= depth:
        yield prefix
        return
    for tail in product("*01", repeat=depth - len(prefix)):
        yield prefix + "".join(tail)


def refine_regions(items):
    """Elementary partition of a family of payload-carrying atoms.

    ``items`` lists ``(atom, payload)`` pairs; atoms may overlap or repeat.
    Returns ``(cells, carried)`` where ``cells`` is a list of
    positive-measure atoms, pairwise a.e.-disjoint, whose union is the union
    of the atoms, and ``carried[c]`` lists, in input order, the payload of
    every input atom that contains ``cells[c]``.  Each input atom is the
    union of the cells that carry its payload.

    A (symbol, state) group whose members are all one atom is its own
    refinement: that atom is the group's one cell, carrying every payload,
    and nothing is cut (a null atom gives no cell, as cutting it would).  A
    cylinder already as deep as its group's deepest is not expanded.
    """
    groups: dict = {}
    for atom, payload in items:
        groups.setdefault((atom.sym, atom.state), []).append((payload, atom))

    elementary: list[Atom] = []
    carried: list[list] = []
    index: dict = {}
    for (sym, state), members in sorted(groups.items(), key=lambda kv: (sym_index(kv[0][0]), kv[0][1])):
        first = members[0][1]
        if all(a is first or a == first for _, a in members):
            if all(a < b for a, b, _ in first.box):
                elementary.append(first)
                carried.append([payload for payload, _ in members])
            continue
        depth = max(len(a.cyl) for _, a in members)
        width = max((len(a.box) for _, a in members), default=0)
        # Per coordinate: every endpoint as an int over one common
        # denominator, the position of each cut, and the cells between cuts.
        axes = []
        for c in range(1, width + 1):
            ivs = [box_get(a.box, c) for _, a in members]
            den = lcm(*(d for _, _, d in ivs))
            cuts = sorted({0, den, *(x * (den // d) for a, b, d in ivs for x in (a, b))})
            axes.append((den, {x: i for i, x in enumerate(cuts)},
                         [_interval(lo, hi, den) for lo, hi in zip(cuts, cuts[1:])]))
        for payload, atom in members:
            # the cells inside an interval are the run between its two cuts
            coord_cells = []
            for c, (den, pos, cells) in enumerate(axes, 1):
                a, b, d = box_get(atom.box, c)
                coord_cells.append(cells[pos[a * (den // d)]:pos[b * (den // d)]])
            words = ((atom.cyl,) if len(atom.cyl) == depth
                     else tuple(expand_prefix(atom.cyl, depth)))
            for combo in product(*coord_cells) if width else [()]:
                for word in words:
                    key = (sym, state, combo, word)
                    at = index.get(key)
                    if at is None:
                        elementary.append(_atom(sym, _canon_box(combo), word, state))
                        carried.append([])
                        at = index[key] = len(elementary) - 1
                    carried[at].append(payload)
    return elementary, carried


def ae_equal(r1: Region, r2: Region) -> bool:
    """Do two regions agree up to a null set?"""
    return subset_ae(r1, r2) and subset_ae(r2, r1)


def subset_ae(r1: Region, r2: Region) -> bool:
    """Does ``r1`` lie inside ``r2`` up to a null set?

    The atoms of ``r2`` are pairwise a.e.-disjoint, so an atom lies inside
    ``r2`` exactly when its intersections with them add up to its measure;
    no refinement is built, and the measures are added as ints over one
    denominator.
    """
    for a in r1.atoms:
        num, den = 0, 1
        for b in r2.atoms:
            got = a.intersect(b)
            if got is not None:
                n, d = _box_parts(got.box, 3 ** len(got.cyl))
                common = lcm(den, d)
                num, den = num * (common // den) + n * (common // d), common
        n, d = _box_parts(a.box, 3 ** len(a.cyl))
        if num * d != n * den:
            return False
    return True


def disjoint_ae(r1: Region, r2: Region) -> bool:
    """Do two regions meet only on a null set?  An intersection is never a
    null atom, so they do exactly when no two of their atoms intersect."""
    return all(a.intersect(b) is None for a in r1.atoms for b in r2.atoms)


# --- text form ---------------------------------------------------------------


def format_interval(iv: Interval) -> str:
    return f"[{iv.lo},{iv.hi}]"


def format_atom(a: Atom) -> str:
    box = "x".join(format_interval(iv) for iv in a.box) if a.box else "-"
    cyl = a.cyl if a.cyl else "-"
    return f"{a.sym}|{box}|{cyl}|{a.state}"


def format_region(r: Region) -> str:
    return ";".join(format_atom(a) for a in r.sorted().atoms)


def parse_interval(text: str) -> Interval:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise FormatError(f"bad interval {text!r}")
    try:
        lo, hi = text[1:-1].split(",")
        return Interval(Fraction(lo), Fraction(hi))
    except (ValueError, ZeroDivisionError, ValidationError) as exc:
        raise FormatError(f"bad interval {text!r}: {exc}") from None


def parse_atom(text: str) -> Atom:
    """Read ``sym|box|cyl|state``.  The symbol and cylinder are checked by
    ``Atom`` alone; its ``ValidationError`` becomes a ``FormatError`` here."""
    parts = text.strip().split("|")
    if len(parts) != 4:
        raise FormatError(f"atom needs 4 fields, got {text!r}")
    sym, box_s, cyl_s, state_s = parts
    box = () if box_s == "-" else tuple(parse_interval(p) for p in box_s.split("x"))
    cyl = "" if cyl_s == "-" else cyl_s
    try:
        return Atom(sym, box, cyl, int(state_s))
    except ValueError:
        raise FormatError(f"bad state {state_s!r}") from None
    except ValidationError as exc:
        raise FormatError(f"bad atom {text!r}: {exc}") from None


def parse_region(text: str) -> Region:
    text = text.strip()
    if not text:
        return Region()
    try:
        return Region(tuple(parse_atom(p) for p in text.split(";")))
    except ValidationError as exc:
        raise FormatError(str(exc)) from None


def full_symbol_region(symbols=SYMBOLS) -> Region:
    return Region(tuple(Atom(s) for s in symbols))
