"""Realizers: the measurable maps that edges of a graphing may carry.

A realizer combines four independent actions:

* ``shift``: an integer translation moving one symbol interval onto another;
* ``perm``: a finite-support permutation of the box coordinates;
* ``box_shift``: a rational translation per coordinate, kept as reduced int
  ``(coord, num, den)`` triples (word representations use it to move a head
  marker; machines never do);
* a stack action on the cylinder factor, kept in the canonical form
  ``pop^pops then prepend pushes``: the word ``pushes`` is written with the
  symbol that ends up on top first.

Only the stack action changes measure: each net push scales the cylinder by
1/3, each net pop by 3.  ``apply`` realises the action on symbolic regions;
popping past the tracked prefix first splits an atom into its three children,
so the result is always again a finite region.

Microcosms classify realizers by what they are allowed to touch: ``m_i``
permits shifts and permutations supported on the first ``i`` coordinates,
``n_i`` additionally permits stack actions, and index ``None`` (spoken
"infinity") drops the support bound.  Fractional translations of the symbol
line and box translations are outside every microcosm here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd
from numbers import Rational

from .errors import ValidationError, check_type, is_int
from .space import (Atom, Region, _atom, _canon_box, _new_object, _set,
                    box_get, box_intersect, cyl_intersect, expand_prefix,
                    sym_shift)
from . import theta

# Permutations are stored as sorted tuples of (source, image) pairs covering
# exactly the non-fixed coordinates, so equal maps compare equal.

# The largest box coordinate a permutation or a box translation may name.
# Applying a realizer builds a box as wide as its largest coordinate; corpus
# machines use at most a few heads.
MAX_COORD = 1_000


def _check_coords(coords) -> None:
    if any(c < 1 for c in coords):
        raise ValidationError("coordinates are numbered from 1")
    if any(c > MAX_COORD for c in coords):
        raise ValidationError(f"coordinate {max(coords)} is past {MAX_COORD}, "
                              "the largest a realizer may name")


def _perm_pair(entry) -> tuple:
    """A ``(source, image)`` pair of int coordinates, as that pair."""
    if (isinstance(entry, (tuple, list)) and len(entry) == 2
            and all(map(is_int, entry))):
        return tuple(entry)
    raise ValidationError("a permutation entry is a (source, image) pair of "
                          f"int coordinates, got {entry!r}")


def _box_translation(entry) -> tuple:
    """A ``(coord, amount)`` pair, amount rational, or a reduced ``(coord,
    num, den)`` triple with ``den > 0``, as that triple; the coordinate an
    int."""
    if (isinstance(entry, (tuple, list)) and len(entry) == 2
            and is_int(entry[0]) and isinstance(entry[1], Rational)):
        c, amount = entry
        amount = Fraction(amount)
        return c, amount.numerator, amount.denominator
    if isinstance(entry, (tuple, list)) and len(entry) == 3:
        c, n, d = entry
        if all(map(is_int, entry)) and d > 0 and gcd(n, d) == 1:
            return c, n, d
    raise ValidationError("a box translation is a (coord, amount) pair or a "
                          f"reduced (coord, num, den) triple, got {entry!r}")


def perm_of(mapping: dict) -> tuple:
    _check_coords(mapping)
    items = {i: j for i, j in mapping.items() if i != j}
    if sorted(items) != sorted(items.values()):
        raise ValidationError(f"not a permutation: {mapping}")
    return tuple(sorted(items.items()))


def swap(i: int, j: int) -> tuple:
    return () if i == j else perm_of({i: j, j: i})


def perm_apply(perm: tuple, coord: int) -> int:
    for i, j in perm:
        if i == coord:
            return j
    return coord


def perm_compose(first: tuple, then: tuple) -> tuple:
    """Permutation applying ``first`` and afterwards ``then``."""
    support = {i for i, _ in first} | {i for i, _ in then}
    return perm_of({i: perm_apply(then, perm_apply(first, i)) for i in support})


def perm_support(perm: tuple) -> set:
    return {i for i, _ in perm}


@total_ordering
@dataclass(frozen=True, repr=False)
class Realizer:
    """Built from ``perm`` as ``(source, image)`` pairs in any order, held as
    ``perm_of`` makes them.  Built from ``box_shift`` as ``(coord, amount)``
    pairs, amounts rational, or as the triples it holds, so
    ``dataclasses.replace`` keeps a realizer's translations; holds sorted
    ``(coord, num, den)`` triples, each amount a nonzero reduced fraction with
    ``den > 0``.  Equal maps compare and hash equal through the ints; the
    order and ``repr`` read each amount as a ``Fraction``, so realizers sort
    by value and print their amounts as fractions."""

    shift: int = 0
    perm: tuple = ()
    box_shift: tuple = ()
    pops: int = 0
    pushes: str = ""

    def __post_init__(self):
        check_type("a realizer's shift", self.shift, int)
        check_type("a realizer's pops", self.pops, int)
        check_type("a realizer's pushes", self.pushes, str)
        mapping = dict(_perm_pair(entry) for entry in self.perm)
        if len(mapping) != len(self.perm):
            raise ValidationError(f"permutation names a source coordinate twice: "
                                  f"{self.perm}")
        object.__setattr__(self, "perm", perm_of(mapping) if mapping else ())
        shifts = [_box_translation(entry) for entry in self.box_shift]
        coords = [c for c, _, _ in shifts]
        _check_coords(coords)
        if len(set(coords)) != len(coords):
            raise ValidationError(f"box shift names a coordinate twice: {coords}")
        object.__setattr__(self, "box_shift",
                           tuple(sorted(t for t in shifts if t[1])))
        if self.pops < 0 or any(ch not in "*01" for ch in self.pushes):
            raise ValidationError("bad stack action")

    def _amounts(self) -> tuple:
        """``box_shift`` as ``(coord, Fraction)`` pairs."""
        return tuple((c, Fraction(n, d)) for c, n, d in self.box_shift)

    def __repr__(self) -> str:
        return (f"Realizer(shift={self.shift!r}, perm={self.perm!r}, "
                f"box_shift={self._amounts()!r}, pops={self.pops!r}, "
                f"pushes={self.pushes!r})")

    def __lt__(self, other):
        # the fields in order, each translation by its coordinate, then value
        if other.__class__ is not Realizer:
            return NotImplemented
        return ((self.shift, self.perm, self._amounts(), self.pops, self.pushes)
                < (other.shift, other.perm, other._amounts(), other.pops,
                   other.pushes))

    # -- structure ------------------------------------------------------------

    @property
    def theta_word(self) -> str:
        return self.pushes + "c" * self.pops

    def compose(self, then: "Realizer") -> "Realizer":
        """Realizer applying ``self`` first and ``then`` afterwards."""
        perm = perm_compose(self.perm, then.perm) if self.perm or then.perm else ()
        if self.box_shift:
            # ``then`` carries each translation of ``self`` along with its coordinate
            shifts = {c: (n, d) for c, n, d in then.box_shift}
            for c, n, d in self.box_shift:
                c = perm_apply(then.perm, c)
                got = shifts.get(c)
                if got is not None:
                    n, d = n * got[1] + got[0] * d, d * got[1]
                    g = gcd(n, d)
                    n, d = n // g, d // g
                shifts[c] = n, d
            box_shift = tuple(sorted((c, n, d) for c, (n, d) in shifts.items() if n))
        else:
            box_shift = then.box_shift
        pushes, pops = theta.pair_mul((then.pushes, then.pops),
                                      (self.pushes, self.pops))
        return _realizer(self.shift + then.shift, perm, box_shift, pops, pushes)

    # -- action ---------------------------------------------------------------

    def apply_atom(self, atom: Atom) -> list[tuple[Atom, Atom]]:
        """Action on one atom as ``(piece, image)`` pairs.

        When the stack action pops deeper than the tracked prefix the atom is
        first split into the three child cylinders, repeatedly, so every piece
        has a long enough prefix; each returned pair maps a piece of the input
        atom onto its exact image.
        """
        out = []
        for cyl in expand_prefix(atom.cyl, self.pops):
            piece = atom if cyl == atom.cyl else _atom(atom.sym, atom.box, cyl, atom.state)
            out.append((piece, self._apply_exact(piece)))
        return out

    def _apply_exact(self, atom: Atom) -> Atom:
        """The image of ``atom``, whose cylinder prefix is at least ``pops``
        long, as ``apply_atom`` expands every piece."""
        sym = sym_shift(atom.sym, self.shift)
        box = atom.box
        if self.perm or self.box_shift:
            inv = {j: i for i, j in self.perm}
            shifts = {c: (n, d) for c, n, d in self.box_shift}
            image = []
            for c in range(1, max(len(box), *inv, *shifts) + 1):
                iv = box_get(box, inv.get(c, c))
                amount = shifts.get(c)
                image.append(iv.translate(*amount) if amount else iv)
            box = _canon_box(image)
        cyl = self.pushes + atom.cyl[self.pops:]
        return _atom(sym, box, cyl, atom.state)

    def apply(self, region: Region) -> Region:
        images = []
        for atom in region.atoms:
            images.extend(img for _, img in self.apply_atom(atom))
        return Region(tuple(images))

    def preimage_atom(self, piece: Atom, constraint: Atom) -> Atom | None:
        """Pull a constraint on the image back onto a source piece.

        ``piece`` must have a long enough prefix for the pops (as produced by
        :meth:`apply_atom`), and the constraint's box must pull back inside
        the unit box, as it does when the constraint lies in the image of
        some part of ``piece``.  The rest of ``piece`` may leave the unit box
        under a box shift, so a whole region atom can serve as the piece.
        Returns the sub-atom of ``piece`` mapping into ``constraint``, or
        ``None`` when the intersection is null.

        The box is pulled back by the inverse translation and the cylinder
        is read off the pushed word; nothing is pushed forward.  The checks
        come in the order of the forward action, so this raises exactly
        where pushing the pulled-back part forward would.
        """
        perm, back = self.perm, {c: (-n, d) for c, n, d in self.box_shift}
        width = max(len(piece.box), len(constraint.box), *(i for i, _ in perm))
        pulled = constraint.box
        if perm or back:
            pulled = []
            for c in range(1, width + 1):
                j = perm_apply(perm, c)  # where the action puts coordinate c
                amount = back.get(j)
                iv = box_get(constraint.box, j)
                pulled.append(iv.translate(*amount) if amount else iv)
        box = box_intersect(piece.box, pulled)
        if box is None:
            return None
        sym = sym_shift(piece.sym, self.shift)
        for c, n, d in self.box_shift:
            if c > width:  # a full coordinate cannot move inside [0,1]
                raise ValidationError(f"translating coordinate {c} by "
                                      f"{Fraction(n, d)} leaves the unit interval")
        if self.pops > len(piece.cyl):
            raise ValidationError(f"popping {self.pops} symbols needs a cylinder "
                                  f"prefix that long, got {piece.cyl!r}")
        if sym != constraint.sym or piece.state != constraint.state:
            return None
        cyl = cyl_intersect(self.pushes + piece.cyl[self.pops:], constraint.cyl)
        if cyl is None:
            return None
        return _atom(piece.sym, box, piece.cyl[: self.pops] + cyl[len(self.pushes):],
                     piece.state)

    def normalized_on(self, prefix: str) -> "Realizer":
        """Equal-as-a-map canonical form on atoms with cylinder prefix ``prefix``.

        Popping a tracked symbol and pushing it back is the identity on that
        cylinder; this strips such trivial pairs so path composites that agree
        pointwise compare equal.
        """
        pushes, pops = theta.cancel_on((self.pushes, self.pops), prefix)
        if pops == self.pops:
            return self
        return _realizer(self.shift, self.perm, self.box_shift, pops, pushes)


def _realizer(shift: int, perm: tuple, box_shift: tuple, pops: int,
              pushes: str) -> Realizer:
    """A realizer from parts already in canonical form; nothing is checked."""
    r = _new_object(Realizer)
    _set(r, "shift", shift)
    _set(r, "perm", perm)
    _set(r, "box_shift", box_shift)
    _set(r, "pops", pops)
    _set(r, "pushes", pushes)
    return r


def in_microcosm(r: Realizer, kind: str, index: int | None = None) -> bool:
    """Does the realizer belong to the microcosm ``m_i``/``n_i`` (``None`` = no bound)?"""
    if kind not in ("m", "n"):
        raise ValidationError(f"microcosm kind must be 'm' or 'n', got {kind!r}")
    if r.box_shift:
        return False
    if kind == "m" and (r.pops or r.pushes):
        return False
    if index is not None and any(c > index for c in perm_support(r.perm)):
        return False
    return True
