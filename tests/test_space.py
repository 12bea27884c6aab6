"""Measure-theoretic base layer: intervals, boxes, cylinders, atoms, regions."""

import copy
from fractions import Fraction as F
import pickle

import pytest
from hypothesis import example, given, strategies as st

from graphings.errors import ValidationError
from graphings.space import (EXT_SYMBOLS, FULL, RESULT_SYMBOLS, SYMBOLS, Atom,
                             Interval, Region, ae_equal, box_den, box_intersect,
                             cyl_intersect, disjoint_ae, format_atom,
                             format_interval, format_region, full_symbol_region,
                             parse_atom, parse_interval, parse_region,
                             refine_regions, subset_ae, sym_index, sym_of,
                             sym_shift)


def test_symbol_table():
    assert len(SYMBOLS) == 8
    assert EXT_SYMBOLS == SYMBOLS[:6]
    assert RESULT_SYMBOLS == ("a", "r")
    assert [sym_index(s) for s in SYMBOLS] == list(range(8))


def test_symbol_shift_moves_along_the_listing():
    assert sym_shift("*i", 0) == "*i"
    assert sym_shift("*i", 2) == "0i"
    assert sym_shift("0o", -2) == "*o"
    with pytest.raises(ValidationError):
        sym_shift("r", 1)  # off the end of the listing


def test_sym_of():
    assert sym_of("*", "i") == "*i"
    assert sym_of("1", "o") == "1o"


def test_interval_measure_and_touching_is_null():
    iv = Interval(F(1, 4), F(3, 4))
    assert iv.hi - iv.lo == F(1, 2)
    assert iv.intersect(Interval(F(3, 4), F(1))) is None
    assert iv.intersect(Interval(F(1, 2), F(1))) == Interval(F(1, 2), F(3, 4))


def test_interval_stays_in_unit():
    with pytest.raises(ValidationError):
        Interval(F(-1, 2), F(1, 2))
    with pytest.raises(ValidationError):
        Interval(F(1, 2), F(1, 4))
    with pytest.raises(ValidationError):
        Interval(F(1, 2), F(1)).translate(1, 4)


def test_box_trailing_full_is_implicit():
    assert Atom("a", (FULL, FULL)).box == ()
    assert Atom("a", (Interval(F(0), F(1, 2)), FULL)).box == (Interval(F(0), F(1, 2)),)


def test_box_entries_must_be_intervals():
    # an interval is a tuple of ints inside; neither it nor a bare triple
    # passes for a box
    with pytest.raises(ValidationError, match="tuple of intervals"):
        Atom("a", Interval(F(0), F(1, 2)))
    with pytest.raises(ValidationError, match="tuple of intervals"):
        Atom("a", ((0, 1, 2),))


@pytest.mark.parametrize("args, field", [
    (("0i", (), 5), "cylinder"), (("0i", (), None), "cylinder"),
    (("0i", (), "", "1"), "state"), (("0i", (), "", 1.5), "state")])
def test_wrong_typed_atom_fields_are_refused(args, field):
    with pytest.raises(ValidationError, match=f"atom's {field} must be"):
        Atom(*args)


def test_box_measure_and_intersect():
    b1 = (Interval(F(0), F(1, 2)),)
    b2 = (Interval(F(1, 4), F(1)), Interval(F(0), F(1, 3)))
    assert Atom("a", b1).measure == F(1, 2)
    got = box_intersect(b1, b2)
    assert got == (Interval(F(1, 4), F(1, 2)), Interval(F(0), F(1, 3)))
    assert box_intersect(b1, (Interval(F(1, 2), F(1)),)) is None


@pytest.mark.parametrize("n", range(7))
def test_cylinder_measure_is_one_third_per_letter(n):
    assert Atom("a", (), "*" * n).measure == F(1, 3 ** n)


def test_atom_measure_multiplies_parts():
    a = Atom("0i", (Interval(F(0), F(1, 2)),), "*0")
    assert a.measure == F(1, 2) * F(1, 9)


def test_atom_intersect_requires_same_symbol_and_state():
    assert Atom("a").intersect(Atom("r")) is None
    assert Atom("a", state=0).intersect(Atom("a", state=1)) is None
    got = Atom("a", cyl="*").intersect(Atom("a", cyl="*0"))
    assert got == Atom("a", cyl="*0")
    assert Atom("a", cyl="*0").intersect(Atom("a", cyl="*1")) is None


def test_atom_containment_is_almost_everywhere():
    big = Region((Atom("a", (Interval(F(0), F(1, 2)),)),))
    assert subset_ae(Region((Atom("a", (Interval(F(0), F(1, 4)),)),)), big)
    assert not subset_ae(Region((Atom("a", (Interval(F(1, 4), F(3, 4)),)),)), big)


def test_region_measure_adds_atoms():
    r = Region((Atom("a", cyl="*"), Atom("a", cyl="0"), Atom("r")))
    assert r.measure == F(1, 3) + F(1, 3) + F(1)


def test_region_predicates():
    left = Region((Atom("a", (Interval(F(0), F(1, 2)),)),))
    right = Region((Atom("a", (Interval(F(1, 2), F(1)),)),))
    whole = Region((Atom("a"),))
    assert disjoint_ae(left, right)
    assert subset_ae(left, whole)
    assert ae_equal(Region(left.atoms + right.atoms), whole)


def _refine(regions):
    """The elementary cells of a family of regions, and per region the set
    of cells whose union it is."""
    cells, carried = refine_regions([(a, ri) for ri, r in enumerate(regions)
                                     for a in r.atoms])
    covers = [set() for _ in regions]
    for c, owners in enumerate(carried):
        for ri in owners:
            covers[ri].add(c)
    return cells, covers


def test_refine_regions_covers_every_input():
    r1 = Region((Atom("a"),))
    r2 = Region((Atom("a", (Interval(F(0), F(1, 3)),)),))
    cells, covers = _refine([r1, r2])
    m1 = sum(cells[i].measure for i in covers[0])
    m2 = sum(cells[i].measure for i in covers[1])
    assert m1 == r1.measure and m2 == r2.measure
    assert covers[1] <= covers[0]


def test_full_symbol_region_measure():
    assert full_symbol_region().measure == 8
    assert full_symbol_region(RESULT_SYMBOLS).measure == 2


def test_atom_format_roundtrip():
    a = Atom("1o", (Interval(F(1, 3), F(2, 3)),), "*10", 4)
    assert parse_atom(format_atom(a)) == a
    assert format_atom(Atom("a")) == "a|-|-|0"


def test_region_format_roundtrip():
    # the text form lists atoms in sorted order
    r = Region((Atom("a", cyl="*"), Atom("0i", (Interval(F(0), F(1, 2)),))))
    assert parse_region(format_region(r)) == r.sorted()


_frac = st.integers(0, 12).flatmap(
    lambda n: st.integers(n, 12).map(lambda d: (F(n, 12), F(d, 12))))


@given(_frac, _frac)
def test_interval_intersection_commutes(p1, p2):
    a, b = Interval(*p1), Interval(*p2)
    assert a.intersect(b) == b.intersect(a)


@given(st.text(alphabet="*01", max_size=5), st.text(alphabet="*01", max_size=5))
def test_cylinder_intersection_measure_never_grows(u, v):
    got = Atom("a", cyl=u).intersect(Atom("a", cyl=v))
    if got is not None:
        assert got.measure <= min(F(1, 3 ** len(u)), F(1, 3 ** len(v)))


# Intervals on a twelfths grid, degenerate ones included; boxes of up to two
# of them (the full interval drops out as the implicit tail).
_interval = _frac.map(lambda p: Interval(*p))
_atom = st.builds(Atom, st.sampled_from(["a", "r"]),
                  st.lists(_interval | st.just(FULL), max_size=2).map(tuple),
                  st.text(alphabet="*01", max_size=3), st.integers(0, 1))


# A family of such atoms, some of them repeated.
_family = st.lists(_atom, min_size=1, max_size=4).flatmap(
    lambda atoms: st.lists(st.sampled_from(atoms), max_size=6))


@given(_family)
def test_refined_cells_carry_exactly_the_atoms_containing_them(atoms):
    cells, carried = refine_regions([(a, i) for i, a in enumerate(atoms)])
    assert len(carried) == len(cells)
    for c, a in enumerate(cells):
        assert a.measure > 0
        assert all(a.intersect(b) is None for b in cells[c + 1:])
        # each list follows input order, and each atom it names holds the cell
        assert carried[c] == sorted(set(carried[c]))
        assert all(a.intersect(atoms[i]) == a for i in carried[c])
    for i, a in enumerate(atoms):
        assert a.measure == sum(cell.measure for cell, owners in zip(cells, carried)
                                if i in owners)


@given(_atom, _atom)
def test_atom_intersection_is_null_or_positive_and_componentwise(a, b):
    got = a.intersect(b)
    assert got is None or got.measure > 0
    box = box_intersect(a.box, b.box)
    cyl = cyl_intersect(a.cyl, b.cyl)
    if a.sym != b.sym or a.state != b.state or box is None or cyl is None:
        assert got is None
    else:
        assert got == Atom(a.sym, box, cyl, a.state)


def test_degenerate_atom_meets_a_full_atom_in_nothing():
    point = Atom("0i", (Interval(F(1, 3), F(1, 3)),))
    assert point.intersect(Atom("0i")) is None
    assert Atom("0i").intersect(point) is None


# Rationals over mixed denominators: endpoints in [0,1], shifts in [-1,1].
_unit = st.integers(1, 30).flatmap(lambda d: st.integers(0, d).map(lambda n: F(n, d)))
_ends = st.tuples(_unit, _unit).map(sorted).map(tuple)
_shift = st.integers(1, 30).flatmap(lambda d: st.integers(-d, d).map(lambda n: F(n, d)))


@given(_ends, _ends, _shift)
def test_interval_arithmetic_matches_fractions(p, q, shift):
    a, b = Interval(*p), Interval(*q)
    assert (a.lo, a.hi, a.hi - a.lo) == (p[0], p[1], p[1] - p[0])
    lo, hi = max(p[0], q[0]), min(p[1], q[1])
    got = a.intersect(b)
    if lo >= hi:
        assert got is None
    else:
        assert (got.lo, got.hi) == (lo, hi)
    lo, hi = p[0] + shift, p[1] + shift
    if 0 <= lo and hi <= 1:
        moved = a.translate(shift.numerator, shift.denominator)
        assert (moved.lo, moved.hi) == (lo, hi)
    else:
        with pytest.raises(ValidationError, match="leaves the unit interval"):
            a.translate(shift.numerator, shift.denominator)


@given(_ends, _ends, _shift)
def test_equal_intervals_compare_and_hash_equal(p, q, shift):
    a = Interval(*p)
    ways = [Interval(str(p[0]), str(p[1])), Interval(lo=p[0], hi=p[1]),
            parse_interval(format_interval(a)), copy.deepcopy(a),
            pickle.loads(pickle.dumps(a))]
    if a.hi > a.lo:
        ways += [a.intersect(FULL), FULL.intersect(a)]
        if q[0] <= p[0] and p[1] <= q[1]:
            ways.append(Interval(*q).intersect(a))
    if 0 <= p[0] + shift and p[1] + shift <= 1:
        n, d = shift.numerator, shift.denominator
        ways.append(a.translate(n, d).translate(-n, d))
    for b in ways:
        assert b == a and hash(b) == hash(a)


@given(_ends)
def test_interval_text_is_the_fraction_text(p):
    a = Interval(*p)
    assert format_interval(a) == f"[{p[0]},{p[1]}]"
    assert repr(a) == f"Interval(lo={p[0]!r}, hi={p[1]!r})"


def _fraction_key(a: Atom):
    """The atom order in ``Fraction``s, by symbol, state, cylinder and box
    endpoints: the reference for the int order."""
    return sym_index(a.sym), a.state, a.cyl, tuple((iv.lo, iv.hi) for iv in a.box)


# Endpoints over denominators 1-12, degenerate ones included, on boxes of
# 0-3 coordinates, so one list mixes denominators.  Few symbols, states and
# cylinders, so that atoms often tie on them and the boxes decide.
_any_den_interval = st.integers(1, 12).flatmap(
    lambda d: st.tuples(st.integers(0, d), st.integers(0, d)).map(
        lambda p: Interval(F(min(p), d), F(max(p), d))))
_sortable = st.builds(Atom, st.sampled_from(["0i", "a"]),
                      st.lists(_any_den_interval, max_size=3).map(tuple),
                      st.text(alphabet="*01", max_size=2), st.integers(0, 1))


@given(st.lists(_sortable, max_size=8))
@example([Atom("a", (Interval(F(2, 5), F(1)),)), Atom("a", (Interval(F(1, 3), F(1)),)),
          Atom("a", (Interval(F(1, 12), F(1)),))])  # twelfths would tie 1/3 and 2/5
def test_the_int_atom_order_is_the_fraction_order(atoms):
    den = box_den(atoms)
    want = sorted(atoms, key=_fraction_key)
    assert sorted(atoms, key=lambda a: a.sort_key_over(den)) == want
    region = _disjoint(atoms)
    assert region.sorted().atoms == tuple(sorted(region.atoms, key=_fraction_key))


def test_intervals_have_no_order():
    with pytest.raises(TypeError):
        Interval(F(0), F(1, 2)) < Interval(F(1, 3), F(1))


def _disjoint(atoms) -> Region:
    """The atoms that meet none kept before them, as a region."""
    kept = []
    for a in atoms:
        if all(a.intersect(b) is None for b in kept):
            kept.append(a)
    return Region(tuple(kept))


_region = st.lists(_atom, max_size=4).map(_disjoint)
_null_atom = st.builds(lambda sym, x, cyl: Atom(sym, (Interval(x, x),), cyl),
                       st.sampled_from(["a", "r"]),
                       st.sampled_from([F(0), F(1, 3), F(1)]),
                       st.text(alphabet="*01", max_size=2))


@given(_region, _region, _region, st.none() | _null_atom)
def test_subset_ae_by_measure_is_the_refinement_answer(r2, cutters, extra, null):
    # r1: atoms that may stick out of r2, then parts of r2's atoms (inside
    # r2 by construction), then possibly a null atom, inside anything
    inside = [got for a in r2.atoms for b in cutters.atoms
              if (got := a.intersect(b)) is not None]
    assert subset_ae(Region(tuple(inside)), r2)
    r1 = _disjoint(list(extra.atoms) + inside + ([null] if null else []))
    _, (c1, c2) = _refine([r1, r2])
    assert subset_ae(r1, r2) == (c1 <= c2)
