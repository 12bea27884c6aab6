"""Piecewise translations: permutations, box shifts, stack actions."""

from dataclasses import dataclass, replace
from fractions import Fraction as F
from math import gcd
import re

import pytest
from hypothesis import given, settings, strategies as st

from graphings import theta
from graphings.compiler import compile_automaton, format_compiled
from graphings.corpus import by_name, corpus
from graphings.errors import ValidationError
from graphings.graphing import parse_graphing
from graphings.realizer import (MAX_COORD, Realizer, in_microcosm, perm_apply,
                                perm_compose, perm_of, swap)
from graphings.space import (Atom, Interval, Region, ae_equal, box_get,
                             box_intersect, cyl_intersect, expand_prefix,
                             subset_ae, sym_shift)


def test_perm_representation_drops_fixed_points():
    assert perm_of({1: 1, 2: 2}) == ()
    assert swap(3, 3) == ()
    assert swap(1, 2) == ((1, 2), (2, 1))
    with pytest.raises(ValidationError):
        perm_of({1: 2})  # not a bijection on its support


@pytest.mark.parametrize("perm", [((1, 2),), ((1, 3), (1, 2), (2, 1))],
                         ids=["not-onto", "repeated-source"])
def test_perm_pairs_must_form_a_permutation(perm):
    # ((1, 2),) alone would map [0,1/2] x [1/2,1] onto [0,1/2] x [0,1/2]; a
    # repeated source would keep only its last image
    with pytest.raises(ValidationError, match="permutation"):
        Realizer(perm=perm)


@pytest.mark.parametrize("perm", [((1, 2, 3),), (1,), ((1, "2"), ("2", 1))],
                         ids=["triple", "bare-coord", "str-coord"])
def test_malformed_perm_entries_are_refused_by_name(perm):
    with pytest.raises(ValidationError,
                       match=r"\(source, image\) pair .*got " + re.escape(repr(perm[0]))):
        Realizer(perm=perm)


def test_perm_pairs_in_any_order_build_one_realizer():
    r = Realizer(perm=((2, 1), (1, 2)))
    assert r == Realizer(perm=((1, 2), (2, 1))) == Realizer(perm=[(2, 1), (1, 2)])
    assert hash(r) == hash(Realizer(perm=((1, 2), (2, 1))))
    assert r.perm == swap(1, 2)
    assert Realizer(perm=((1, 1),)) == Realizer()


def test_parsed_compiled_and_replaced_realizers_keep_their_perm():
    # every realizer the program builds holds its perm as perm_of makes it,
    # so the constructor changes none of them
    compiled = {e.realizer for a in corpus() for e in compile_automaton(a).reachable.edges}
    text = format_compiled(compile_automaton(by_name("two-head-guess-middle")))
    parsed = {e.realizer for e in parse_graphing(text).edges}
    assert any(len(r.perm) for r in parsed)
    for r in compiled | parsed:
        assert perm_of(dict(r.perm)) == r.perm
        again = replace(r)
        assert again == r and again.perm == r.perm and repr(again) == repr(r)


def test_perm_compose_and_inverse():
    rot = perm_of({1: 2, 2: 3, 3: 1})
    assert perm_apply(rot, 1) == 2
    assert perm_compose(rot, perm_of({2: 1, 3: 2, 1: 3})) == ()
    assert perm_apply(perm_compose(swap(1, 2), swap(2, 3)), 1) == 3


def test_identity_acts_trivially():
    r = Realizer()
    a = Atom("0i", (Interval(F(0), F(1, 2)),), "*1")
    assert r.apply_atom(a) == [(a, a)]


def test_symbol_shift_and_box_shift():
    r = Realizer(shift=2, box_shift=((1, F(1, 4)),))
    a = Atom("*i", (Interval(F(0), F(1, 2)),))
    [(piece, img)] = r.apply_atom(a)
    assert piece == a
    assert img.sym == "0i"
    assert img.box == (Interval(F(1, 4), F(3, 4)),)


def test_box_shift_out_of_unit_raises():
    r = Realizer(box_shift=((1, F(3, 4)),))
    with pytest.raises(ValidationError):
        r.apply_atom(Atom("a", (Interval(F(1, 2), F(1)),)))


@pytest.mark.parametrize("box_shift", [((0, F(1, 2)),), ((-1, F(1, 2)),),
                                       ((0, F(0)),)])
def test_box_shift_coordinates_are_numbered_from_one(box_shift):
    # no coordinate 0 exists, so its translation would be dropped unseen
    with pytest.raises(ValidationError, match="numbered from 1"):
        Realizer(box_shift=box_shift)


@pytest.mark.parametrize("box_shift", [((1, F(1, 2)), (1, F(1, 4))),
                                       ((2, F(1, 4)), (1, F(1, 8)), (2, F(0)))])
def test_box_shift_names_each_coordinate_once(box_shift):
    # applying only one of two translations of a coordinate would move
    # [0,1/4] to [1/2,3/4] where their sum moves it to [3/4,1]
    with pytest.raises(ValidationError, match="twice"):
        Realizer(box_shift=box_shift)


def test_the_held_translations_build_the_same_realizer():
    r = Realizer(shift=1, perm=swap(1, 2), box_shift=((2, F(-3, 6)), (1, F(1, 4))))
    assert r.box_shift == ((1, 1, 4), (2, -1, 2))
    assert Realizer(r.shift, r.perm, r.box_shift, r.pops, r.pushes) == r
    pushed = replace(r, pushes="0")
    assert pushed.box_shift == r.box_shift
    assert pushed == r.compose(Realizer(pushes="0"))
    assert replace(r, box_shift=((1, 0, 1),)) == Realizer(shift=1, perm=swap(1, 2))


@pytest.mark.parametrize("box_shift", [
    ((1, 2, 4),), ((1, 1, -2),), ((1, 1, 0),), ((1, F(1, 2), 1),), ((1,),),
    ((1, 1, 2, 0),), (1,), (("1", F(1, 2)),), ((1, "1/2"),), ((1, 0.5),),
    ((1.0, 1, 2),)],
    ids=["unreduced", "negative-den", "zero-den", "fraction-num", "single",
         "quadruple", "bare-coord", "str-coord", "str-amount", "float-amount",
         "float-coord"])
def test_box_translations_of_another_shape_are_refused(box_shift):
    with pytest.raises(ValidationError, match="pair or a reduced"):
        Realizer(box_shift=box_shift)


@pytest.mark.parametrize("field, value", [
    ("shift", 0.5), ("shift", "1"), ("pops", 1.5), ("pops", "1"),
    ("pushes", 5), ("pushes", None)])
def test_wrong_typed_fields_are_refused(field, value):
    with pytest.raises(ValidationError, match=f"realizer's {field} must be"):
        Realizer(**{field: value})


@pytest.mark.parametrize("make", [
    lambda: perm_of({1: MAX_COORD + 1, MAX_COORD + 1: 1}),
    lambda: Realizer(perm=((1, 1_000_000), (1_000_000, 1))),
    lambda: Realizer(box_shift=((1_000_000, F(1, 2)),)),
    lambda: Realizer(box_shift=((MAX_COORD + 1, F(0)),)),
], ids=["perm_of", "perm", "box-shift", "zero-box-shift"])
def test_coordinates_past_the_bound_are_refused(make):
    # applying would build a box as wide as the largest coordinate
    with pytest.raises(ValidationError, match=f"past {MAX_COORD}"):
        make()


def test_coordinates_up_to_the_bound_are_kept():
    r = Realizer(perm=swap(1, MAX_COORD), box_shift=((MAX_COORD, F(1, 2)),))
    [(_, img)] = r.apply_atom(Atom("a", (Interval(F(0), F(1, 2)),)))
    assert len(img.box) == MAX_COORD
    assert img.box[-1] == Interval(F(1, 2), F(1))


def test_perm_moves_coordinates():
    r = Realizer(perm=swap(1, 2))
    a = Atom("a", (Interval(F(0), F(1, 3)),))  # coord 1 constrained
    [(_, img)] = r.apply_atom(a)
    # constraint moved to coord 2; coord 1 released
    assert img.box == (Interval(F(0), F(1)), Interval(F(0), F(1, 3)))


def test_push_extends_cylinder():
    r = Realizer(pushes="0")
    [(_, img)] = r.apply_atom(Atom("a", cyl="*"))
    assert img.cyl == "0*"


def test_pop_splits_short_cylinders():
    r = Realizer(pops=1)
    pairs = r.apply_atom(Atom("a"))
    assert len(pairs) == 3
    assert sorted(p.cyl for p, _ in pairs) == ["*", "0", "1"]
    assert all(img.cyl == "" for _, img in pairs)


def test_measure_scales_with_net_stack_change():
    r = Realizer(shift=1, perm=swap(1, 2), box_shift=((2, F(1, 8)),),
                 pops=2, pushes="1")
    a = Atom("0i", (Interval(F(0), F(1, 2)),), "*")
    for piece, img in r.apply_atom(a):
        assert img.measure == piece.measure * 3  # 3^(pops - pushes)


def test_compose_is_apply_in_order():
    r1 = Realizer(shift=1, pushes="0")
    r2 = Realizer(shift=-1, pops=1)
    both = r1.compose(r2)
    a = Atom("0i", cyl="*")
    [(_, mid)] = r1.apply_atom(a)
    [(_, end)] = r2.apply_atom(mid)
    [(_, direct)] = both.apply_atom(a)
    assert direct == end
    assert both.theta_word == ""  # push then pop cancels


def test_compose_stack_when_pop_exceeds_push():
    r1 = Realizer(pushes="1")
    r2 = Realizer(pops=2)
    both = r1.compose(r2)
    assert (both.pops, both.pushes) == (1, "")


def test_preimage_inverts_apply():
    r = Realizer(shift=-2, perm=swap(1, 2), box_shift=((1, F(1, 4)),), pops=1,
                 pushes="**")
    a = Atom("0o", (Interval(F(0), F(1, 2)), Interval(F(1, 4), F(3, 4))), "1*")
    for piece, img in r.apply_atom(a):
        assert r.preimage_atom(piece, img) == piece
        # narrowing the image narrows the piece
        sub = Atom(img.sym, img.box, img.cyl + "0", img.state)
        back = r.preimage_atom(piece, sub)
        assert back is not None and subset_ae(Region((back,)), Region((piece,)))


def test_preimage_onto_a_piece_that_the_shift_carries_out_of_the_box():
    # the whole atom leaves [0,1] under the shift; the part mapping into
    # the constraint does not, and only that part is pulled back
    r = Realizer(box_shift=((1, F(1, 4)),))
    piece = Atom("a")
    back = r.preimage_atom(piece, Atom("a", (Interval(F(1, 2), F(3, 4)),)))
    assert back == Atom("a", (Interval(F(1, 4), F(1, 2)),))


def test_preimage_disjoint_constraint_is_none():
    r = Realizer(pushes="0")
    [(piece, _)] = r.apply_atom(Atom("a", cyl="*"))
    assert r.preimage_atom(piece, Atom("a", cyl="1")) is None


def test_preimage_of_a_piece_too_short_for_the_pops_raises():
    r = Realizer(pops=2)
    with pytest.raises(ValidationError):
        r.preimage_atom(Atom("a", cyl="*"), Atom("a"))


def test_normalized_on_strips_pop_repush():
    r = Realizer(pops=1, pushes="*")
    assert r.normalized_on("*") == Realizer()
    assert r.normalized_on("0") != Realizer()
    # only the matching trailing pairs go
    r2 = Realizer(pops=2, pushes="10")
    assert r2.normalized_on("01") == Realizer(pops=2, pushes="10")
    assert r2.normalized_on("00").theta_word == "1c"


def test_microcosm_membership():
    assert in_microcosm(Realizer(shift=2), "m")
    assert not in_microcosm(Realizer(box_shift=((1, F(1, 2)),)), "m")
    with pytest.raises(ValidationError):
        in_microcosm(Realizer(), "q")


def test_microcosms_bound_stack_actions_and_permuted_coordinates():
    assert not in_microcosm(Realizer(pops=1), "m")
    assert in_microcosm(Realizer(pops=1), "n")
    assert not in_microcosm(Realizer(perm=swap(1, 3)), "m", 2)
    assert in_microcosm(Realizer(perm=swap(1, 3)), "m", 3)


@pytest.mark.parametrize("field, value", [("pops", -1), ("pushes", "2")])
def test_a_stack_action_off_its_alphabet_is_refused(field, value):
    with pytest.raises(ValidationError, match="bad stack action"):
        Realizer(**{field: value})


@given(st.integers(-3, 3), st.text(alphabet="*01", max_size=2),
       st.integers(0, 2), st.text(alphabet="*01", max_size=2))
def test_apply_atom_pieces_tile_the_atom(shift, pushes, pops, cyl):
    a = Atom("0i", (), cyl)
    try:
        r = Realizer(shift=shift, pops=pops, pushes=pushes)
        pairs = r.apply_atom(a)
    except ValidationError:
        return
    assert sum(p.measure for p, _ in pairs) == a.measure
    assert sum(i.measure for _, i in pairs) == a.measure * F(3) ** (pops - len(pushes))


_amount = st.sampled_from([F(1, 8), F(-1, 8), F(1, 4), F(-1, 4)])
_realizer = st.builds(
    Realizer, st.integers(-1, 1),
    st.sampled_from([(), swap(1, 2), swap(2, 3), perm_of({1: 2, 2: 3, 3: 1})]),
    st.lists(st.tuples(st.integers(1, 3), _amount), max_size=3,
             unique_by=lambda ca: ca[0]).map(tuple),
    st.integers(0, 2), st.text(alphabet="*01", max_size=2))
_MIDDLE = Interval(F(3, 8), F(5, 8))
_SAMPLES = [Region((Atom(sym, (_MIDDLE,) * 3, cyl),))
            for sym in ("0i", "0o") for cyl in ("", "1", "0*")]


_eighths = st.integers(0, 8)
_atom = st.builds(
    Atom, st.sampled_from(["*i", "0i", "0o", "1o", "a"]),
    st.lists(st.tuples(_eighths, _eighths).map(
        lambda ab: Interval(F(min(ab), 8), F(max(ab), 8))), max_size=3).map(tuple),
    st.text(alphabet="*01", max_size=3), st.integers(0, 1))


def _forward_preimage(r, piece, constraint):
    """The pullback by the forward action: pull the box back, push that part
    of the piece forward, intersect its image with the constraint and read
    the source cylinder off the image's."""
    shifts = {c: (n, d) for c, n, d in r.box_shift}
    width = max(len(piece.box), len(constraint.box), *(i for i, _ in r.perm))
    pulled = []
    for c in range(1, width + 1):
        iv = box_get(constraint.box, perm_apply(r.perm, c))
        amount = shifts.get(perm_apply(r.perm, c))
        pulled.append(iv.translate(-amount[0], amount[1]) if amount else iv)
    box = box_intersect(piece.box, pulled)
    if box is None:
        return None
    sub = Atom(piece.sym, box, piece.cyl, piece.state)
    if r.pops > len(sub.cyl):
        raise ValidationError("the piece is too short for the pops")
    [(_, image)] = r.apply_atom(sub)
    got = image.intersect(constraint)
    if got is None:
        return None
    assert got.cyl.startswith(r.pushes)
    return Atom(piece.sym, box, piece.cyl[:r.pops] + got.cyl[len(r.pushes):],
                piece.state)


def _outcome(pullback, *args):
    try:
        return pullback(*args)
    except ValidationError:
        return "raises"


@settings(max_examples=300, deadline=None)
@given(_realizer, _atom, _atom, st.data())
def test_preimage_matches_the_forward_construction(r, piece, other, data):
    # the same atom, None, or a raise, as pushing the pulled-back part
    # forward gives; half the constraints are narrowed images of a piece
    constraint = other
    try:
        pairs = r.apply_atom(piece)
    except ValidationError:
        pairs = []
    if pairs and data.draw(st.booleans()):
        piece, image = data.draw(st.sampled_from(pairs))
        box = box_intersect(image.box, other.box)
        constraint = Atom(image.sym, image.box if box is None else box,
                          image.cyl + other.cyl, image.state)
    assert (_outcome(r.preimage_atom, piece, constraint)
            == _outcome(_forward_preimage, r, piece, constraint))


@given(_realizer, _realizer)
def test_composite_is_canonical_and_applies_in_order(a, b):
    c = a.compose(b)
    # the unchecked composite is what the validated constructor would build
    assert c == Realizer(c.shift, c.perm, c.box_shift, c.pops, c.pushes)
    assert all(n and d > 0 and gcd(n, d) == 1 for _, n, d in c.box_shift)
    for region in _SAMPLES:
        try:
            stepwise = b.apply(a.apply(region))
        except ValidationError:
            continue  # a step leaves the unit box
        assert ae_equal(c.apply(region), stepwise)


def test_cancelling_translations_leave_no_zero_entry():
    there = Realizer(box_shift=((1, F(1, 4)),))
    assert there.compose(Realizer(box_shift=((1, F(-1, 4)),))).box_shift == ()
    # the permutation first carries the translation onto coordinate 2
    back = Realizer(perm=swap(1, 2), box_shift=((2, F(-1, 4)),))
    assert there.compose(back) == Realizer(perm=swap(1, 2))
    assert there.compose(back).box_shift == ()


def test_normalized_on_keeps_the_realizer_when_nothing_cancels():
    r = Realizer(shift=1, box_shift=((1, F(1, 4)),), pops=1, pushes="*")
    assert r.normalized_on("0") is r
    assert r.normalized_on("") is r
    assert r.normalized_on("*0") == Realizer(shift=1, box_shift=((1, F(1, 4)),))


# --- the Fraction reference ------------------------------------------------------


def _move(iv: Interval, amount: F) -> Interval:
    """``iv`` translated by ``amount``, in ``Fraction``s."""
    lo, hi = iv.lo + amount, iv.hi + amount
    if lo < 0 or hi > 1:
        raise ValidationError(f"translating [{iv.lo},{iv.hi}] by {amount} "
                              "leaves the unit interval")
    return Interval(lo, hi)


@dataclass(frozen=True, order=True)
class FractionRealizer:
    """The realizer with its box translations as sorted ``(coord,
    Fraction)`` pairs and every step in ``Fraction`` arithmetic: the
    reference the int form must match map for map, in its order and in its
    ``repr`` (after the class name)."""

    shift: int = 0
    perm: tuple = ()
    box_shift: tuple = ()
    pops: int = 0
    pushes: str = ""

    @classmethod
    def of(cls, shift, perm, box_shift, pops, pushes) -> "FractionRealizer":
        return cls(shift, perm, tuple(sorted((c, F(a)) for c, a in box_shift if a)),
                   pops, pushes)

    def compose(self, then: "FractionRealizer") -> "FractionRealizer":
        shifts = dict(then.box_shift)
        for c, a in self.box_shift:
            c = perm_apply(then.perm, c)
            shifts[c] = shifts.get(c, F(0)) + a
        pushes, pops = theta.pair_mul((then.pushes, then.pops),
                                      (self.pushes, self.pops))
        return FractionRealizer(self.shift + then.shift,
                                perm_compose(self.perm, then.perm),
                                tuple(sorted((c, a) for c, a in shifts.items() if a)),
                                pops, pushes)

    def normalized_on(self, prefix: str) -> "FractionRealizer":
        pushes, pops = theta.cancel_on((self.pushes, self.pops), prefix)
        return replace(self, pops=pops, pushes=pushes)

    def apply_atom(self, atom: Atom) -> list:
        inv, shifts = {j: i for i, j in self.perm}, dict(self.box_shift)
        width = max((len(atom.box), *inv, *shifts))
        box = tuple(_move(box_get(atom.box, inv.get(c, c)), shifts.get(c, F(0)))
                    for c in range(1, width + 1))
        out = []
        for cyl in expand_prefix(atom.cyl, self.pops):
            if self.pops > len(cyl):
                raise ValidationError("the piece is too short for the pops")
            out.append((Atom(atom.sym, atom.box, cyl, atom.state),
                        Atom(sym_shift(atom.sym, self.shift), box,
                             self.pushes + cyl[self.pops:], atom.state)))
        return out

    def preimage_atom(self, piece: Atom, constraint: Atom):
        shifts = dict(self.box_shift)
        width = max(len(piece.box), len(constraint.box), *(i for i, _ in self.perm))
        pulled = [_move(box_get(constraint.box, perm_apply(self.perm, c)),
                        -shifts.get(perm_apply(self.perm, c), F(0)))
                  for c in range(1, width + 1)]
        box = box_intersect(piece.box, pulled)
        if box is None:
            return None
        sym = sym_shift(piece.sym, self.shift)
        if any(c > width for c in shifts) or self.pops > len(piece.cyl):
            raise ValidationError("the pulled-back part leaves the space")
        if sym != constraint.sym or piece.state != constraint.state:
            return None
        cyl = cyl_intersect(self.pushes + piece.cyl[self.pops:], constraint.cyl)
        if cyl is None:
            return None
        return Atom(piece.sym, box, piece.cyl[:self.pops] + cyl[len(self.pushes):],
                    piece.state)


def _as_fractions(r: Realizer) -> FractionRealizer:
    return FractionRealizer(r.shift, r.perm,
                            tuple((c, F(n, d)) for c, n, d in r.box_shift),
                            r.pops, r.pushes)


# negative amounts, thirds and sixths beside eighths, and zero, which the
# constructor drops; the perms move the shifted coordinates
_any_amount = st.sampled_from([F(0), F(1, 8), F(-1, 8), F(1, 4), F(-1, 4),
                               F(-3, 8), F(1, 2), F(-1, 2), F(1, 3), F(-1, 6)])
_parts = st.tuples(
    st.integers(-1, 1),
    st.sampled_from([(), swap(1, 2), swap(2, 3), perm_of({1: 2, 2: 3, 3: 1})]),
    st.lists(st.tuples(st.integers(1, 3), _any_amount), max_size=3,
             unique_by=lambda ca: ca[0]).map(tuple),
    st.integers(0, 2), st.text(alphabet="*01", max_size=2))


def _both(parts):
    return Realizer(*parts), FractionRealizer.of(*parts)


@settings(max_examples=300, deadline=None)
@given(_parts, _parts, _atom, _atom, st.text(alphabet="*01", max_size=3))
def test_int_translations_match_the_fraction_reference(p, q, piece, constraint,
                                                       prefix):
    (a, ra), (b, rb) = _both(p), _both(q)
    assert _as_fractions(a) == ra and _as_fractions(b) == rb
    # equality, hashing, order and repr read the amounts as Fractions
    assert (a == b) == (ra == rb)
    assert (a == b) <= (hash(a) == hash(b))
    assert (a < b, a <= b, a > b, a >= b) == (ra < rb, ra <= rb, ra > rb, ra >= rb)
    assert repr(a) == repr(ra).replace("FractionRealizer(", "Realizer(", 1)
    # undoing a's translations in place composes to none
    undo = tuple((c, -F(n, d)) for c, n, d in a.box_shift)
    composites = [(a.compose(b), ra.compose(rb)),
                  (a.compose(Realizer(box_shift=undo)),
                   ra.compose(FractionRealizer.of(0, (), undo, 0, "")))]
    assert composites[1][0].box_shift == ()
    for r, ref in [(a, ra), (b, rb)] + composites:
        assert _as_fractions(r) == ref
        assert _as_fractions(r.normalized_on(prefix)) == ref.normalized_on(prefix)
        assert _outcome(r.apply_atom, piece) == _outcome(ref.apply_atom, piece)
        assert (_outcome(r.preimage_atom, piece, constraint)
                == _outcome(ref.preimage_atom, piece, constraint))
        pairs = _outcome(r.apply_atom, piece)
        if pairs != "raises":
            for sub, image in pairs:
                assert (_outcome(r.preimage_atom, sub, image)
                        == _outcome(ref.preimage_atom, sub, image))
