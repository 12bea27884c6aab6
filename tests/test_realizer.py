"""Piecewise translations: permutations, box shifts, stack actions."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from graphings.errors import ValidationError
from graphings.realizer import (Realizer, in_microcosm, perm_apply,
                                perm_compose, perm_of, swap)
from graphings.space import (Atom, Interval, Region, ae_equal, box_get,
                             box_intersect, subset_ae)


def test_perm_representation_drops_fixed_points():
    assert perm_of({1: 1, 2: 2}) == ()
    assert swap(3, 3) == ()
    assert swap(1, 2) == ((1, 2), (2, 1))
    with pytest.raises(ValidationError):
        perm_of({1: 2})  # not a bijection on its support


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
    shifts = dict(r.box_shift)
    width = max(len(piece.box), len(constraint.box), *(i for i, _ in r.perm))
    pulled = []
    for c in range(1, width + 1):
        iv = box_get(constraint.box, perm_apply(r.perm, c))
        amount = shifts.get(perm_apply(r.perm, c))
        pulled.append(iv.translate(-amount) if amount else iv)
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
    assert all(amount for _, amount in c.box_shift)
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
