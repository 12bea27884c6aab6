"""The test families, orthogonality by law on path-sum mass, and membership."""

from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from graphings import measurement
from graphings.automata import ACCEPT, accept_probability
from graphings.compiler import compile_automaton
from graphings.corpus import by_name
from graphings.errors import TruncationError, ValidationError
from graphings.graphing import Edge, GraphingRep, Weight
from graphings.measurement import (_judge, check_uniformity, make_test,
                                   membership, orthogonal_to_test)
from graphings.realizer import Realizer
from graphings.space import Atom, Interval, Region
from graphings.words import canonical_representation


# --- test families --------------------------------------------------------------


def test_neg_family_shape():
    t = make_test("neg")
    assert t.kind == "neg"
    assert [m.region for m in t.members] == [Region((Atom("r"),))]


def test_pos_family_shape():
    t = make_test("pos", heads=2)
    assert [m.name for m in t.members] == ["cube[1]", "cube[2]", "cube[3]"]
    assert [m.region.measure for m in t.members] == [F(1), F(1, 4), F(1, 27)]


def test_prob_family_pins_stack_tail_and_needs_epsilon():
    t = make_test("prob", heads=1, epsilon=F(1, 4))
    assert t.epsilon == F(1, 4)
    assert [a.cyl for m in t.members for a in m.region.atoms] == ["*", "**"]
    with pytest.raises(ValidationError):
        make_test("prob", heads=1)
    with pytest.raises(ValidationError):
        make_test("prob", heads=1, epsilon=2)
    with pytest.raises(ValidationError):
        make_test("nope")


def test_a_hand_built_test_checks_its_fields():
    # ``Test`` is imported through its module so pytest does not collect it
    members = make_test("pos").members
    with pytest.raises(ValidationError, match="unknown test kind 'bogus'"):
        measurement.Test("bogus", ())
    for epsilon in (None, "1/2", 2):
        with pytest.raises(ValidationError, match="threshold"):
            measurement.Test("prob", members, epsilon)
    assert measurement.Test("prob", members, 0.5).epsilon == F(1, 2)


@pytest.mark.parametrize("kind", ["neg", "pos", "prob"])
def test_negative_head_count_is_refused(kind):
    # pos and prob would have no member at all, and a family with nothing to
    # judge is orthogonal to every word, so even-ones would accept 1
    with pytest.raises(ValidationError):
        make_test(kind, heads=-1, epsilon=F(1, 2))
    assert len(make_test(kind, heads=0, epsilon=F(1, 2)).members) == 1


# --- deciding orthogonality -----------------------------------------------------


def test_judge_raises_when_truncation_straddles_the_law():
    assert _judge("zero", F(0), F(0), False, None)
    assert not _judge("zero", F(1, 8), F(1, 4), False, None)
    assert _judge("positive", F(1, 8), F(1, 8), False, None)
    assert not _judge("positive", F(0), F(1, 8), True, None)
    assert _judge("threshold", F(1, 2), F(1, 2), False, F(1, 3))
    assert not _judge("threshold", F(1, 4), F(1, 4), True, F(1, 3))
    for law, args in [("zero", (F(0), F(1, 8), False, None)),
                      ("positive", (F(0), F(1, 8), False, None)),
                      ("threshold", (F(1, 4), F(3, 8), False, F(1, 3)))]:
        with pytest.raises(TruncationError):
            _judge(law, *args)


def test_membership_verdicts_track_the_language():
    even = compile_automaton(by_name("even-ones"))
    assert membership(even, "11", make_test("neg")).orthogonal
    assert not membership(even, "1", make_test("neg")).orthogonal
    assert membership(even, "11", make_test("pos", 1)).orthogonal
    assert not membership(even, "1", make_test("pos", 1)).orthogonal


def test_probability_threshold_is_strict():
    third = compile_automaton(by_name("coin-third"))
    half = compile_automaton(by_name("coin-half"))
    assert membership(third, "", make_test("prob", 1, epsilon=F(1, 4))).orthogonal
    assert not membership(third, "", make_test("prob", 1, epsilon=F(1, 2))).orthogonal
    # mass exactly at the bar fails: the law wants strictly more
    assert not membership(half, "", make_test("prob", 1, epsilon=F(1, 2))).orthogonal


def test_report_rows_carry_exact_member_masses():
    half = compile_automaton(by_name("coin-half"))
    report = membership(half, "", make_test("pos", 1))
    assert report.orthogonal
    for row in report.rows:
        assert row.mass == F(1, 2) and row.exact and row.law == "positive"


def test_shrinking_cubes_catch_mass_hiding_from_the_origin():
    # a dialogue whose accept mass sits at [2/3, 1] on the second coordinate
    # satisfies the first cube but not the second: the family is what makes
    # positivity mean "positive everywhere", not "positive somewhere"
    box = (Interval(F(0), F(1)), Interval(F(2, 3), F(1)))
    reg = Region((Atom("a", box),))
    g = GraphingRep(reg, (0,), (Edge(reg, 0, 0, Realizer(), Weight(F(1), 0)),))
    machine = SimpleNamespace(reachable=g, start_state=0)
    word = canonical_representation("")
    single = orthogonal_to_test(machine, word, make_test("pos", heads=0))
    family = orthogonal_to_test(machine, word, make_test("pos", heads=1))
    assert single.orthogonal
    assert not family.orthogonal
    assert [r.ok for r in family.rows] == [True, False]


def test_uniformity_identity_injection_comes_first_and_caps():
    even = compile_automaton(by_name("even-ones"))
    uniform, verdicts = check_uniformity(even, "", make_test("neg"))
    assert uniform and verdicts == [((0,), True)]
    uniform, verdicts = check_uniformity(even, "1", make_test("neg"), samples=3)
    assert uniform
    assert len(verdicts) == 4  # only 4 one-letter placements exist on the grid
    assert verdicts[0][0] == (0, 1)
    assert all(v is False for _, v in verdicts)


def test_acceptance_probability_agrees_with_oracle_on_a_sample():
    m = by_name("flip-per-one")
    compiled = compile_automaton(m)
    t = make_test("prob", heads=1, epsilon=F(1, 4))
    for word in ("", "1", "11", "011"):
        p, exact = accept_probability(m, word, 16, ACCEPT)
        assert exact
        assert membership(compiled, word, t).orthogonal == (p > F(1, 4))
