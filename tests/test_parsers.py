"""Text front doors: every parser returns a value or raises FormatError."""

from hypothesis import given, settings, strategies as st

import pytest

from graphings.automata import parse_automaton
from graphings.errors import FormatError
from graphings.graphing import (MAX_DIALECT_RANGE, parse_graphing,
                                parse_realizer, parse_weight)
from graphings.space import parse_atom, parse_region

PARSERS = (parse_graphing, parse_automaton, parse_region, parse_atom,
           parse_realizer, parse_weight)

# Small numbers keep the generated dialect ranges short.
_NUM = st.sampled_from(["0", "1", "2", "-1", "1/2", "1/3", "2/3", "3/2", "1/0",
                        "0.5", "x", ""])
_WORD = st.sampled_from(["a", "r", "0i", "1o", "zz", "-", "*", "0", "01*", "c",
                         "e", "t", "tc0", "t0c", "s1", "s-2", "p(1,2)", "p(1)",
                         "p()", "b1:1/2", "b1:x", "id", "init", "accept",
                         "reject", "yes", "no", "i", "o", "pop", "push_0",
                         "push_*"])
_INTERVAL = st.builds(lambda lo, hi: f"[{lo},{hi}]", _NUM, _NUM)
_BOX = st.one_of(st.just("-"), st.lists(_INTERVAL, min_size=1, max_size=2)
                 .map("x".join))
_ATOM = st.builds(lambda *fs: "|".join(fs),
                  st.sampled_from(["a", "r", "0i", "1o", "*i", "q"]), _BOX,
                  st.sampled_from(["-", "*", "01", "2", ""]), _NUM)
_REGION = st.lists(_ATOM, max_size=3).map(";".join)
_REALIZER = st.lists(_WORD, min_size=1, max_size=3).map(" ".join)
_WEIGHT = st.builds(lambda p, bang: p + bang, _NUM, st.sampled_from(["", "!"]))
_INTS = st.lists(st.sampled_from(["0", "1", "2", "0-2", "1-0", "3-4", "-1", "x"]),
                 min_size=1, max_size=3).map(",".join)
_GRAPHING_LINE = st.one_of(
    _INTS.map("dialect: {}".format),
    _REGION.map("support: {}".format),
    st.builds(lambda *fs: "edge: " + " @ ".join(fs),
              _REGION, _NUM, _NUM, _REALIZER, _WEIGHT),
    st.builds(lambda k, v: f"{k}: {v}", _WORD, _WORD),
    _WORD)
_INSTR = st.builds(lambda *fs: " ".join(fs), _NUM,
                   st.sampled_from(["i", "o", "x"]), _WORD, _WORD, _NUM)
_AUTOMATON_LINE = st.one_of(
    _WORD.map("name: {}".format),
    _NUM.map("heads: {}".format),
    _WORD.map("stack: {}".format),
    st.lists(_WORD, max_size=5).map(lambda ws: "states: " + " ".join(ws)),
    st.builds(lambda read, state, last, instrs:
              f"rule: {read} | {state} | {last} -> " + " ; ".join(instrs),
              st.sampled_from(["*", "0", "01", "**", "2"]), _WORD,
              st.sampled_from(["-", "*", "0", "1", "2"]),
              st.lists(_INSTR, min_size=1, max_size=2)),
    _WORD)

_GRAMMAR_TEXT = {
    parse_graphing: st.builds(
        lambda head, rest: "\n".join(head + rest),
        st.tuples(_INTS.map("dialect: {}".format), _REGION.map("support: {}".format))
        .map(list) | st.just([]),
        st.lists(_GRAPHING_LINE, max_size=4)),
    parse_automaton: st.builds(
        lambda head, rest: "\n".join(head + rest),
        st.tuples(_NUM.map("heads: {}".format),
                  st.lists(_WORD, max_size=5).map(lambda ws: "states: " + " ".join(ws)))
        .map(list) | st.just([]),
        st.lists(_AUTOMATON_LINE, max_size=5)),
    parse_region: _REGION,
    parse_atom: _ATOM,
    parse_realizer: _REALIZER,
    parse_weight: _WEIGHT,
}


def _value_or_format_error(parse, text):
    try:
        parse(text)
    except FormatError:
        pass


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=80))
def test_arbitrary_text_parses_or_raises_format_error(parse, text):
    _value_or_format_error(parse, text)


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_grammar_shaped_text_parses_or_raises_format_error(parse, data):
    _value_or_format_error(parse, data.draw(_GRAMMAR_TEXT[parse]))


def test_empty_dialect_and_negative_state_are_format_errors():
    with pytest.raises(FormatError):
        parse_graphing("dialect: 1-0\nsupport: a|-|-|0\n")
    with pytest.raises(FormatError):
        parse_atom("a|-|-|-1")


@pytest.mark.parametrize("dialect", ["0,5-3", "1-0", "0-1000000000",
                                     f"0-{MAX_DIALECT_RANGE}"])
def test_bad_dialect_ranges_fail_before_expanding(dialect):
    with pytest.raises(FormatError, match="range"):
        parse_graphing(f"dialect: {dialect}\nsupport: a|-|-|0\n")


def test_widest_dialect_range_still_parses():
    top = MAX_DIALECT_RANGE - 1
    g = parse_graphing(f"dialect: 0-{top}\nsupport: a|-|-|0\n")
    assert g.dialect == tuple(range(MAX_DIALECT_RANGE))
