"""Text front doors: every parser returns a value or raises FormatError."""

from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import pytest

from graphings import graphing
from graphings.automata import (ACCEPT, REJECT, Automaton, Instruction,
                                format_automaton, parse_automaton)
from graphings.compiler import compile_automaton
from graphings.corpus import by_name, corpus
from graphings.errors import FormatError, ValidationError
from graphings.execution import plug
from graphings.generators import random_det_pair, random_subprob_pair, split_sources
from graphings.graphing import (MAX_DIALECT_RANGE, GraphingRep, Weight,
                                format_graphing, format_realizer, format_weight,
                                parse_graphing, parse_realizer, parse_weight)
from graphings.realizer import MAX_COORD, Realizer, perm_of
from graphings.space import (SYMBOLS, Atom, Interval, Region, format_atom,
                             format_region, parse_atom, parse_region)
from graphings.words import bang_representation

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


# the cap counts every state a line names, duplicates included
@pytest.mark.parametrize("dialect", ["0,5-3", "1-0", "0-1000000000",
                                     f"0-{MAX_DIALECT_RANGE}", "0-99999,100000",
                                     "0-49999,0-49999,7"])
def test_bad_dialect_ranges_fail_before_expanding(dialect):
    with pytest.raises(FormatError, match="line 1: .*range"):
        parse_graphing(f"dialect: {dialect}\nsupport: a|-|-|0\n")


def test_widest_dialect_range_still_parses():
    top = MAX_DIALECT_RANGE - 1
    g = parse_graphing(f"dialect: 0-{top}\nsupport: a|-|-|0\n")
    assert g.dialect == tuple(range(MAX_DIALECT_RANGE))


@pytest.mark.parametrize("line", ["dialect: 0-3", "support: r|-|-|0"])
def test_a_repeated_graphing_header_names_its_line(line):
    # a second header would silently replace the first
    text = "dialect: 0\nsupport: a|-|-|0\n# comment\n" + line + "\n"
    kind = line.split(":")[0]
    with pytest.raises(FormatError, match=f"^line 4: duplicate '{kind}:' line"):
        parse_graphing(text)


@pytest.mark.parametrize("line", ["name: other", "heads: 2", "stack: yes",
                                  "states: init accept reject"])
def test_a_repeated_automaton_header_names_its_line(line):
    lines = format_automaton(by_name("accept-now")).splitlines() + [line]
    kind = line.split(":")[0]
    with pytest.raises(FormatError,
                       match=f"^line {len(lines)}: duplicate '{kind}:' line"):
        parse_automaton("\n".join(lines) + "\n")


# --- round trips: valid values survive format then parse ---------------------

_UNIT = st.integers(1, 12).flatmap(lambda d: st.integers(0, d).map(lambda n: F(n, d)))
_SHIFT = st.integers(1, 12).flatmap(lambda d: st.integers(-d, d).map(lambda n: F(n, d)))
_INTERVAL_V = st.tuples(_UNIT, _UNIT).map(lambda p: Interval(min(p), max(p)))
_ATOM_V = st.builds(Atom, st.sampled_from(SYMBOLS),
                    st.lists(_INTERVAL_V, max_size=3).map(tuple),
                    st.text(alphabet="*01", max_size=3), st.integers(0, 4))
# atoms at distinct (symbol, state) pairs never overlap
_REGION_V = st.lists(_ATOM_V, max_size=4, unique_by=lambda a: (a.sym, a.state)
                     ).map(lambda atoms: Region(tuple(atoms)))
_WEIGHT_V = st.builds(Weight, _UNIT, st.integers(0, 1))
_REALIZER_V = st.builds(
    Realizer, st.integers(-7, 7),
    st.permutations([1, 2, 3]).map(lambda p: perm_of(dict(zip((1, 2, 3), p)))),
    st.dictionaries(st.integers(1, 3), _SHIFT, max_size=2).map(lambda d: tuple(d.items())),
    st.integers(0, 3), st.text(alphabet="*01", max_size=3))


@st.composite
def _graphing_v(draw):
    """A word representation, a generated graphing, or a plug result."""
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["word", "generated", "plugged"]))
    if kind == "word":
        word = draw(st.text(alphabet="01", max_size=3))
        cells = draw(st.integers(len(word) + 1, len(word) + 4))
        injection = draw(st.permutations(range(cells)))[:len(word) + 1]
        return bang_representation(word, injection, cells).graphing
    if kind == "plugged":
        return plug(*random_det_pair(seed))
    f, g, _ = draw(st.sampled_from([random_det_pair, random_subprob_pair]))(seed)
    return draw(st.sampled_from([f, g, split_sources(f, seed)]))


def _sorted_graphing(g: GraphingRep) -> GraphingRep:
    """The form the text gives back: regions and edges listed in sorted order."""
    return GraphingRep(g.support.sorted(), g.dialect, tuple(
        replace(e, source=e.source.sorted()) for e in g.sorted_edges()))


ROUND_TRIPS = {
    "graphing": (_graphing_v(), format_graphing, parse_graphing, _sorted_graphing),
    "automaton": (st.sampled_from(corpus()), format_automaton, parse_automaton, None),
    "region": (_REGION_V, format_region, parse_region, Region.sorted),
    "atom": (_ATOM_V, format_atom, parse_atom, None),
    "realizer": (_REALIZER_V, format_realizer, parse_realizer, None),
    "weight": (_WEIGHT_V, format_weight, parse_weight, None),
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_formatted_values_parse_back(kind, data):
    values, fmt, parse, normal = ROUND_TRIPS[kind]
    value = data.draw(values)
    text = fmt(value)
    back = parse(text)
    assert back == (normal(value) if normal else value)
    assert fmt(back) == text


# --- int fields: a bool is refused by name or the value parses back ----------
#
# ``bool`` subclasses ``int``, and ``True`` prints as ``True``: a value built
# with it must be refused, naming the field, or parse back as an equal value
# with an equal ``repr`` (the SHA-256 pins hash ``repr``).


def _machine(heads, head) -> Automaton:
    rule = Instruction(head, "o", "id", ACCEPT, F(1))
    return Automaton("m", heads, ("init", ACCEPT, REJECT),
                     {("*" * heads, "init", None): (rule,)})


def _int_or_bool(lo, hi):
    return st.integers(lo, hi) | st.booleans()


_SUPPORT = Region((Atom("0i"),))
# kind -> (the field as refusals name it, values, build, format, parse)
INT_FIELDS = {
    "atom state": ("an atom's state", _int_or_bool(0, 4),
                   lambda v: Atom("0i", (), "*", v), format_atom, parse_atom),
    "realizer shift": ("a realizer's shift", _int_or_bool(-7, 7),
                       lambda v: Realizer(shift=v), format_realizer, parse_realizer),
    "realizer pops": ("a realizer's pops", _int_or_bool(0, 3),
                      lambda v: Realizer(pops=v, pushes="0"), format_realizer,
                      parse_realizer),
    "perm coordinate": ("a permutation entry", _int_or_bool(3, 5),
                        lambda v: Realizer(perm=((v, 2), (2, v))), format_realizer,
                        parse_realizer),
    "translation coordinate": ("a box translation", _int_or_bool(1, 3),
                               lambda v: Realizer(box_shift=((v, F(1, 2)),)),
                               format_realizer, parse_realizer),
    "translation numerator": ("a box translation", st.sampled_from([-1, 1, 3])
                              | st.booleans(),
                              lambda v: Realizer(box_shift=((1, v, 4),)),
                              format_realizer, parse_realizer),
    "weight flag": ("a weight's flag", _int_or_bool(0, 1),
                    lambda v: Weight(F(1, 2), v), format_weight, parse_weight),
    "dialect state": ("a graphing's dialect state", _int_or_bool(0, 3),
                      lambda v: GraphingRep(_SUPPORT, (0, v)), format_graphing,
                      parse_graphing),
    "automaton heads": ("an automaton's heads", _int_or_bool(1, 3),
                        lambda v: _machine(v, 1), format_automaton, parse_automaton),
    "instruction head": ("an instruction's head", _int_or_bool(1, 1),
                         lambda v: _machine(1, v), format_automaton, parse_automaton),
}


@pytest.mark.parametrize("kind", sorted(INT_FIELDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_int_fields_refuse_a_bool_by_name_or_parse_back(kind, data):
    what, values, build, fmt, parse = INT_FIELDS[kind]
    field = data.draw(values)
    try:
        value = build(field)
    except ValidationError as exc:
        assert str(exc).startswith(what), str(exc)
        return
    back = parse(fmt(value))
    assert back == value
    assert repr(back) == repr(value)


# Each of these printed text that its own parser refuses, or parsed back
# with a different ``repr``.
_BOOL_LEAKS = {
    "atom state": ("an atom's state", lambda: Atom("a", state=True)),
    "realizer shift": ("a realizer's shift", lambda: Realizer(shift=True)),
    "realizer pops": ("a realizer's pops", lambda: Realizer(pops=True)),
    "perm coordinate": ("a permutation entry",
                        lambda: Realizer(perm=((True, 2), (2, True)))),
    "translation coordinate": ("a box translation",
                               lambda: Realizer(box_shift=((True, F(1, 2)),))),
    "translation numerator": ("a box translation",
                              lambda: Realizer(box_shift=((1, True, 2),))),
    "weight flag": ("a weight's flag", lambda: Weight(F(1, 2), True)),
    "automaton heads": ("an automaton's heads", lambda: _machine(True, 1)),
    "instruction head": ("an instruction's head", lambda: _machine(1, True)),
}


@pytest.mark.parametrize("kind", sorted(_BOOL_LEAKS))
def test_a_bool_in_an_int_field_is_refused_by_name(kind):
    what, build = _BOOL_LEAKS[kind]
    with pytest.raises(ValidationError, match=f"^{what} "):
        build()


def _edge_tokens(text: str) -> list:
    """The source, realizer and weight token of each edge line, in order."""
    out = []
    for line in text.splitlines():
        if line.startswith("edge:"):
            source, _, _, realizer, weight = (f.strip() for f in line[5:].split("@"))
            out.append((("source", source), ("realizer", realizer),
                        ("weight", weight)))
    return out


def _assert_one_object_per_token(g: GraphingRep, text: str):
    objects: dict = {}
    tokens = _edge_tokens(text)
    assert len(tokens) == len(g.edges)
    for e, (source, realizer, weight) in zip(g.edges, tokens):
        for token, part in ((source, e.source), (realizer, e.realizer),
                            (weight, e.weight)):
            assert objects.setdefault(token, part) is part, token


@pytest.mark.parametrize("name", [a.name for a in corpus()])
def test_compiled_graphings_parse_back(name):
    m = compile_automaton(by_name(name))
    for g in (m.graphing, m.reachable):
        text = format_graphing(g)
        back = parse_graphing(text)
        assert back == _sorted_graphing(g)
        assert format_graphing(back) == text
        _assert_one_object_per_token(back, text)


def test_format_graphing_formats_each_distinct_part_once(monkeypatch):
    g = compile_automaton(by_name("zeros-then-ones")).graphing
    want = format_graphing(g)
    calls = {"format_region": [], "format_realizer": [], "format_weight": []}
    for name, seen in calls.items():
        def counting(part, real=getattr(graphing, name), seen=seen):
            seen.append(part)
            return real(part)
        monkeypatch.setattr(graphing, name, counting)
    assert format_graphing(g) == want
    for name, attr in (("format_region", "source"), ("format_realizer", "realizer"),
                       ("format_weight", "weight")):
        parts = {id(getattr(e, attr)) for e in g.edges}
        if name == "format_region":
            parts.add(id(g.support))
        assert sorted(map(id, calls[name])) == sorted(parts), name


# A long file whose edges repeat a few tokens; each case's bad token first
# appears on the last line, so it is parsed and checked only there.
_LATE = {"zero-measure source": ("a|[1/2,1/2]|-|0", "id", "1"),
         "source at a dialect state": ("a|-|-|1", "id", "1"),
         "box shift on coordinate 0": ("a|-|-|0", "b0:1/2", "1"),
         "repeated box shift": ("a|-|-|0", "b1:1/2,1:1/4", "1"),
         "weight above one": ("a|-|-|0", "id", "3/2")}


@pytest.mark.parametrize("case", sorted(_LATE))
def test_a_bad_token_first_met_late_fails_on_its_line(case):
    good = ["edge: 0i|[0,1/2]|-|0 @ 0 @ 1 @ s1 @ 1/2",
            "edge: 0i|[1/2,1]|-|0 @ 1 @ 0 @ s-1 @ 1/2!"]
    lines = ["dialect: 0-1", "support: " + ";".join(f"{s}|-|-|0" for s in SYMBOLS)]
    lines += good * 1000
    source, realizer, weight = _LATE[case]
    lines.append(f"edge: {source} @ 0 @ 0 @ {realizer} @ {weight}")
    with pytest.raises(FormatError, match=f"^line {len(lines)}: "):
        parse_graphing("\n".join(lines) + "\n")
    # the same lines without the last one parse, sharing the repeated tokens
    text = "\n".join(lines[:-1]) + "\n"
    g = parse_graphing(text)
    _assert_one_object_per_token(g, text)
    assert len({id(e.source) for e in g.edges}) == 2


@pytest.mark.parametrize("text", ["b0:1/2", "b-1:1/2", "b1:1/2,1:1/4",
                                  "s1 b1:1/2 b1:1/4", "b2:1/4,1:1/8,2:0"])
def test_box_shift_coordinates_must_be_positive_and_distinct(text):
    # ``apply_atom`` would drop a coordinate-0 translation unseen, and apply
    # only one of a repeated coordinate's translations
    with pytest.raises(FormatError, match="bad realizer"):
        parse_realizer(text)


@pytest.mark.parametrize("realizer", ["p(1,1000000)", "b1000000:1/2",
                                      f"s1 p(2,{MAX_COORD + 1})"])
def test_coordinates_past_the_bound_fail_on_their_line(realizer):
    # applying the realizer would build a box as wide as the coordinate
    text = ("dialect: 0\nsupport: a|-|-|0\n"
            f"edge: a|[0,1/2]|-|0 @ 0 @ 0 @ {realizer} @ 1\n")
    with pytest.raises(FormatError, match=f"^line 3: bad realizer .*past {MAX_COORD}"):
        parse_graphing(text)
    with pytest.raises(FormatError, match=f"past {MAX_COORD}"):
        parse_realizer(realizer)
