"""Configuration-level probability oracle for multihead machines."""

from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction as F
import hashlib
from itertools import product
from math import lcm
import re

import pytest

from graphings import automata
from graphings.automata import (ACCEPT, REJECT, Automaton, Instruction,
                                accept_probability, firing_key, format_automaton,
                                parse_automaton, read_vector, trace_enumerate)
from graphings.compiler import compile_automaton
from graphings.corpus import by_name, coin_half, corpus
from graphings.errors import FormatError, ValidationError
from graphings.linsolve import prune
from test_compiler import POP_MARKER, START_PUSH
from test_linsolve import reference_solve


def p(name, word, depth=16):
    prob, exact = accept_probability(by_name(name), word, depth)
    assert exact
    return prob


def test_read_vector_marker_positions():
    assert read_vector("01", (0, 1, 2)) == "*01"
    assert read_vector("01", (3, 4)) == "*0"  # wraps mod 3
    assert read_vector("", (0, 5)) == "**"


def test_every_corpus_machine_validates():
    # construction validates, so building the catalog is the whole check
    assert len(corpus()) == 46


def test_corpus_has_enough_variety():
    machines = corpus()
    assert len(machines) >= 40
    assert {a.heads for a in machines} == {1, 2, 3}
    assert any(a.stack for a in machines)
    assert any(not a.stack for a in machines)
    probabilistic = [a for a in machines
                     if any(t.prob != 1 for ts in a.delta.values() for t in ts)]
    assert len(probabilistic) >= 10


def test_deterministic_language_machines():
    assert p("accept-now", "") == 1 and p("reject-now", "") == 0
    for w in ("", "11", "0110"):
        assert p("even-ones", w) == 1
    for w in ("1", "010"):
        assert p("even-ones", w) == 0 and p("odd-ones", w) == 1
    assert p("all-zeros", "000") == 1 and p("all-zeros", "010") == 0
    assert p("contains-one", "001") == 1 and p("contains-one", "00") == 0
    assert p("length-even", "0110") == 1 and p("length-even", "011") == 0
    assert p("ends-with-one", "01") == 1 and p("ends-with-one", "10") == 0
    assert p("first-is-one", "10") == 1 and p("first-is-one", "01") == 0


def test_looping_machine_never_halts_on_ones():
    assert p("loop-on-one", "00") == 1
    assert p("loop-on-one", "01") == 0  # runs forever, accept mass zero


def test_weighted_coins():
    assert p("coin-half", "") == F(1, 2)
    assert p("coin-third", "") == F(1, 3)
    assert p("coin-quarter", "") == F(1, 4)
    assert p("coin-three-quarters", "") == F(3, 4)
    assert p("coin-five-eighths", "") == F(5, 8)


def test_retry_loops_sum_geometric_series():
    assert p("retry-half", "") == 1
    assert p("retry-quarter-reject", "") == 0


def test_per_letter_flips():
    assert p("flip-per-one", "1011") == F(1, 8)
    assert p("flip-per-one", "000") == 1
    assert p("flip-per-zero-third", "0100") == F(1, 27)
    assert p("mixed-flip", "01") == F(3, 8)
    assert p("mixed-flip", "0011") == F(9, 64)


def test_unbiased_wanderer_accepts_surely():
    assert p("lazy-scan", "010") == 1
    assert p("drunken-parity", "11") == F(5, 8)
    assert p("drunken-parity", "1") == F(1, 4)


def test_guessing_machines_positivity():
    assert p("guess-a-one", "010") == F(1, 2)
    assert p("guess-a-one", "000") == 0
    assert p("guess-two-ones", "0110") == F(1, 4)
    assert p("guess-two-ones", "0100") == 0
    assert p("guess-boundary-01", "0011") == F(3, 4)
    assert p("guess-boundary-01", "1100") == 0
    assert p("all-or-guess", "011") == F(8, 27)
    assert p("all-or-guess", "") == 1


def test_multihead_machines():
    assert p("first-equals-last", "") == 1
    assert p("first-equals-last", "1") == 1
    assert p("first-equals-last", "10") == 0
    assert p("first-equals-last", "101") == 1
    assert p("first-equals-last-prob", "00") == F(3, 4)
    assert p("first-equals-last-prob", "01") == F(1, 4)
    assert p("two-head-double-parity", "0110") == 1
    assert p("two-head-double-parity", "011") == 0
    assert p("two-head-match-shift", "00") == 1
    assert p("two-head-match-shift", "01") == 0
    assert p("two-head-flip-per-agree", "0011") == F(1, 4)
    assert p("two-head-palindrome", "010") == 1
    assert p("two-head-palindrome", "01") == 0
    assert p("two-head-guess-middle", "01101") == F(13, 31)


def test_three_head_machines():
    assert p("round-robin", "01") == 1
    assert p("rotation-parity", "110") == 1
    assert p("bookends", "101") == 1
    assert p("bookends", "100") == 0
    assert p("zigzag-parity", "0110") == 1


def test_stack_machines_languages():
    for w in ("", "01", "0011", "000111"):
        assert p("zeros-then-ones", w) == 1
    for w in ("001", "10", "0101"):
        assert p("zeros-then-ones", w) == 0
    assert p("push-all-pop-all", "010") == 1
    assert p("peek-repeat", "0101") == 1
    assert p("peek-repeat", "010") == 0
    assert p("balanced-prefix", "0101") == 1
    assert p("balanced-prefix", "0110") == 0
    assert p("stack-parity", "1010") == 1
    assert p("prob-push-walk", "01") == 1
    assert p("peek-then-flip", "0110") == F(1, 4)
    assert p("peek-then-flip", "011") == 0


def test_deep_stack_truncation_reports_inexact():
    a = by_name("biased-stack-walk")
    prob, exact = accept_probability(a, "", 16)
    assert not exact
    assert F(7, 8) - prob < F(1, 10 ** 6)
    deeper, _ = accept_probability(a, "", 24)
    assert deeper > prob  # lower bounds improve with budget


def test_accept_and_reject_outcomes_partition_halting_mass():
    a = by_name("coin-third")
    acc, _ = accept_probability(a, "", 16, outcome=ACCEPT)
    rej, _ = accept_probability(a, "", 16, outcome=REJECT)
    assert acc + rej == 1
    with pytest.raises(ValidationError):
        accept_probability(a, "", 16, outcome="maybe")


def test_trace_enumerate_counts_prefixes():
    traces = trace_enumerate(by_name("even-ones"), "1", max_len=6)
    assert [len(steps) for steps, _ in traces] == [1, 2, 3]
    assert all(w == 1 for _, w in traces)
    short = trace_enumerate(by_name("even-ones"), "1", max_len=2)
    assert [len(steps) for steps, _ in short] == [1, 2]


def test_trace_enumerate_splits_on_probability():
    traces = trace_enumerate(by_name("coin-half"), "", max_len=20)
    assert sorted(w for _, w in traces) == [F(1, 2), F(1, 2)]


def test_validation_rejects_bad_tables():
    with pytest.raises(ValidationError, match="probabilities sum"):
        Automaton("bad", 1, (ACCEPT, REJECT, "init", "s"), {
            ("0", "init", None): (Instruction(1, "o", "id", "s", F(1, 2)),
                                  Instruction(1, "o", "id", ACCEPT, F(2, 3))),
        })
    with pytest.raises(ValidationError, match="no transitions may leave"):
        Automaton("bad2", 1, (ACCEPT, REJECT, "init"), {
            ("*", ACCEPT, None): (Instruction(1, "o", "id", "init", F(1)),),
        })


def test_built_machine_cannot_change():
    a = by_name("even-ones")
    with pytest.raises(FrozenInstanceError):
        a.heads = 2
    with pytest.raises(TypeError):
        a.delta[("1", "init", None)] = ()
    assert a == parse_automaton(format_automaton(a))
    table = {("*", "init", None): (Instruction(1, "o", "id", ACCEPT, F(1)),)}
    b = Automaton("now", 1, ("init", ACCEPT, REJECT), table)
    table[("0", "init", None)] = ()  # the machine keeps its own copy
    assert list(b.delta) == [("*", "init", None)]


def test_consumers_trust_a_built_machine(monkeypatch):
    calls = []
    checker = automata._violations
    monkeypatch.setattr(automata, "_violations",
                        lambda a: calls.append(a.name) or checker(a))
    a = coin_half()
    assert calls == ["coin-half"]  # checked on construction
    calls.clear()
    accept_probability(a, "01")
    trace_enumerate(a, "01")
    compile_automaton(a)
    assert calls == []


def test_by_name_builds_each_machine_once(monkeypatch):
    by_name.cache_clear()
    calls = []
    checker = automata._violations
    monkeypatch.setattr(automata, "_violations",
                        lambda a: calls.append(a.name) or checker(a))
    a = by_name("coin-half")
    assert by_name("coin-half") is a
    assert by_name("peek-then-flip").name == "peek-then-flip"
    assert calls == ["coin-half", "peek-then-flip"]
    with pytest.raises(KeyError, match="no machine named 'nowhere'"):
        by_name("nowhere")


def test_by_name_finds_every_catalog_machine():
    for a in corpus():
        assert by_name(a.name) == a
        assert by_name(a.name) is not a  # corpus() still builds afresh


def test_parse_reports_table_violations_as_format_errors():
    text = ("heads: 1\nstates: init accept reject\n"
            "rule: * | init | - -> 1 o id nowhere 1\n")
    with pytest.raises(FormatError, match="unknown next state 'nowhere'"):
        parse_automaton(text)


def test_format_roundtrip_preserves_behaviour():
    for name in ("even-ones", "zeros-then-ones", "two-head-palindrome"):
        a = by_name(name)
        b = parse_automaton(format_automaton(a))
        assert b.name == a.name and b.heads == a.heads and b.stack == a.stack
        for w in ("", "01", "110"):
            assert accept_probability(a, w, 12) == accept_probability(b, w, 12)


# --- the oracle before its integer table, as a reference -----------------------


def lookup(a, read, state, last):
    """Transition row for a configuration: exact key first, then wildcard."""
    row = a.delta.get((read, state, last))
    if row is None:
        row = a.delta.get((read, state, None), ())
    return row


def test_firing_key_names_the_row_lookup_reads():
    for a in corpus() + [parse_automaton(POP_MARKER), parse_automaton(START_PUSH)]:
        for read, state in product(("".join(r) for r in product("*01", repeat=a.heads)),
                                   a.states):
            for last in "*01":
                key = firing_key(a, read, state, last)
                assert a.delta.get(key, ()) == lookup(a, read, state, last)
                assert key[:2] == (read, state) and key[2] in (last, None)


def _reference_expand(a, word, config, depth):
    """Successors of a configuration, read through ``lookup`` with
    ``Fraction`` probabilities: ``(instruction, kind, payload)``."""
    state, positions, stack, last, just = config
    n = len(word) + 1
    read = read_vector(word, positions)
    for t in lookup(a, read, state, last):
        if just and t.stack_op != "push_*":
            raise ValidationError(
                f"{a.name or 'machine'}: popped the bottom marker and then "
                f"failed to push it back (state {state}, read {read})")
        if t.next_state in (ACCEPT, REJECT):
            yield t, "halt", t.next_state if stack == ("*",) else None
            continue
        if t.stack_op == "pop":
            if not stack:
                yield t, "halt", None
                continue
            popped, new_stack = stack[0], stack[1:]
            new_last, new_just = popped, popped == "*"
        elif t.stack_op == "id":
            new_stack, new_last, new_just = stack, last, False
        else:
            if len(stack) >= depth:
                yield t, "drop", None
                continue
            new_stack = (t.stack_op[-1],) + stack
            new_last, new_just = last, False
        moved = list(positions)
        moved[t.head - 1] = (moved[t.head - 1] + (1 if t.direction == "o" else -1)) % n
        yield t, "step", (t.next_state, tuple(moved), new_stack, new_last, new_just)


def reference_probability(a, word, stack_depth=16, outcome=ACCEPT):
    """The oracle walk in ``Fraction``s, solved by the reference solver."""
    index, order, preds, contrib = {}, [], [], []
    truncated = False

    def intern(config):
        if config not in index:
            index[config] = len(order)
            order.append(config)
            preds.append([])
            contrib.append(F(0))
        return index[config]

    intern(("init", (0,) * a.heads, ("*",), "*", False))
    pos = 0
    while pos < len(order):
        for t, kind, payload in _reference_expand(a, word, order[pos], stack_depth):
            if kind == "halt":
                if payload == outcome:
                    contrib[pos] += t.prob
            elif kind == "drop":
                truncated = True
            else:
                preds[intern(payload)].append((pos, t.prob))
        pos += 1
    kept, rows = prune(preds, [i for i, c in enumerate(contrib) if c > 0])
    if not kept or kept[0] != 0:
        return F(0), not truncated
    visits = reference_solve(rows, [F(1)] + [F(0)] * (len(kept) - 1))
    return sum((v * contrib[i] for v, i in zip(visits, kept)), F(0)), not truncated


WORDS_UP_TO_4 = ["".join(w) for n in range(5) for w in product("01", repeat=n)]


def _agrees_with_the_reference(a, word, depth):
    for outcome in (ACCEPT, REJECT):
        got = accept_probability(a, word, depth, outcome)
        assert type(got[0]) is F and type(got[1]) is bool
        assert got == reference_probability(a, word, depth, outcome)


@pytest.mark.parametrize("a", corpus(), ids=lambda a: a.name)
def test_integer_oracle_matches_the_fraction_oracle(a):
    for word in WORDS_UP_TO_4:
        _agrees_with_the_reference(a, word, 16)


@pytest.mark.parametrize("depth", [1, 2, 5])  # 16 is the corpus test above
def test_integer_oracle_matches_on_pushdown_machines_at_each_depth(depth):
    machines = [a for a in corpus() if a.stack]
    assert len(machines) == 9
    for a in machines:
        for word in WORDS_UP_TO_4:
            _agrees_with_the_reference(a, word, depth)


@pytest.mark.parametrize("word, read", [("", "*"), ("0", "0"), ("01", "0")])
def test_both_oracles_refuse_a_lost_bottom_marker_alike(word, read):
    a = parse_automaton(POP_MARKER)
    message = ("pop-marker: popped the bottom marker and then failed to push "
               f"it back (state q, read {read})")
    for oracle in (accept_probability, reference_probability):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            oracle(a, word)


# SHA-256 over the text and repr of every corpus machine, as they were before
# the oracle's table: the table stays out of both
CORPUS_TEXT_SHA256 = "530b8e1c5b2c2d25a381b42c96232b32a64299bd6746d23310c156a6870752de"


def test_the_oracle_table_stays_private():
    assert [f.name for f in fields(Automaton)] == ["name", "heads", "states",
                                                   "delta", "stack"]
    digest = hashlib.sha256()
    for a in corpus():
        digest.update(format_automaton(a).encode())
        digest.update(repr(a).encode())
        assert a == parse_automaton(format_automaton(a)) == replace(a)
        assert "_steps" not in repr(a) and "_den" not in repr(a)
    assert digest.hexdigest() == CORPUS_TEXT_SHA256


def test_oracle_table_reads_as_lookup_over_one_denominator():
    # each table row in its own order too: an exact row precedes or follows
    # its wildcard row, and wins either way
    machines = corpus() + [parse_automaton(POP_MARKER)]
    for a in machines + [replace(a, delta=dict(reversed(a.delta.items())))
                         for a in machines]:
        assert a._den == lcm(*(t.prob.denominator
                               for ts in a.delta.values() for t in ts))
        for read, state in {key[:2] for key in a.delta}:
            for last in "*01":
                row = a._steps.get((read, state, last), ())
                assert [(t, F(w, a._den)) for t, w in row] == \
                    [(t, t.prob) for t in lookup(a, read, state, last)]


def test_replace_gives_a_machine_its_own_table():
    key = ("*", "init", None)
    a = Automaton("coin", 1, ("init", ACCEPT, REJECT), {key: (
        Instruction(1, "o", "id", ACCEPT, F(1, 2)),
        Instruction(1, "o", "id", REJECT, F(1, 2)))})
    renamed = replace(a, name="renamed")
    assert renamed._steps is not a._steps and renamed._steps == a._steps
    b = replace(a, delta={key: (Instruction(1, "o", "id", ACCEPT, F(1, 3)),
                                Instruction(1, "o", "id", REJECT, F(2, 3)))})
    assert (a._den, b._den) == (2, 3)
    assert accept_probability(a, "") == (F(1, 2), True)
    assert accept_probability(b, "") == (F(1, 3), True)
    assert accept_probability(b, "", outcome=REJECT) == (F(2, 3), True)
