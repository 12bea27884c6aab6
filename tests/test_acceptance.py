"""Acceptance gate: the headline guarantees, one test and one verdict line each.

Every test here checks a contract between two independent routes (the rule
table oracle against the compiled dialogue engine, or a property against
seeded random instances) and prints a single summary line; details of any
failing cases ride on the assertion message.
"""

import itertools
import random
from fractions import Fraction as F

from graphings.automata import ACCEPT, REJECT, accept_probability, trace_enumerate
from graphings.compiler import compile_automaton
from graphings.corpus import LOW_BRANCHING, by_name, corpus
from graphings.execution import (ExecOptions, accept_path_sum, enumerate_paths,
                                 plug)
from graphings.generators import (random_det_pair, random_subprob_pair,
                                  split_sources)
from graphings.graphing import (equivalent, is_deterministic, is_refinement,
                                is_subprobabilistic)
from graphings.measurement import check_uniformity, make_test, membership
from graphings.space import Atom, Region
from graphings.theta import reduce, reduce_random
from graphings.words import canonical_representation

ACCEPT_REGION = Region((Atom("a"),))
TOL = F(1, 10**6)


def _words(max_len: int):
    for n in range(max_len + 1):
        for tup in itertools.product("01", repeat=n):
            yield "".join(tup)


def _verdict(label: str, bad: list, detail: str):
    print(f"{label}: {'FAIL' if bad else 'PASS'} ({detail})")
    assert not bad, f"{label}: {bad[:5]}"


def test_criterion_1_oracle_equivalence():
    # both routes to the acceptance probability agree on the whole corpus:
    # exact equality without a stack, certified bounds within 1e-6 with one
    opts = ExecOptions(stack_depth=16)
    bad = []
    checked = 0
    for a in corpus():
        m = compile_automaton(a)
        for w in _words(6):
            p, oracle_exact = accept_probability(a, w, 16)
            ps = accept_path_sum(m, canonical_representation(w),
                                 ACCEPT_REGION, opts)
            checked += 1
            if not a.stack:
                ok = oracle_exact and ps.exact and p == ps.lower_bound
            else:
                ok = abs(p - ps.lower_bound) <= TOL and ps.dropped <= TOL
            if not ok:
                bad.append((a.name, w, p, ps.lower_bound))
    _verdict("criterion 1 oracle equivalence", bad,
             f"{len(tuple(corpus()))} machines, {checked} machine/word pairs")


def test_criterion_2_trace_bijection():
    # the engine's alternating-path weights are the oracle's trace
    # probabilities, multiset-exactly
    bad = []
    checked = 0
    for name in LOW_BRANCHING:
        a = by_name(name)
        m = compile_automaton(a)
        for w in _words(4):
            oracle = sorted(p for _, p in trace_enumerate(a, w, max_len=20))
            engine = enumerate_paths(m, canonical_representation(w),
                                     max_edges=40)
            checked += 1
            if oracle != engine:
                bad.append((name, w, len(oracle), len(engine)))
    _verdict("criterion 2 trace bijection", bad,
             f"{len(LOW_BRANCHING)} machines, {checked} word runs")


def test_criterion_3_deterministic_closure():
    bad = []
    for seed in range(200):
        f, g, cut = random_det_pair(seed)
        if not is_deterministic(plug(f, g, cut)):
            bad.append(seed)
    _verdict("criterion 3 deterministic closure", bad, "200 seeded pairs")


def test_criterion_4_subprobabilistic_closure():
    bad = []
    for seed in range(200):
        f, g, cut = random_subprob_pair(seed)
        if not is_subprobabilistic(plug(f, g, cut)):
            bad.append(seed)
    _verdict("criterion 4 sub-probabilistic closure", bad, "200 seeded pairs")


def test_criterion_5_test_laws():
    # orthogonality against each family tracks the oracle exactly:
    # neg <=> rejection mass zero, pos <=> positive acceptance,
    # prob[e] <=> acceptance strictly above e, for e in {1/4, 1/2, 3/4}
    words = ("", "1", "01", "110", "0011")
    epsilons = (F(1, 4), F(1, 2), F(3, 4))
    bad = []
    checked = 0
    for a in corpus():
        m = compile_automaton(a)
        neg = make_test("neg")
        pos = make_test("pos", heads=a.heads)
        probs = [make_test("prob", heads=a.heads, epsilon=e) for e in epsilons]
        for w in words:
            p, _ = accept_probability(a, w, 16, ACCEPT)
            q, _ = accept_probability(a, w, 16, REJECT)
            rows = [(membership(m, w, neg).orthogonal, q == 0),
                    (membership(m, w, pos).orthogonal, p > 0)]
            rows += [(membership(m, w, t).orthogonal, p > e)
                     for e, t in zip(epsilons, probs)]
            checked += len(rows)
            bad += [(a.name, w, i) for i, (got, want) in enumerate(rows)
                    if got != want]
    _verdict("criterion 5 test laws", bad, f"{checked} verdicts")


def test_criterion_6_uniformity():
    # orthogonality does not depend on which representation carries the word
    words = ("", "1", "01", "110", "10")
    bad = []
    for name in LOW_BRANCHING:
        a = by_name(name)
        m = compile_automaton(a)
        tests = (make_test("neg"), make_test("pos", heads=a.heads),
                 make_test("prob", heads=a.heads, epsilon=F(1, 2)))
        for w in words:
            for t in tests:
                uniform, _ = check_uniformity(m, w, t, samples=4)
                if not uniform:
                    bad.append((name, w, t.kind))
    _verdict("criterion 6 uniformity", bad,
             f"{len(LOW_BRANCHING)} machines, {len(words)} words, 3 families, "
             f"5 representations each")


def test_criterion_7_regular_desk_check():
    a = by_name("even-ones")
    m = compile_automaton(a)
    t = make_test("pos", heads=1)
    bad = []
    checked = 0
    for w in _words(8):
        want = w.count("1") % 2 == 0
        checked += 1
        if membership(m, w, t).orthogonal != want:
            bad.append(w)
    _verdict("criterion 7 regular desk check", bad, f"{checked} words")


def test_criterion_8_measure_and_monoid_facts():
    bad = []
    n_cyl = 0
    for n in range(7):
        for tup in itertools.product("01*", repeat=n):
            w = "".join(tup)
            n_cyl += 1
            if Atom("a", (), w).measure != F(1, 3**n):
                bad.append(("measure", w))
    n_theta = 0
    for n in range(9):
        for tup in itertools.product("01*c", repeat=n):
            w = "".join(tup)
            nf = reduce(w)
            n_theta += 1
            for s in range(3):
                if reduce_random(w, random.Random(hash((w, s)) & 0xFFFF)) != nf:
                    bad.append(("theta", w, s))
    _verdict("criterion 8 measure and monoid facts", bad,
             f"{n_cyl} cylinder measures, {n_theta} normal forms x 3 orders")


def test_criterion_9_refinement_soundness():
    bad = []
    for seed in range(100):
        f, g, cut = random_det_pair(seed)
        fine = split_sources(f, seed)
        ok = (is_refinement(fine, f) and equivalent(fine, f)
              and equivalent(plug(fine, g, cut), plug(f, g, cut)))
        if not ok:
            bad.append(seed)
    _verdict("criterion 9 refinement soundness", bad, "100 seeded graphings")
