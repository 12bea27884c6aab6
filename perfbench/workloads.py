"""The three benchmark workloads: seeded inputs, one request, its check.

Every workload builds its inputs from the seed alone and hands the library
nothing but the generated machines, words and graphing pairs.  A request is
one user-meaningful verdict; ``run`` returns whether the independent route
agreed and a tuple of strings holding every exact answer, which the harness
hashes into the workload's digest.  ``plan`` makes the seeded choices that
are not part of set-up (it runs once, untimed); ``generate`` builds the
inputs from them and is timed as set-up.

The library is reached only through the module objects in ``g`` and always
by attribute lookup at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import itertools
import random

TOL = Fraction(1, 10**6)
STACK_DEPTH = 16

PUSHDOWN = ("zeros-then-ones", "push-all-pop-all", "peek-repeat",
            "balanced-prefix", "stack-parity", "prob-push-walk",
            "biased-stack-walk", "biased-stack-walk-2", "peek-then-flip")
# The four largest stack-free machines are left out: ``bookends`` (2,810
# edges), ``zigzag-parity`` (3,350), ``round-robin`` (8,858) and
# ``rotation-parity`` (17,606).  Their path sums walk a machine index large
# enough to wait partly on memory, so a busy host slows them less than it
# slows the speed kernel, and rescaling would over-correct them (see
# ``speed.py`` and the README).  They would also take most of the time.
MULTIHEAD = ("first-equals-last", "first-equals-last-prob",
             "two-head-double-parity", "two-head-match-shift",
             "two-head-flip-per-agree", "two-head-palindrome",
             "two-head-guess-middle")
EPSILONS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

# size -> parameters; "tiny" is for the self-test only
PUSHDOWN_SIZES = {"full": (PUSHDOWN, 6, 2),
                  "tiny": (("zeros-then-ones", "stack-parity"), 2, 1)}
MULTIHEAD_SIZES = {"full": (MULTIHEAD, 4, 3),
                   "tiny": (("first-equals-last", "two-head-double-parity"), 1, 1)}
PLUG_SIZES = {"full": (200, 200, 100), "tiny": (3, 3, 2)}


def _words(rng: random.Random, length: int, count: int) -> list[str]:
    """``count`` distinct words of one length (all of them if fewer exist)."""
    total = 2 ** length
    picks = rng.sample(range(total), min(count, total))
    return [format(i, f"0{length}b") if length else "" for i in picks]


def _fracs(*values) -> str:
    return "|".join(str(v) for v in values)


@dataclass
class Inputs:
    automata: list          # machines to compile (may be empty)
    requests: list          # workload-specific request tuples
    extra: dict             # anything else built at set-up


class PushdownAccept:
    """Both routes to the acceptance probability of the pushdown corpus."""

    name = "pushdown-accept"

    def plan(self, g, seed: int, size: str):
        return None

    def generate(self, g, seed: int, size: str, plan) -> Inputs:
        names, max_len, per_len = PUSHDOWN_SIZES[size]
        rng = random.Random(f"{self.name}:{seed}")
        machines = [g.corpus.by_name(n) for n in names]
        requests = []
        for a in machines:
            for n in range(max_len + 1):
                for w in _words(rng, n, 1 if n == 0 else per_len):
                    requests.append((a, w))
        region = g.space.Region((g.space.Atom("a"),))
        opts = g.execution.ExecOptions(stack_depth=STACK_DEPTH)
        return Inputs(machines, requests, {"region": region, "opts": opts})

    def run(self, g, inputs: Inputs, compiled: dict, req):
        a, w = req
        p, oracle_exact = g.automata.accept_probability(a, w, STACK_DEPTH)
        ps = g.execution.accept_path_sum(
            compiled[a.name], g.words.canonical_representation(w),
            inputs.extra["region"], inputs.extra["opts"])
        # criterion 1, pushdown rule: certified bounds within 1e-6
        ok = abs(p - ps.lower_bound) <= TOL and ps.dropped <= TOL
        return ok, (a.name, w, _fracs(p, oracle_exact, ps.lower_bound,
                                      ps.dropped, ps.exact))


class MultiheadLaws:
    """Membership verdicts of the multihead machines against the oracle."""

    name = "multihead-laws"

    def plan(self, g, seed: int, size: str):
        return None

    def generate(self, g, seed: int, size: str, plan) -> Inputs:
        names, max_len, per_len = MULTIHEAD_SIZES[size]
        rng = random.Random(f"{self.name}:{seed}")
        machines = [g.corpus.by_name(n) for n in names]
        requests = []
        for a in machines:
            tests = [g.measurement.make_test("neg"),
                     g.measurement.make_test("pos", heads=a.heads)]
            tests += [g.measurement.make_test("prob", heads=a.heads, epsilon=e)
                      for e in EPSILONS]
            for n in range(max_len + 1):
                for w in _words(rng, n, 1 if n == 0 else per_len):
                    requests += [(a, w, t) for t in tests]
        return Inputs(machines, requests, {})

    def run(self, g, inputs: Inputs, compiled: dict, req):
        a, w, test = req
        report = g.measurement.membership(compiled[a.name], w, test)
        # criterion 5: neg <=> reject mass 0, pos <=> accept mass > 0,
        # prob[e] <=> accept mass > e
        outcome = g.automata.REJECT if test.kind == "neg" else g.automata.ACCEPT
        mass, _ = g.automata.accept_probability(a, w, STACK_DEPTH, outcome)
        if test.kind == "neg":
            want = mass == 0
        elif test.kind == "pos":
            want = mass > 0
        else:
            want = mass > test.epsilon
        rows = [_fracs(r.mass, r.upper, r.exact, r.ok) for r in report.rows]
        return report.orthogonal == want, (a.name, w, test.kind,
                                           str(test.epsilon), str(mass),
                                           str(report.orthogonal), *rows)


# A plug costs up to ten times more on one pair than on another, mostly by
# the pair's shape: grid, the two dialect sizes and the cut's width.  Drawn
# freely, the shapes move a whole pass by 15% from seed to seed.  So every
# shape gets a fixed quota, in proportion to how often ``generators`` draws
# it (grid 2, 3 or 4 alike; a dialect of two states one time in three; a
# two-symbol cut two times in five), and the seed picks the pairs within it.
def _shape_quotas(n: int) -> dict:
    share = {}
    for grid, df, dg, width in itertools.product((2, 3, 4), (1, 2), (1, 2),
                                                 (1, 2)):
        share[(grid, df, dg, width)] = (Fraction(1, 3)
                                        * Fraction(1 if df == 2 else 2, 3)
                                        * Fraction(1 if dg == 2 else 2, 3)
                                        * Fraction(2 if width == 2 else 3, 5))
    quota = {k: int(n * v) for k, v in share.items()}
    by_remainder = sorted(share, key=lambda k: (-(n * share[k] - quota[k]), k))
    for k in by_remainder[:n - sum(quota.values())]:
        quota[k] += 1
    return quota


def _by_shape(rng: random.Random, n: int, make) -> list:
    """``n`` generator seeds whose pairs fill every shape's quota."""
    left = _shape_quotas(n)
    out = []
    draws = 0
    while len(out) < n:
        s = rng.randrange(2**31)
        shape = _shape(*make(s))
        draws += 1
        # past 40 draws a pair, take any shape rather than stall
        if left.get(shape, 0) > 0 or draws > 40 * n:
            left[shape] = left.get(shape, 0) - 1
            out.append(s)
    return out


def _shape(f, g, cut) -> tuple:
    widths = [a.box[0].hi - a.box[0].lo for e in f.edges + g.edges
              for a in e.source.atoms]
    grid = round(1 / min(widths)) if widths else 0
    return (grid, len(f.dialect), len(g.dialect), len(cut.cut.atoms))


class PlugClosure:
    """Plug seeded generator pairs and check closure or refinement."""

    name = "plug-closure"

    def plan(self, g, seed: int, size: str) -> dict:
        """The generator seeds of each kind; drawing them is not set-up."""
        n_det, n_sub, n_ref = PLUG_SIZES[size]
        rng = random.Random(f"{self.name}:{seed}")
        gen = g.generators
        return {"det": _by_shape(rng, n_det, gen.random_det_pair),
                "sub": _by_shape(rng, n_sub, gen.random_subprob_pair),
                "ref": _by_shape(rng, n_ref, gen.random_det_pair)}

    def generate(self, g, seed: int, size: str, plan: dict) -> Inputs:
        gen = g.generators
        requests = [("det", s, *gen.random_det_pair(s)) for s in plan["det"]]
        requests += [("sub", s, *gen.random_subprob_pair(s))
                     for s in plan["sub"]]
        for s in plan["ref"]:
            pair = gen.random_det_pair(s)
            requests.append(("ref", s, *pair, gen.split_sources(pair[0], s)))
        return Inputs([], requests, {})

    @staticmethod
    def _mass(h) -> Fraction:
        # integrated outgoing weight: the same for every refinement of h
        return sum((e.weight.p * e.source.measure for e in h.edges), Fraction(0))

    def run(self, g, inputs: Inputs, compiled: dict, req):
        kind, s, f, gr, cut = req[:5]
        ex, gp = g.execution, g.graphing
        h = ex.plug(f, gr, cut)
        if kind == "det":
            verdict = (gp.is_deterministic(h),)
        elif kind == "sub":
            verdict = (gp.is_subprobabilistic(h),)
        else:
            # criterion 9: a refinement stays equivalent, and plugging
            # equivalent inputs gives equivalent outputs
            fine = req[5]
            verdict = (gp.is_refinement(fine, f), gp.equivalent(fine, f),
                       gp.equivalent(ex.plug(fine, gr, cut), h))
        return all(verdict), (kind, str(s), str(len(h.dialect)),
                              str(self._mass(h)), *map(str, verdict))


WORKLOADS = {w.name: w for w in (PushdownAccept(), MultiheadLaws(),
                                 PlugClosure())}
