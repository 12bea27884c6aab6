"""The standard test families, and orthogonality against them.

Each family observes a region of the result space: ``neg`` the reject
interval, ``pos`` shrinking accept cubes, ``prob`` the same cubes with the
tracked stack tail pinned.  Each family's law is an exact predicate on the
stack-neutral dialogue mass of its members, computed by the path-sum engine,
so every verdict is an exact comparison of rationals or, when stack
truncation leaves it open, a ``TruncationError``.  Membership runs a test
against the canonical representation of a word; uniformity reruns it across
sampled representations.
"""

from dataclasses import dataclass
from fractions import Fraction
import math
from numbers import Real
import random

from .errors import TruncationError, ValidationError
from .execution import ExecOptions, PathSum, accept_path_sum
from .space import Atom, Interval, Region

_ZERO = Fraction(0)


@dataclass(frozen=True)
class TestMember:
    name: str
    region: Region


# each family's law on the mass of its members
_LAWS = {"neg": "zero", "pos": "positive", "prob": "threshold"}


@dataclass(frozen=True)
class Test:
    kind: str                   # "neg" | "pos" | "prob"
    members: tuple
    epsilon: Fraction | None = None

    def __post_init__(self):
        if self.kind not in _LAWS:
            raise ValidationError(f"unknown test kind {self.kind!r}")
        if self.kind == "prob":
            if not isinstance(self.epsilon, Real) or not 0 <= self.epsilon <= 1:
                raise ValidationError("a probability test needs a threshold in [0,1]")
            object.__setattr__(self, "epsilon", Fraction(self.epsilon))


def _pos_region(n: int, cyl: str = "") -> Region:
    box = tuple(Interval(_ZERO, Fraction(1, n)) for _ in range(n))
    return Region((Atom("a", box, cyl),))


def make_test(kind: str, heads: int = 1,
              epsilon: Fraction | None = None) -> Test:
    """Build one of the three standard test families.

    ``neg`` observes the reject interval; membership demands zero reject-side
    dialogue mass.  ``pos`` observes shrinking accept cubes, one per
    dimension count up to heads + 1; membership demands positive mass in
    each.  ``prob`` additionally pins the tracked stack tail and raises the
    bar to a strict threshold.
    """
    if heads < 0:
        raise ValidationError(f"head count must be at least 0, got {heads}")
    if kind == "neg":
        return Test("neg", (TestMember("reject[1]", Region((Atom("r"),))),))
    tail = "*" if kind == "prob" else ""
    return Test(kind, tuple(TestMember(f"cube[{n}]", _pos_region(n, tail * n))
                            for n in range(1, heads + 2)),
                epsilon if kind == "prob" else None)


@dataclass(frozen=True)
class MemberReport:
    name: str
    mass: Fraction              # exact, or a certified lower bound
    upper: Fraction
    exact: bool
    law: str
    ok: bool


@dataclass(frozen=True)
class TestReport:
    kind: str
    orthogonal: bool
    rows: tuple
    epsilon: Fraction | None = None


def _judge(law: str, mass: Fraction, upper: Fraction, exact: bool,
           epsilon) -> bool:
    if law == "zero":
        if mass > 0:
            return False
        if exact or upper == 0:
            return True
    elif law == "positive":
        if mass > 0:
            return True
        if exact:
            return False
    else:  # above threshold
        if mass > epsilon:
            return True
        if exact or upper <= epsilon:
            return False
    raise TruncationError(
        f"stack truncation leaves mass in [{mass}, {upper}]; cannot decide "
        f"law {law!r}")


def orthogonal_to_test(machine, word, test: Test,
                       opts: ExecOptions = ExecOptions()) -> TestReport:
    """Decide orthogonality against a test family by exact member masses.

    Each member's stack-neutral dialogue mass is computed by the path-sum
    engine; the family's law is then an exact comparison.  When truncation
    leaves the comparison undecidable this raises instead of guessing.
    """
    law = _LAWS[test.kind]
    rows = []
    for mb in test.members:
        ps: PathSum = accept_path_sum(machine, word, mb.region, opts)
        mass = ps.lower_bound
        upper = mass + ps.dropped
        ok = _judge(law, mass, upper, ps.exact, test.epsilon)
        rows.append(MemberReport(mb.name, mass, upper, ps.exact, law, ok))
    return TestReport(test.kind, all(r.ok for r in rows), tuple(rows),
                      test.epsilon)


def membership(machine, word: str, test: Test,
               opts: ExecOptions = ExecOptions()) -> TestReport:
    from .words import canonical_representation

    return orthogonal_to_test(machine, canonical_representation(word), test,
                              opts)


def check_uniformity(machine, word: str, test: Test, samples: int = 5,
                     seed: int = 0):
    """Orthogonality verdicts across sampled word representations.

    Samples marker-anchored position injections (the marker stays at cell
    zero; the k other positions scatter over cells 1..k + 3) and reruns the
    test against each.  Returns (uniform, verdicts) with one verdict per
    distinct injection, the canonical placement always included first.
    """
    from .words import bang_representation

    k = len(word)
    m = k + 3
    rng = random.Random(seed)
    injections = [tuple(range(k + 1))]
    available = math.perm(m, k)
    while len(injections) < min(samples + 1, available):
        inj = (0,) + tuple(rng.sample(range(1, m + 1), k))
        if inj not in injections:
            injections.append(inj)
    verdicts = []
    for inj in injections:
        rep = bang_representation(word, inj, cells=m + 1)
        report = orthogonal_to_test(machine, rep, test)
        verdicts.append((inj, report.orthogonal))
    uniform = len({v for _, v in verdicts}) == 1
    return uniform, verdicts
