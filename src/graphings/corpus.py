"""A catalog of small multihead machines used by the checks and the CLI.

Machines are validated by their type, not ``_mk``.  Multihead machines park
all heads back on the marker before halting, since halting steps demand
the all-marker read vector.  Pushdown machines drain their stack to the
bottom marker before halting on the counting side, so their halts count.
"""

from fractions import Fraction
from functools import cache
from itertools import product

from .automata import ACCEPT, INIT, REJECT, Automaton, Instruction

F = Fraction


def ins(head: int, direction: str, nxt: str, prob=1, op: str = "id"):
    return Instruction(head, direction, op, nxt, F(prob))


def _mk(name, heads, extra_states, rules, stack=False):
    delta = {}
    for key, instrs in rules.items():
        if len(key) == 2:
            key = (key[0], key[1], None)
        if key in delta:
            raise ValueError(f"{name}: duplicate key {key}")
        delta[key] = tuple(instrs)
    states = (INIT,) + tuple(extra_states) + (ACCEPT, REJECT)
    return Automaton(name, heads, states, delta, stack)


def _park(rules, state, verdict, head=1):
    """Walk one head to the marker, then halt; for single-head machines."""
    rules[("0", state)] = [ins(head, "o", state)]
    rules[("1", state)] = [ins(head, "o", state)]
    rules[("*", state)] = [ins(head, "o", verdict)]


# --- one head, deterministic ----------------------------------------------------


def accept_now():
    return _mk("accept-now", 1, (), {("*", INIT): [ins(1, "o", ACCEPT)]})


def reject_now():
    return _mk("reject-now", 1, (), {("*", INIT): [ins(1, "o", REJECT)]})


def even_ones():
    r = {("*", INIT): [ins(1, "o", "ev")],
         ("0", "ev"): [ins(1, "o", "ev")], ("1", "ev"): [ins(1, "o", "od")],
         ("0", "od"): [ins(1, "o", "od")], ("1", "od"): [ins(1, "o", "ev")],
         ("*", "ev"): [ins(1, "o", ACCEPT)], ("*", "od"): [ins(1, "o", REJECT)]}
    return _mk("even-ones", 1, ("ev", "od"), r)


def odd_ones():
    r = {("*", INIT): [ins(1, "o", "ev")],
         ("0", "ev"): [ins(1, "o", "ev")], ("1", "ev"): [ins(1, "o", "od")],
         ("0", "od"): [ins(1, "o", "od")], ("1", "od"): [ins(1, "o", "ev")],
         ("*", "ev"): [ins(1, "o", REJECT)], ("*", "od"): [ins(1, "o", ACCEPT)]}
    return _mk("odd-ones", 1, ("ev", "od"), r)


def all_zeros():
    r = {("*", INIT): [ins(1, "o", "scan")],
         ("0", "scan"): [ins(1, "o", "scan")],
         ("1", "scan"): [ins(1, "o", "bad")],
         ("*", "scan"): [ins(1, "o", ACCEPT)]}
    _park(r, "bad", REJECT)
    return _mk("all-zeros", 1, ("scan", "bad"), r)


def contains_one():
    r = {("*", INIT): [ins(1, "o", "scan")],
         ("0", "scan"): [ins(1, "o", "scan")],
         ("1", "scan"): [ins(1, "o", "good")],
         ("*", "scan"): [ins(1, "o", REJECT)]}
    _park(r, "good", ACCEPT)
    return _mk("contains-one", 1, ("scan", "good"), r)


def length_even():
    r = {("*", INIT): [ins(1, "o", "pe")],
         ("0", "pe"): [ins(1, "o", "po")], ("1", "pe"): [ins(1, "o", "po")],
         ("0", "po"): [ins(1, "o", "pe")], ("1", "po"): [ins(1, "o", "pe")],
         ("*", "pe"): [ins(1, "o", ACCEPT)], ("*", "po"): [ins(1, "o", REJECT)]}
    return _mk("length-even", 1, ("pe", "po"), r)


def ends_with_one():
    r = {("*", INIT): [ins(1, "o", "l0")],
         ("0", "l0"): [ins(1, "o", "l0")], ("1", "l0"): [ins(1, "o", "l1")],
         ("0", "l1"): [ins(1, "o", "l0")], ("1", "l1"): [ins(1, "o", "l1")],
         ("*", "l0"): [ins(1, "o", REJECT)], ("*", "l1"): [ins(1, "o", ACCEPT)]}
    return _mk("ends-with-one", 1, ("l0", "l1"), r)


def first_is_one():
    r = {("*", INIT): [ins(1, "o", "f")],
         ("1", "f"): [ins(1, "o", "good")],
         ("0", "f"): [ins(1, "o", "bad")],
         ("*", "f"): [ins(1, "o", REJECT)]}
    _park(r, "good", ACCEPT)
    _park(r, "bad", REJECT)
    return _mk("first-is-one", 1, ("f", "good", "bad"), r)


def loop_on_one():
    # oscillates forever at the first 1, so only 0* gets accepted
    r = {("*", INIT): [ins(1, "o", "scan")],
         ("0", "scan"): [ins(1, "o", "scan")],
         ("1", "scan"): [ins(1, "i", "back")],
         ("*", "scan"): [ins(1, "o", ACCEPT)],
         ("0", "back"): [ins(1, "o", "scan")],
         ("1", "back"): [ins(1, "o", "scan")],
         ("*", "back"): [ins(1, "o", "scan")]}
    return _mk("loop-on-one", 1, ("scan", "back"), r)


# --- one head, probabilistic ----------------------------------------------------


def _coin(name, p_acc):
    r = {("*", INIT): [ins(1, "o", ACCEPT, p_acc),
                       ins(1, "o", REJECT, 1 - F(p_acc))]}
    return _mk(name, 1, (), r)


def coin_half():
    return _coin("coin-half", F(1, 2))


def coin_third():
    return _coin("coin-third", F(1, 3))


def coin_quarter():
    return _coin("coin-quarter", F(1, 4))


def coin_three_quarters():
    return _coin("coin-three-quarters", F(3, 4))


def coin_five_eighths():
    return _coin("coin-five-eighths", F(5, 8))


def retry_half():
    # accepts with total probability one by retrying through the init state
    r = {("*", INIT): [ins(1, "o", ACCEPT, F(1, 2)), ins(1, "o", "back", F(1, 2))],
         ("0", "back"): [ins(1, "i", INIT)],
         ("1", "back"): [ins(1, "i", INIT)],
         ("*", "back"): [ins(1, "i", INIT)]}
    return _mk("retry-half", 1, ("back",), r)


def retry_quarter_reject():
    r = {("*", INIT): [ins(1, "o", REJECT, F(1, 4)), ins(1, "o", "back", F(3, 4))],
         ("0", "back"): [ins(1, "i", INIT)],
         ("1", "back"): [ins(1, "i", INIT)],
         ("*", "back"): [ins(1, "i", INIT)]}
    return _mk("retry-quarter-reject", 1, ("back",), r)


def flip_per_one():
    r = {("*", INIT): [ins(1, "o", "scan")],
         ("0", "scan"): [ins(1, "o", "scan")],
         ("1", "scan"): [ins(1, "o", "scan", F(1, 2)), ins(1, "o", "doom", F(1, 2))],
         ("*", "scan"): [ins(1, "o", ACCEPT)]}
    _park(r, "doom", REJECT)
    return _mk("flip-per-one", 1, ("scan", "doom"), r)


def flip_per_zero_third():
    r = {("*", INIT): [ins(1, "o", "scan")],
         ("0", "scan"): [ins(1, "o", "scan", F(1, 3)), ins(1, "o", "doom", F(2, 3))],
         ("1", "scan"): [ins(1, "o", "scan")],
         ("*", "scan"): [ins(1, "o", ACCEPT)]}
    _park(r, "doom", REJECT)
    return _mk("flip-per-zero-third", 1, ("scan", "doom"), r)


def mixed_flip():
    r = {("*", INIT): [ins(1, "o", "scan")],
         ("0", "scan"): [ins(1, "o", "scan", F(3, 4)), ins(1, "o", "doom", F(1, 4))],
         ("1", "scan"): [ins(1, "o", "scan", F(1, 2)), ins(1, "o", "doom", F(1, 2))],
         ("*", "scan"): [ins(1, "o", ACCEPT)]}
    _park(r, "doom", REJECT)
    return _mk("mixed-flip", 1, ("scan", "doom"), r)


def lazy_scan():
    # unbiased walk on the cycle; almost surely back at the marker
    r = {("*", INIT): [ins(1, "o", "walk")],
         ("0", "walk"): [ins(1, "o", "walk", F(1, 2)), ins(1, "i", "walk", F(1, 2))],
         ("1", "walk"): [ins(1, "o", "walk", F(1, 2)), ins(1, "i", "walk", F(1, 2))],
         ("*", "walk"): [ins(1, "o", ACCEPT)]}
    return _mk("lazy-scan", 1, ("walk",), r)


def drunken_parity():
    r = {("*", INIT): [ins(1, "o", "ev")],
         ("0", "ev"): [ins(1, "o", "ev")], ("0", "od"): [ins(1, "o", "od")],
         ("1", "ev"): [ins(1, "o", "od", F(3, 4)), ins(1, "o", "ev", F(1, 4))],
         ("1", "od"): [ins(1, "o", "ev", F(3, 4)), ins(1, "o", "od", F(1, 4))],
         ("*", "ev"): [ins(1, "o", ACCEPT)], ("*", "od"): [ins(1, "o", REJECT)]}
    return _mk("drunken-parity", 1, ("ev", "od"), r)


# --- one head, guessing (accepts with positive probability only) ----------------


def guess_a_one():
    r = {("*", INIT): [ins(1, "o", "scan")],
         ("0", "scan"): [ins(1, "o", "scan")],
         ("1", "scan"): [ins(1, "o", "yes", F(1, 2)), ins(1, "o", "scan", F(1, 2))],
         ("*", "scan"): [ins(1, "o", REJECT)]}
    _park(r, "yes", ACCEPT)
    return _mk("guess-a-one", 1, ("scan", "yes"), r)


def guess_two_ones():
    r = {("*", INIT): [ins(1, "o", "s0")],
         ("0", "s0"): [ins(1, "o", "s0")],
         ("1", "s0"): [ins(1, "o", "s1", F(1, 2)), ins(1, "o", "s0", F(1, 2))],
         ("*", "s0"): [ins(1, "o", REJECT)],
         ("0", "s1"): [ins(1, "o", "s1")],
         ("1", "s1"): [ins(1, "o", "yes", F(1, 2)), ins(1, "o", "s1", F(1, 2))],
         ("*", "s1"): [ins(1, "o", REJECT)]}
    _park(r, "yes", ACCEPT)
    return _mk("guess-two-ones", 1, ("s0", "s1", "yes"), r)


def guess_boundary_01():
    r = {("*", INIT): [ins(1, "o", "scan")],
         ("0", "scan"): [ins(1, "o", "at0", F(1, 2)), ins(1, "o", "scan", F(1, 2))],
         ("1", "scan"): [ins(1, "o", "scan")],
         ("*", "scan"): [ins(1, "o", REJECT)],
         ("0", "at0"): [ins(1, "o", "at0")],
         ("1", "at0"): [ins(1, "o", "yes")],
         ("*", "at0"): [ins(1, "o", REJECT)]}
    _park(r, "yes", ACCEPT)
    return _mk("guess-boundary-01", 1, ("scan", "at0", "yes"), r)


def all_or_guess():
    # sub-stochastic: a third of the mass simply vanishes at every letter
    r = {("*", INIT): [ins(1, "o", "scan")],
         ("0", "scan"): [ins(1, "o", "scan", F(2, 3))],
         ("1", "scan"): [ins(1, "o", "scan", F(2, 3))],
         ("*", "scan"): [ins(1, "o", ACCEPT)]}
    return _mk("all-or-guess", 1, ("scan",), r)


# --- two heads ------------------------------------------------------------------


def first_equals_last():
    r = {("**", INIT): [ins(2, "o", "s1")],
         ("**", "s1"): [ins(1, "o", ACCEPT)],
         ("*0", "s1"): [ins(1, "i", "c0")],
         ("*1", "s1"): [ins(1, "i", "c1")],
         ("00", "c0"): [ins(1, "o", "p1")], ("10", "c0"): [ins(1, "o", "p0")],
         ("11", "c1"): [ins(1, "o", "p1")], ("01", "c1"): [ins(1, "o", "p0")],
         ("*0", "p1"): [ins(2, "i", "p2a")], ("*1", "p1"): [ins(2, "i", "p2a")],
         ("*0", "p0"): [ins(2, "i", "p2r")], ("*1", "p0"): [ins(2, "i", "p2r")],
         ("**", "p2a"): [ins(1, "o", ACCEPT)],
         ("**", "p2r"): [ins(1, "o", REJECT)]}
    return _mk("first-equals-last", 2,
               ("s1", "c0", "c1", "p1", "p0", "p2a", "p2r"), r)


def first_equals_last_prob():
    r = {("**", INIT): [ins(2, "o", "s1")],
         ("**", "s1"): [ins(1, "o", ACCEPT)],
         ("*0", "s1"): [ins(1, "i", "c0")],
         ("*1", "s1"): [ins(1, "i", "c1")],
         ("00", "c0"): [ins(1, "o", "p1")], ("10", "c0"): [ins(1, "o", "p0")],
         ("11", "c1"): [ins(1, "o", "p1")], ("01", "c1"): [ins(1, "o", "p0")],
         ("*0", "p1"): [ins(2, "i", "p2a")], ("*1", "p1"): [ins(2, "i", "p2a")],
         ("*0", "p0"): [ins(2, "i", "p2r")], ("*1", "p0"): [ins(2, "i", "p2r")],
         ("**", "p2a"): [ins(1, "o", ACCEPT, F(3, 4)), ins(1, "o", REJECT, F(1, 4))],
         ("**", "p2r"): [ins(1, "o", ACCEPT, F(1, 4)), ins(1, "o", REJECT, F(3, 4))]}
    return _mk("first-equals-last-prob", 2,
               ("s1", "c0", "c1", "p1", "p0", "p2a", "p2r"), r)


def two_head_double_parity():
    # ones parity by the first head, then zeros parity by the second
    r = {("**", INIT): [ins(1, "o", "a_e")]}
    for p in "eo":
        flip = {"e": "o", "o": "e"}[p]
        r[("0*", f"a_{p}")] = [ins(1, "o", f"a_{p}")]
        r[("1*", f"a_{p}")] = [ins(1, "o", f"a_{flip}")]
        r[("**", f"a_{p}")] = [ins(2, "o", f"b_{p}_e")]
        for q in "eo":
            qflip = {"e": "o", "o": "e"}[q]
            r[("*0", f"b_{p}_{q}")] = [ins(2, "o", f"b_{p}_{qflip}")]
            r[("*1", f"b_{p}_{q}")] = [ins(2, "o", f"b_{p}_{q}")]
            verdict = ACCEPT if p == "e" and q == "e" else REJECT
            r[("**", f"b_{p}_{q}")] = [ins(1, "o", verdict)]
    states = tuple(f"a_{p}" for p in "eo") + tuple(
        f"b_{p}_{q}" for p in "eo" for q in "eo")
    return _mk("two-head-double-parity", 2, states, r)


def two_head_match_shift():
    # accepts exactly the constant words: every letter equals its successor
    r = {("**", INIT): [ins(2, "o", "lead")],
         ("**", "lead"): [ins(1, "o", ACCEPT)],
         ("*0", "lead"): [ins(1, "o", "adv")],
         ("*1", "lead"): [ins(1, "o", "adv")],
         ("00", "lead"): [ins(1, "o", "adv")],
         ("11", "lead"): [ins(1, "o", "adv")],
         ("01", "lead"): [ins(2, "o", "rj1")],
         ("10", "lead"): [ins(2, "o", "rj1")],
         ("0*", "lead"): [ins(1, "o", "fin")],
         ("1*", "lead"): [ins(1, "o", "fin")],
         ("00", "adv"): [ins(2, "o", "lead")],
         ("11", "adv"): [ins(2, "o", "lead")],
         ("**", "fin"): [ins(1, "o", ACCEPT)]}
    for x, y in product("01", repeat=2):
        r[(x + y, "rj1")] = [ins(2, "o", "rj1")]
    for x in "01":
        r[(x + "*", "rj1")] = [ins(1, "o", "rj2")]
        r[(x + "*", "rj2")] = [ins(1, "o", "rj2")]
    r[("**", "rj2")] = [ins(1, "o", REJECT)]
    return _mk("two-head-match-shift", 2, ("lead", "adv", "fin", "rj1", "rj2"), r)


def two_head_flip_per_agree():
    r = {("**", INIT): [ins(2, "o", "lead")],
         ("**", "lead"): [ins(1, "o", ACCEPT)],
         ("*0", "lead"): [ins(1, "o", "adv")],
         ("*1", "lead"): [ins(1, "o", "adv")],
         ("00", "lead"): [ins(1, "o", "adv", F(1, 2)), ins(1, "o", "dm1", F(1, 2))],
         ("11", "lead"): [ins(1, "o", "adv", F(1, 2)), ins(1, "o", "dm1", F(1, 2))],
         ("01", "lead"): [ins(1, "o", "adv")],
         ("10", "lead"): [ins(1, "o", "adv")],
         ("0*", "lead"): [ins(1, "o", "fin")],
         ("1*", "lead"): [ins(1, "o", "fin")],
         ("00", "adv"): [ins(2, "o", "lead")],
         ("11", "adv"): [ins(2, "o", "lead")],
         ("**", "fin"): [ins(1, "o", ACCEPT)]}
    for x, y in product("01", repeat=2):
        r[(x + y, "dm1")] = [ins(2, "o", "dm1")]
    for x in "01":
        r[(x + "*", "dm1")] = [ins(1, "o", "dm2")]
        r[(x + "*", "dm2")] = [ins(1, "o", "dm2")]
    r[("**", "dm2")] = [ins(1, "o", REJECT)]
    return _mk("two-head-flip-per-agree", 2, ("lead", "adv", "fin", "dm1", "dm2"), r)


def two_head_palindrome():
    r = {("**", INIT): [ins(1, "o", "s")],
         ("**", "s"): [ins(1, "o", ACCEPT)],
         ("0*", "s"): [ins(2, "i", "cmp")],
         ("1*", "s"): [ins(2, "i", "cmp")],
         ("00", "cmp"): [ins(1, "o", "cmpb")],
         ("11", "cmp"): [ins(1, "o", "cmpb")],
         ("01", "cmp"): [ins(1, "o", "rp")],
         ("10", "cmp"): [ins(1, "o", "rp")],
         ("*0", "cmpb"): [ins(2, "i", "park")],
         ("*1", "cmpb"): [ins(2, "i", "park")],
         ("*0", "park"): [ins(2, "i", "park")],
         ("*1", "park"): [ins(2, "i", "park")],
         ("**", "park"): [ins(1, "o", ACCEPT)]}
    for x, y in product("01", repeat=2):
        r[(x + y, "cmpb")] = [ins(2, "i", "cmp")]
        r[(x + y, "rp")] = [ins(1, "o", "rp")]
    for y in "01":
        r[("*" + y, "rp")] = [ins(2, "i", "rp2")]
        r[("*" + y, "rp2")] = [ins(2, "i", "rp2")]
    r[("**", "rp2")] = [ins(1, "o", REJECT)]
    return _mk("two-head-palindrome", 2, ("s", "cmp", "cmpb", "park", "rp", "rp2"), r)


def two_head_guess_middle():
    r = {("**", INIT): [ins(1, "o", "roam")],
         ("**", "roam"): [ins(1, "o", "roam")],
         ("0*", "roam"): [ins(1, "o", "roam", F(1, 2)), ins(2, "i", "ck0", F(1, 2))],
         ("1*", "roam"): [ins(1, "o", "roam", F(1, 2)), ins(2, "i", "ck1", F(1, 2))],
         ("00", "ck0"): [ins(2, "i", "pa")], ("01", "ck0"): [ins(2, "i", "pr")],
         ("11", "ck1"): [ins(2, "i", "pa")], ("10", "ck1"): [ins(2, "i", "pr")]}
    for x, y in product("01", repeat=2):
        r[(x + y, "pa")] = [ins(2, "i", "pa")]
        r[(x + y, "pr")] = [ins(2, "i", "pr")]
    for x in "01":
        r[(x + "*", "pa")] = [ins(1, "o", "pa2")]
        r[(x + "*", "pa2")] = [ins(1, "o", "pa2")]
        r[(x + "*", "pr")] = [ins(1, "o", "pr2")]
        r[(x + "*", "pr2")] = [ins(1, "o", "pr2")]
    r[("**", "pa2")] = [ins(1, "o", ACCEPT)]
    r[("**", "pr2")] = [ins(1, "o", REJECT)]
    return _mk("two-head-guess-middle", 2,
               ("roam", "ck0", "ck1", "pa", "pr", "pa2", "pr2"), r)


# --- three heads ----------------------------------------------------------------


def round_robin():
    r = {("***", INIT): [ins(1, "o", "r2")]}
    for xyz in map("".join, product("*01", repeat=3)):
        if xyz != "***":
            r[(xyz, "r1")] = [ins(1, "o", "r2")]
        r[(xyz, "r2")] = [ins(2, "o", "r3")]
        r[(xyz, "r3")] = [ins(3, "o", "r1")]
    r[("***", "r1")] = [ins(1, "o", ACCEPT)]
    return _mk("round-robin", 3, ("r1", "r2", "r3"), r)


def rotation_parity():
    # lockstep rotation; the first head tallies ones parity along the way
    r = {("***", INIT): [ins(1, "o", "r2e")]}
    for p in "eo":
        flip = {"e": "o", "o": "e"}[p]
        for xyz in map("".join, product("*01", repeat=3)):
            if xyz != "***":
                nxt = flip if xyz[0] == "1" else p
                r[(xyz, f"r1{p}")] = [ins(1, "o", f"r2{nxt}")]
            r[(xyz, f"r2{p}")] = [ins(2, "o", f"r3{p}")]
            r[(xyz, f"r3{p}")] = [ins(3, "o", f"r1{p}")]
        r[("***", f"r1{p}")] = [ins(1, "o", ACCEPT if p == "e" else REJECT)]
    return _mk("rotation-parity", 3,
               tuple(f"r{i}{p}" for i in (1, 2, 3) for p in "eo"), r)


def bookends():
    # compares the first and last letters with the idle head parked
    r = {("***", INIT): [ins(2, "o", "s")],
         ("***", "s"): [ins(1, "o", ACCEPT)],
         ("*0*", "s"): [ins(3, "i", "c")],
         ("*1*", "s"): [ins(3, "i", "c")],
         ("*00", "c"): [ins(2, "i", "pa")], ("*11", "c"): [ins(2, "i", "pa")],
         ("*01", "c"): [ins(2, "i", "pr")], ("*10", "c"): [ins(2, "i", "pr")]}
    for y, z in product("01", repeat=2):
        r[("*" + y + z, "pa")] = [ins(2, "i", "pa")]
        r[("*" + y + z, "pr")] = [ins(2, "i", "pr")]
    for z in "01":
        r[("**" + z, "pa")] = [ins(3, "o", "pa2")]
        r[("**" + z, "pa2")] = [ins(3, "o", "pa2")]
        r[("**" + z, "pr")] = [ins(3, "o", "pr2")]
        r[("**" + z, "pr2")] = [ins(3, "o", "pr2")]
    r[("***", "pa2")] = [ins(1, "o", ACCEPT)]
    r[("***", "pr2")] = [ins(1, "o", REJECT)]
    return _mk("bookends", 3, ("s", "c", "pa", "pr", "pa2", "pr2"), r)


def zigzag_parity():
    # three sequential passes; accepts when ones and zeros parities agree
    r = {("***", INIT): [ins(1, "o", "q1_e")]}
    flip = {"e": "o", "o": "e"}
    for p in "eo":
        r[("0**", f"q1_{p}")] = [ins(1, "o", f"q1_{p}")]
        r[("1**", f"q1_{p}")] = [ins(1, "o", f"q1_{flip[p]}")]
        r[("***", f"q1_{p}")] = [ins(2, "o", f"q2_{p}_e")]
        for q in "eo":
            r[("*0*", f"q2_{p}_{q}")] = [ins(2, "o", f"q2_{p}_{flip[q]}")]
            r[("*1*", f"q2_{p}_{q}")] = [ins(2, "o", f"q2_{p}_{q}")]
            r[("***", f"q2_{p}_{q}")] = [ins(3, "o", f"q3_{p}_{q}")]
            for z in "01":
                r[("**" + z, f"q3_{p}_{q}")] = [ins(3, "o", f"q3_{p}_{q}")]
            r[("***", f"q3_{p}_{q}")] = [ins(1, "o", ACCEPT if p == q else REJECT)]
    states = tuple(f"q1_{p}" for p in "eo") + tuple(
        f"q2_{p}_{q}" for p in "eo" for q in "eo") + tuple(
        f"q3_{p}_{q}" for p in "eo" for q in "eo")
    return _mk("zigzag-parity", 3, states, r)


# --- pushdown -------------------------------------------------------------------


def zeros_then_ones():
    r = {("*", INIT): [ins(1, "o", "zer")],
         ("0", "zer"): [ins(1, "o", "zer", 1, "push_0")],
         ("1", "zer"): [ins(1, "o", "one", 1, "pop")],
         ("*", "zer"): [ins(1, "o", ACCEPT)]}
    for x in "01*":
        r[(x, "one", "*")] = [ins(1, "o", "fr", 1, "push_*")]
        r[(x, "chk", "*")] = [ins(1, "o", "fa", 1, "push_*")]
        r[(x, "unw", "*")] = [ins(1, "o", "fr", 1, "push_*")]
        r[(x, "chk", "0")] = [ins(1, "o", "unw", 1, "pop")]
        r[(x, "unw", "0")] = [ins(1, "o", "unw", 1, "pop")]
    r[("1", "one", "0")] = [ins(1, "o", "one", 1, "pop")]
    r[("0", "one", "0")] = [ins(1, "o", "unw", 1, "pop")]
    r[("*", "one", "0")] = [ins(1, "o", "chk", 1, "pop")]
    _park(r, "fa", ACCEPT)
    _park(r, "fr", REJECT)
    return _mk("zeros-then-ones", 1, ("zer", "one", "chk", "unw", "fa", "fr"), r,
               stack=True)


def push_all_pop_all():
    r = {("*", INIT): [ins(1, "o", "up")],
         ("0", "up"): [ins(1, "o", "up", 1, "push_0")],
         ("1", "up"): [ins(1, "o", "up", 1, "push_1")],
         ("*", "up"): [ins(1, "o", "down", 1, "pop")]}
    for x in "01*":
        r[(x, "down", "0")] = [ins(1, "o", "down", 1, "pop")]
        r[(x, "down", "1")] = [ins(1, "o", "down", 1, "pop")]
        r[(x, "down", "*")] = [ins(1, "o", "park", 1, "push_*")]
    _park(r, "park", ACCEPT)
    return _mk("push-all-pop-all", 1, ("up", "down", "park"), r, stack=True)


def peek_repeat():
    # peeks at the bottom marker on every other cell; halts only on even length
    r = {("*", INIT): [ins(1, "o", "s1")],
         ("0", "s1"): [ins(1, "o", "s2", 1, "pop")],
         ("1", "s1"): [ins(1, "o", "s2", 1, "pop")],
         ("*", "s1"): [ins(1, "o", ACCEPT)]}
    for x in "01*":
        r[(x, "s2", "*")] = [ins(1, "o", "s1", 1, "push_*")]
    return _mk("peek-repeat", 1, ("s1", "s2"), r, stack=True)


def balanced_prefix():
    # last-popped starts out as the marker, so the fresh state must stay
    # clear of exact marker keys or it would misread the initial value
    r = {("*", INIT): [ins(1, "o", "s0")],
         ("0", "s0"): [ins(1, "o", "s0", 1, "push_0")],
         ("1", "s0"): [ins(1, "o", "s", 1, "pop")],
         ("*", "s0"): [ins(1, "o", ACCEPT)],
         ("0", "s"): [ins(1, "o", "s", 1, "push_0")],
         ("1", "s"): [ins(1, "o", "s", 1, "pop")],
         ("*", "s"): [ins(1, "o", ACCEPT)]}
    for x in "01*":
        r[(x, "s", "*")] = [ins(1, "o", "rj", 1, "push_*")]
    _park(r, "rj", REJECT)
    return _mk("balanced-prefix", 1, ("s0", "s", "rj"), r, stack=True)


def stack_parity():
    r = {("*", INIT): [ins(1, "o", "se")],
         ("0", "se"): [ins(1, "o", "se")], ("0", "so"): [ins(1, "o", "so")],
         ("1", "se"): [ins(1, "o", "so", 1, "push_0")],
         ("1", "so"): [ins(1, "o", "se", 1, "pop")],
         ("*", "se"): [ins(1, "o", ACCEPT)],
         ("*", "so"): [ins(1, "o", "w", 1, "pop")]}
    _park(r, "w", REJECT)
    return _mk("stack-parity", 1, ("se", "so", "w"), r, stack=True)


def prob_push_walk():
    r = {("*", INIT): [ins(1, "o", "up")],
         ("0", "up"): [ins(1, "o", "up", F(1, 2), "push_0"),
                       ins(1, "o", "up", F(1, 2))],
         ("1", "up"): [ins(1, "o", "up", F(1, 2), "push_0"),
                       ins(1, "o", "up", F(1, 2))],
         ("*", "up"): [ins(1, "o", "down", 1, "pop")]}
    for x in "01*":
        r[(x, "down", "0")] = [ins(1, "o", "down", 1, "pop")]
        r[(x, "down", "*")] = [ins(1, "o", "park", 1, "push_*")]
    _park(r, "park", ACCEPT)
    return _mk("prob-push-walk", 1, ("up", "down", "park"), r, stack=True)


def _biased_walk(name, p_up, p_acc):
    # the head bounces between the marker and the next cell, so the walk's
    # cycle structure stays the same size no matter how long the word is
    p_up, p_acc = F(p_up), F(p_acc)
    r = {("*", INIT): [ins(1, "o", "walk")]}
    for x in "01*":
        r[(x, "walk")] = [ins(1, "i", "back", p_up, "push_0"),
                          ins(1, "i", "chk", 1 - p_up, "pop")]
        r[(x, "back")] = [ins(1, "o", "walk")]
        r[(x, "chk", "0")] = [ins(1, "o", "walk")]
        r[(x, "chk", "*")] = [ins(1, "o", "ap", p_acc, "push_*"),
                              ins(1, "o", "rp", 1 - p_acc, "push_*")]
    _park(r, "ap", ACCEPT)
    _park(r, "rp", REJECT)
    return _mk(name, 1, ("walk", "back", "chk", "ap", "rp"), r, stack=True)


def biased_stack_walk():
    # the stack is genuinely unbounded; the tail beyond depth 16 is tiny
    return _biased_walk("biased-stack-walk", F(1, 4), F(7, 8))


def biased_stack_walk_2():
    return _biased_walk("biased-stack-walk-2", F(1, 5), F(15, 16))


def peek_then_flip():
    r = {("*", INIT): [ins(1, "o", "s1")],
         ("0", "s1"): [ins(1, "o", "s2", 1, "pop")],
         ("1", "s1"): [ins(1, "o", "s2", 1, "pop")],
         ("*", "s1"): [ins(1, "o", ACCEPT)]}
    for x in "01*":
        r[(x, "s2", "*")] = [ins(1, "o", "s1", F(1, 2), "push_*"),
                             ins(1, "o", "dm", F(1, 2), "push_*")]
    _park(r, "dm", REJECT)
    return _mk("peek-then-flip", 1, ("s1", "s2", "dm"), r, stack=True)


# --- catalog --------------------------------------------------------------------


_BUILDERS = (
    accept_now, reject_now, even_ones, odd_ones, all_zeros, contains_one,
    length_even, ends_with_one, first_is_one, loop_on_one,
    coin_half, coin_third, coin_quarter, coin_three_quarters,
    coin_five_eighths, retry_half, retry_quarter_reject, flip_per_one,
    flip_per_zero_third, mixed_flip, lazy_scan, drunken_parity,
    guess_a_one, guess_two_ones, guess_boundary_01, all_or_guess,
    first_equals_last, first_equals_last_prob, two_head_double_parity,
    two_head_match_shift, two_head_flip_per_agree, two_head_palindrome,
    two_head_guess_middle,
    round_robin, rotation_parity, bookends, zigzag_parity,
    zeros_then_ones, push_all_pop_all, peek_repeat, balanced_prefix,
    stack_parity, prob_push_walk, biased_stack_walk, biased_stack_walk_2,
    peek_then_flip,
)

# machines whose dialogue trees stay small enough to enumerate prefix by prefix
LOW_BRANCHING = ("accept-now", "reject-now", "even-ones", "all-zeros",
                 "coin-half", "retry-half", "first-is-one", "zeros-then-ones",
                 "stack-parity", "peek-repeat")


def corpus():
    """All catalog machines, freshly built."""
    return [build() for build in _BUILDERS]


# every builder is named after its machine, with "_" for "-"
_BUILDER_OF = {build.__name__.replace("_", "-"): build for build in _BUILDERS}


@cache
def by_name(name: str) -> Automaton:
    """The catalog machine ``name``, built on first use and then shared."""
    build = _BUILDER_OF.get(name)
    if build is None:
        raise KeyError(f"no machine named {name!r}")
    return build()
