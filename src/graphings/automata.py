"""Probabilistic multihead automata over marked circular binary words.

The machine owns k two-way heads on the cycle of positions 0..len(word),
position 0 being the marker, and optionally a pushdown stack that starts
as the single bottom marker.  A transition table row is keyed by the read
vector, the control state, and the most recently popped stack symbol
('*' before any pop; None keys act as wildcards with exact keys taking
precedence).  Exactly one head moves per step.  Steps into accept/reject
are only legal when every head reads the marker, leave the heads and the
stack alone, and count only if the stack is exactly the bottom marker.

The oracle walks the configurations in ints: each machine builds, once,
after validation, a private table of its rows with every probability as an
int over the lcm of its instruction denominators.  The walk records those
weights, the solve runs over that one denominator, and each answer is one
``Fraction``.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType

from . import linsolve
from .errors import ClosureViolation, FormatError, ValidationError
from .linsolve import prune, solve_affine
from .theta import STACK_OPS

INIT, ACCEPT, REJECT = "init", "accept", "reject"
DIRECTIONS = ("i", "o")
_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class Instruction:
    head: int
    direction: str
    stack_op: str
    next_state: str
    prob: Fraction

    def __post_init__(self):
        if not isinstance(self.prob, Fraction):
            object.__setattr__(self, "prob", Fraction(self.prob))


@dataclass(frozen=True)
class Automaton:
    """A machine checked once, when built: ``ValidationError`` names every
    violation.  It is frozen, and ``delta`` is a read-only private copy."""
    name: str
    heads: int
    states: tuple
    delta: MappingProxyType  # (read, state, last or None) -> tuple[Instruction]
    stack: bool = False

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "delta", MappingProxyType(
            {key: tuple(instrs) for key, instrs in self.delta.items()}))
        problems = _violations(self)
        if problems:
            raise ValidationError("; ".join(problems))
        den, steps = _step_table(self)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_steps", steps)


def _step_table(a: Automaton) -> tuple:
    """The oracle's integer table, ``(den, steps)``: ``den`` is the lcm of
    the instruction denominators, and ``steps[(read, state, last)]`` lists
    ``(instruction, prob * den)`` for every last-popped symbol, a wildcard
    row copied under each symbol it stands for.  It is kept beside the
    fields, outside equality, repr and the text format."""
    den = lcm(*(t.prob.denominator for ts in a.delta.values() for t in ts))
    steps = {}
    for (read, state, last), instrs in a.delta.items():
        row = tuple((t, t.prob.numerator * (den // t.prob.denominator))
                    for t in instrs)
        if last is not None:
            steps[(read, state, last)] = row
        else:  # an exact row, wherever it comes, takes precedence
            for u in "*01":
                steps.setdefault((read, state, u), row)
    return den, steps


def firing_key(a: Automaton, read: str, state: str, last: str) -> tuple:
    """The key of the row that fires in a configuration: the exact key if
    the table has it, else the wildcard key (which it may not have)."""
    key = (read, state, last)
    return key if key in a.delta else (read, state, None)


def read_vector(word: str, positions) -> str:
    n = len(word) + 1
    return "".join("*" if p % n == 0 else word[p % n - 1] for p in positions)


def _violations(a: Automaton) -> list[str]:
    """All structural violations, as plain sentences; empty means well formed."""
    out = []
    if a.heads < 1:
        out.append(f"need at least one head, got {a.heads}")
    if len(set(a.states)) != len(a.states):
        out.append("duplicate state names")
    for required in (INIT, ACCEPT, REJECT):
        if required not in a.states:
            out.append(f"missing required state {required!r}")
    marker = "*" * a.heads
    for key, instrs in a.delta.items():
        read, state, last = key
        label = f"key ({read},{state},{last})"
        if len(read) != a.heads or any(ch not in "*01" for ch in read):
            out.append(f"{label}: read vector must be {a.heads} symbols over *01")
        if state not in a.states:
            out.append(f"{label}: unknown state")
        elif state in (ACCEPT, REJECT):
            out.append(f"{label}: no transitions may leave {state}")
        if last not in (None, "*", "0", "1"):
            out.append(f"{label}: last-popped must be one of *,0,1 or wildcard")
        if last is not None and not a.stack:
            out.append(f"{label}: last-popped keys need a stack")
        total = _ZERO
        for t in instrs:
            total += t.prob
            if not 1 <= t.head <= a.heads:
                out.append(f"{label}: head {t.head} out of range")
            if t.direction not in DIRECTIONS:
                out.append(f"{label}: direction must be i or o")
            if t.stack_op not in STACK_OPS:
                out.append(f"{label}: unknown stack op {t.stack_op!r}")
            if t.stack_op != "id" and not a.stack:
                out.append(f"{label}: stack op {t.stack_op!r} on a stack-free machine")
            if t.next_state not in a.states:
                out.append(f"{label}: unknown next state {t.next_state!r}")
            if not 0 < t.prob <= 1:
                out.append(f"{label}: probability {t.prob} outside (0,1]")
            if t.next_state in (ACCEPT, REJECT):
                if read != marker:
                    out.append(f"{label}: halting requires every head on the marker")
                if t.stack_op != "id":
                    out.append(f"{label}: halting steps must leave the stack alone")
            if last == "*" and (t.stack_op != "push_*" or t.next_state in (ACCEPT, REJECT)):
                out.append(f"{label}: after popping the bottom marker the only "
                           "legal step pushes it back")
        if total > 1:
            out.append(f"{label}: probabilities sum to {total} > 1")
    return out


# --- exact run semantics --------------------------------------------------------

# config: (state, positions, stack, last, just_popped_marker)
_START_LAST = "*"


def _check_word(word: str) -> None:
    """Refuse a word with a letter other than 0 or 1: ``read_vector`` would
    read a ``*`` as the marker and any other letter as a letter."""
    if any(ch not in "01" for ch in word):
        raise ValidationError(f"word must be over 0/1, got {word!r}")


def _start_config(a: Automaton):
    return (INIT, (0,) * a.heads, ("*",), _START_LAST, False)


def _expand(a: Automaton, word: str, config, depth: int):
    """Successors of a live configuration.

    Yields ``(instruction, weight, kind, payload)``: the weight is the
    instruction's probability times the machine's table denominator, and
    kind is one of ``"step"`` (payload a config), ``"halt"`` (payload
    ``accept``/``reject``/``None`` for a halt with leftover stack or a pop
    from an empty one), or ``"drop"`` (stack budget exceeded).
    """
    state, positions, stack, last, just = config
    n = len(word) + 1
    read = read_vector(word, positions)
    for t, w in a._steps.get((read, state, last), ()):
        if just and t.stack_op != "push_*":
            raise ValidationError(
                f"{a.name or 'machine'}: popped the bottom marker and then "
                f"failed to push it back (state {state}, read {read})")
        if t.next_state in (ACCEPT, REJECT):
            outcome = t.next_state if stack == ("*",) else None
            yield t, w, "halt", outcome
            continue
        if t.stack_op == "pop":
            if not stack:
                yield t, w, "halt", None
                continue
            popped, new_stack = stack[0], stack[1:]
            new_last, new_just = popped, popped == "*"
        elif t.stack_op == "id":
            new_stack, new_last, new_just = stack, last, False
        else:
            if len(stack) >= depth:
                yield t, w, "drop", None
                continue
            new_stack = (t.stack_op[-1],) + stack
            new_last, new_just = last, False
        moved = list(positions)
        moved[t.head - 1] = (moved[t.head - 1] + (1 if t.direction == "o" else -1)) % n
        yield t, w, "step", (t.next_state, tuple(moved), new_stack, new_last, new_just)


def accept_probability(a: Automaton, word: str, stack_depth: int = 16,
                       outcome: str = ACCEPT) -> tuple[Fraction, bool]:
    """Exact halting probability, with a certificate of exactness.

    For stack machines the run tree is cut at ``stack_depth`` symbols; a cut
    branch loses its mass, so the returned value is a lower bound and the
    flag reports whether any branch was actually cut.  At most
    ``linsolve.MAX_NODES`` configurations are interned; one more raises
    ``ClosureViolation``.  The walk records every weight as an int over the
    machine's table denominator, and the answer is its one ``Fraction``.
    """
    if outcome not in (ACCEPT, REJECT):
        raise ValidationError(f"outcome must be accept or reject, got {outcome!r}")
    if a.stack and stack_depth < 1:
        raise ValidationError("stack machines need a positive stack budget")
    _check_word(word)

    index = {}
    order, preds, contrib = [], [], []
    truncated = False

    def intern(config) -> int:
        i = index.get(config)
        if i is None:
            if len(order) >= linsolve.MAX_NODES:
                raise ClosureViolation("oracle walk exceeded the node budget")
            i = index[config] = len(order)
            order.append(config)
            preds.append([])
            contrib.append(0)
        return i

    intern(_start_config(a))
    pos = 0
    while pos < len(order):
        for _, w, kind, payload in _expand(a, word, order[pos], stack_depth):
            if kind == "halt":
                if payload == outcome:
                    contrib[pos] += w
            elif kind == "drop":
                truncated = True
            else:
                preds[intern(payload)].append((pos, w))
        pos += 1

    # Each move is recorded in the predecessor list of the configuration it
    # enters, and each configuration's halting contribution in the list of
    # one halt node after them all, which is not interned.  Only
    # configurations that can still reach the halt are kept; dropping the
    # rest keeps probability-one loops out of the linear system.  Weights
    # are over ``den``, so the start is seeded with ``den`` over ``den``, and
    # the mass the solve gives the halt is the answer.
    preds.append([(i, c) for i, c in enumerate(contrib) if c])
    kept, rows = prune(preds, [len(order)])
    if kept[0] != 0:
        return _ZERO, not truncated
    den = a._den
    nums, dens = solve_affine(rows, [den] + [0] * (len(kept) - 1), den)
    return Fraction(nums[-1], dens[-1]), not truncated


def trace_enumerate(a: Automaton, word: str, max_len: int = 20):
    """Every non-empty run prefix of at most ``max_len`` steps.

    Returns ``(steps, probability)`` pairs where each step records the fired
    key and instruction.  Probabilities multiply along the prefix; no stack
    budget applies because the length bound already bounds the stack.
    """
    _check_word(word)
    out = []

    def walk(config, steps, prob):
        if len(steps) >= max_len:
            return
        state, positions, _, last, _ = config
        key = (read_vector(word, positions), state, last)
        # a run of max_len steps never holds max_len + 2 symbols, so no drops
        for t, _, kind, payload in _expand(a, word, config, max_len + 2):
            if kind == "halt" and t.next_state not in (ACCEPT, REJECT):
                continue  # popped an empty stack: the run ends unrecorded
            entry = steps + ((key, t),)
            q = prob * t.prob
            out.append((entry, q))
            if kind == "step":
                walk(payload, entry, q)

    walk(_start_config(a), (), _ONE)
    return out


# --- text format ----------------------------------------------------------------
#
#   name: even-ones            (optional)
#   heads: 1
#   stack: no
#   states: init even odd accept reject
#   rule: * | init | - -> 1 o id even 1
#   rule: 0 | even | - -> 1 o id even 1 ; ...
#
# '-' is the wildcard last-popped key; probabilities are exact rationals.


def _format_instr(t: Instruction) -> str:
    return f"{t.head} {t.direction} {t.stack_op} {t.next_state} {t.prob}"


def format_automaton(a: Automaton) -> str:
    lines = []
    if a.name:
        lines.append(f"name: {a.name}")
    lines.append(f"heads: {a.heads}")
    lines.append(f"stack: {'yes' if a.stack else 'no'}")
    lines.append("states: " + " ".join(a.states))
    state_rank = {s: i for i, s in enumerate(a.states)}
    last_rank = {None: 0, "*": 1, "0": 2, "1": 3}

    def key_rank(key):
        read, state, last = key
        return (state_rank[state], read, last_rank[last])

    for key in sorted(a.delta, key=key_rank):
        read, state, last = key
        body = " ; ".join(_format_instr(t) for t in a.delta[key])
        lines.append(f"rule: {read} | {state} | {last if last else '-'} -> {body}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> Automaton:
    name, heads, stack, states = "", None, False, None
    delta = {}
    headers = set()  # header kinds read so far: each may appear once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        front, _, rest = line.partition(":")
        front, rest = front.strip(), rest.strip()
        try:
            if front in ("name", "heads", "stack", "states"):
                if front in headers:
                    raise FormatError(f"duplicate '{front}:' line")
                headers.add(front)
            if front == "name":
                name = rest
            elif front == "heads":
                heads = int(rest)
            elif front == "stack":
                if rest not in ("yes", "no"):
                    raise FormatError("stack must be yes or no")
                stack = rest == "yes"
            elif front == "states":
                states = tuple(rest.split())
            elif front == "rule":
                key_s, _, body = rest.partition("->")
                parts = [p.strip() for p in key_s.split("|")]
                if len(parts) != 3:
                    raise FormatError("rule key needs read | state | last")
                read, state, last_s = parts
                last = None if last_s == "-" else last_s
                key = (read, state, last)
                if key in delta:
                    raise FormatError(f"duplicate rule key {key}")
                instrs = []
                for chunk in body.split(";"):
                    fields = chunk.split()
                    if len(fields) != 5:
                        raise FormatError("instruction needs head dir op next prob")
                    head_s, direction, op, nxt, prob_s = fields
                    instrs.append(Instruction(int(head_s), direction, op, nxt,
                                              Fraction(prob_s)))
                delta[key] = tuple(instrs)
            else:
                raise FormatError(f"unknown line kind {front!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    if heads is None or states is None:
        raise FormatError("heads: and states: lines are required")
    try:
        return Automaton(name, heads, states, delta, stack)
    except ValidationError as exc:
        raise FormatError(f"invalid machine: {exc}") from None
