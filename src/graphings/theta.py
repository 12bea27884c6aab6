"""The stack-operation monoid.

Words over the alphabet ``0 1 * c`` modulo the relations ``c0 = c1 = c* = e``
(``e`` the empty word).  A letter in ``01*`` records a push, ``c`` records a
pop; multiplication is concatenation followed by reduction.  Because every
relation erases a ``c`` together with the push letter immediately after it,
the rewriting system is confluent and terminating, and the normal forms are
exactly the words with no ``c`` followed by a push letter: all pops trail at
the end, ``<pushes>c^k``.

A path that performs stack operation ``s1`` and then ``s2`` has weight
``reduce(encode_stack_op(s2) + encode_stack_op(s1))``: later operations
multiply on the left, matching function composition.
"""

from __future__ import annotations

from .errors import ValidationError

ALPHABET = "01*c"
PUSH_LETTERS = "01*"

STACK_OPS = ("pop", "push_*", "push_0", "push_1", "id")

_ENCODE = {"pop": "c", "push_*": "*", "push_0": "0", "push_1": "1", "id": ""}


def encode_stack_op(op: str) -> str:
    """Generator word of a single stack operation."""
    try:
        return _ENCODE[op]
    except KeyError:
        raise ValidationError(f"unknown stack operation {op!r}") from None


def reduce(word: str) -> str:
    """Normal form of a word: repeatedly erase any ``c`` directly before a push."""
    out: list[str] = []
    for ch in word:
        if ch not in ALPHABET:
            raise ValidationError(f"letter {ch!r} not in {ALPHABET!r}")
        if ch in PUSH_LETTERS and out and out[-1] == "c":
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def reduce_random(word: str, rng) -> str:
    """Normal form computed by firing rewrites in a random order.

    Confluence makes the result independent of the order; checks compare
    this against the deterministic left-to-right pass.
    """
    letters = list(word)
    while True:
        sites = [i for i in range(len(letters) - 1)
                 if letters[i] == "c" and letters[i + 1] in PUSH_LETTERS]
        if not sites:
            return "".join(letters)
        i = rng.choice(sites)
        del letters[i:i + 2]


def split_normal(word: str) -> tuple[str, int]:
    """Normal form as ``(pushes, pops)``: the word is ``pushes + 'c'*pops``."""
    word = reduce(word)
    pops = len(word) - len(word.rstrip("c"))
    pushes = word[: len(word) - pops]
    if "c" in pushes:
        raise ValidationError(f"{word!r} did not normalise to pushes-then-pops")
    return pushes, pops


def pair_mul(u: tuple[str, int], v: tuple[str, int]) -> tuple[str, int]:
    """The monoid product ``reduce(u + v)`` on normal forms given as
    ``(pushes, pops)`` pairs.

    The pops of ``u`` erase pushes of ``v`` from the top down; whatever pops
    are left over pass through onto ``v``'s own pops.
    """
    u_pushes, u_pops = u
    v_pushes, v_pops = v
    if u_pops <= len(v_pushes):
        return u_pushes + v_pushes[u_pops:], v_pops
    return u_pushes, v_pops + u_pops - len(v_pushes)


def cancel_on(pair: tuple[str, int], prefix: str) -> tuple[str, int]:
    """Normal form of the same map on cylinders starting with ``prefix``.

    Popping a tracked symbol and pushing the same symbol back is the identity
    on such a cylinder, so those pop-push pairs cancel.
    """
    pushes, pops = pair
    while pops and pushes and pops <= len(prefix) and pushes[-1] == prefix[pops - 1]:
        pops -= 1
        pushes = pushes[:-1]
    return pushes, pops


def format_theta(word: str) -> str:
    return word if word else "e"


def parse_theta(text: str) -> str:
    if text == "e":
        return ""
    if any(ch not in ALPHABET for ch in text):
        raise ValidationError(f"bad theta word {text!r}")
    return text
