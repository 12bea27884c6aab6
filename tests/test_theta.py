"""Stack monoid: rewriting, normal forms, composition."""

import random

from hypothesis import given, strategies as st

import pytest

from graphings.errors import ValidationError
from graphings.theta import (cancel_on, encode_stack_op, format_theta, pair_mul,
                             parse_theta, reduce, reduce_random, split_normal)


def theta_mul(u: str, v: str) -> str:
    """Monoid product, ``u`` acting after ``v`` when read as operations:
    the reference that ``pair_mul`` is checked against."""
    return reduce(u + v)


def test_reduce_cancels_pop_after_push():
    # letters read right to left in time, so "c0" is push-then-pop
    assert reduce("c0") == ""
    assert reduce("0c") == "0c"
    assert reduce("cc00") == ""
    assert reduce("1c0c*") == "1"  # two cancellations cascade
    assert reduce("10cc") == "10cc"  # already normal: pushes then pops


def test_normal_form_is_pushes_then_pops():
    assert reduce("01*") == "01*"
    assert reduce("0cc") == "0cc"
    assert reduce("c0") != "c0"
    assert split_normal("01cc") == ("01", 2)


def test_reduce_refuses_a_letter_off_the_alphabet():
    with pytest.raises(ValidationError, match="letter 'x' not in"):
        reduce("x")


def test_theta_mul_is_after():
    # pushing 0 then popping it is the identity
    assert theta_mul("c", "0") == ""
    # popping first cannot cancel a later push
    assert theta_mul("0", "c") == "0c"
    assert theta_mul("", "1") == "1"


def test_theta_mul_associative_on_samples():
    words = ["", "0", "c", "0c", "c1", "01*", "ccc"]
    for u in words:
        for v in words:
            for w in words:
                assert theta_mul(theta_mul(u, v), w) == theta_mul(u, theta_mul(v, w))


def test_from_ops_and_encode():
    assert encode_stack_op("push_0") == "0"
    assert encode_stack_op("pop") == "c"
    assert encode_stack_op("id") == ""
    with pytest.raises(ValidationError):
        encode_stack_op("push_x")
    # ops arrive in execution order; later ones multiply on the left
    assert theta_mul(encode_stack_op("pop"), encode_stack_op("push_0")) == ""
    assert theta_mul(encode_stack_op("push_1"), encode_stack_op("pop")) == "1c"


def test_format_roundtrip():
    assert parse_theta(format_theta("")) == ""
    assert parse_theta(format_theta("01c")) == "01c"
    assert format_theta("") == "e"


@given(st.text(alphabet="01*c", max_size=8), st.integers(0, 10_000))
def test_rewrite_order_does_not_matter(word, seed):
    assert reduce_random(word, random.Random(seed)) == reduce(word)


@given(st.text(alphabet="01*c", max_size=6), st.text(alphabet="01*c", max_size=6))
def test_product_of_reduced_words_is_reduced_product(u, v):
    assert theta_mul(reduce(u), reduce(v)) == reduce(u + v)


def test_cancel_on_strips_pop_push_back_pairs_the_prefix_fixes():
    assert cancel_on(("0", 1), "0") == ("", 0)
    assert cancel_on(("01", 2), "01") == ("", 0)   # pops 0,1 and pushes them back
    assert cancel_on(("01", 2), "10") == ("01", 2)  # pushes back the other order
    assert cancel_on(("10", 2), "00") == ("1", 1)   # only the deeper pair cancels
    assert cancel_on(("0", 1), "") == ("0", 1)      # the popped symbol is untracked


@given(st.text(alphabet="01*c", max_size=8), st.text(alphabet="01*c", max_size=8))
def test_pair_product_is_the_monoid_product_on_normal_forms(u, v):
    u, v = reduce(u), reduce(v)
    assert pair_mul(split_normal(u), split_normal(v)) == split_normal(theta_mul(u, v))
