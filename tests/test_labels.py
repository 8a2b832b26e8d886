import random

import pytest

from goilab.labels import (LEFT, RIGHT, ArgumentLabelError, atomic, concat,
                           format_label, mark, over, parse_label, reverse,
                           split_argument_label, under)
from goilab.checks import random_label


def test_reverse_atomic():
    assert reverse(atomic("a")) == atomic("a")


def test_reverse_marker_block():
    block = concat(mark(RIGHT, "D"), atomic("a"), mark(LEFT, "!"))
    assert reverse(block) == concat(mark(RIGHT, "!"), atomic("a"), mark(LEFT, "D"))


def test_reverse_distributes_under_lines():
    lab = concat(over(atomic("a"), mark(RIGHT, "R")), under(atomic("b")))
    assert reverse(lab) == concat(under(atomic("b")),
                                  over(mark(LEFT, "R"), atomic("a")))


def test_reverse_involution_and_antihomomorphism():
    rng = random.Random(7)
    for _ in range(300):
        a = random_label(rng)
        b = random_label(rng)
        assert reverse(reverse(a)) == a
        assert reverse(concat(a, b)) == concat(reverse(b), reverse(a))


def test_format_examples():
    lab = concat(atomic("a"), over(atomic("b")), under(atomic("c")),
                 mark(RIGHT, "D"), mark(LEFT, "!"))
    assert format_label(lab) == "a.<(b)>._(c).D>.<!"


def test_parse_round_trip_random():
    rng = random.Random(3)
    for _ in range(500):
        lab = random_label(rng, depth=3, length=5)
        assert parse_label(format_label(lab)) == lab


def test_parse_rejects_garbage():
    for text in ("", "a..b", "<a", "_(", "a.<Z>"):
        try:
            parse_label(text)
        except ValueError:
            continue
        raise AssertionError(f"{text!r} should not parse")


def test_split_argument_label_after_its_prefix():
    boxed = parse_label("!>.R>._(a.<D).<!.b")
    assert split_argument_label(boxed) == (parse_label("!>.R>._(a.<D).<!"),
                                           parse_label("b"))
    unboxed = parse_label("D>._(a).b.<!")
    assert split_argument_label(unboxed, boxed=False) == (
        parse_label("D>._(a)"), parse_label("b.<!"))


@pytest.mark.parametrize("text, boxed, message", [
    ("D>._(a).<!.b", True, "dereliction marker in the exponential prefix"),
    ("!>.a._(b)", False, "no underlined block after the exponential prefix"),
    ("!>", False, "no underlined block after the exponential prefix"),
    ("!>._(a).b", True, "no box marker after the underlined block"),
    ("_(a)", True, "no box marker after the underlined block"),
    ("_(a).<!", True, "nothing after the box marker"),
])
def test_split_argument_label_names_what_is_wrong(text, boxed, message):
    with pytest.raises(ArgumentLabelError) as caught:
        split_argument_label(parse_label(text), boxed)
    assert str(caught.value) == message
