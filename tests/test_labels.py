import random

import pytest
from conftest import random_label

from goilab.labels import (LEFT, MARKER_KINDS, RIGHT, ArgumentLabelError,
                           Marker, atomic, concat, format_label, mark, over,
                           reverse, split_argument_label, under)


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


def right(kind):
    return mark(RIGHT, kind)


def left(kind):
    return mark(LEFT, kind)


A, B = atomic("a"), atomic("b")


def test_split_argument_label_after_its_prefix():
    # !>.R>._(a.<D).<!.b and D>._(a).b.<!
    prefix = concat(right("!"), right("R"), under(A, left("D")), left("!"))
    assert split_argument_label(concat(prefix, B)) == (prefix, B)
    unboxed = concat(right("D"), under(A), B, left("!"))
    assert split_argument_label(unboxed, boxed=False) == (
        concat(right("D"), under(A)), concat(B, left("!")))


@pytest.mark.parametrize("label, boxed, message", [
    (concat(right("D"), under(A), left("!"), B), True,
     "dereliction marker in the exponential prefix"),
    (concat(right("!"), A, under(B)), False,
     "no underlined block after the exponential prefix"),
    (right("!"), False, "no underlined block after the exponential prefix"),
    (concat(right("!"), under(A), B), True,
     "no box marker after the underlined block"),
    (under(A), True, "no box marker after the underlined block"),
    (concat(under(A), left("!")), True, "nothing after the box marker"),
], ids=lambda value: format_label(value) if isinstance(value, tuple) else None)
def test_split_argument_label_names_what_is_wrong(label, boxed, message):
    with pytest.raises(ArgumentLabelError) as caught:
        split_argument_label(label, boxed)
    assert str(caught.value) == message


# --- the twelve markers, built once -----------------------------------------

MARKERS = [(d, k) for d in (RIGHT, LEFT) for k in MARKER_KINDS]


def test_each_marker_label_is_built_once():
    assert len(MARKERS) == 12
    for d, k in MARKERS:
        label = mark(d, k)
        assert mark(d, k) is label
        assert type(label) is tuple and len(label) == 1
        fresh = Marker(d, k)
        assert label[0] == fresh and hash(label[0]) == hash(fresh)
        assert mark(d, k) == (fresh,)


def test_reverse_flips_each_marker_to_the_shared_one():
    flip = {RIGHT: LEFT, LEFT: RIGHT}
    for d, k in MARKERS:
        assert reverse(mark(d, k))[0] is mark(flip[d], k)[0]
        assert reverse((Marker(d, k),))[0] is mark(flip[d], k)[0]
        nested = reverse(over(atomic("a"), mark(d, k)))
        assert nested[0].inner[0] is mark(flip[d], k)[0]


@pytest.mark.parametrize("direction, kind", [
    ("up", "D"), (RIGHT, "P"), (LEFT, "Q"), (RIGHT, "d"), (None, "!")])
def test_a_marker_with_a_bad_direction_or_kind_is_refused(direction, kind):
    for build in (mark, Marker):
        with pytest.raises(ValueError, match="bad marker"):
            build(direction, kind)


def test_random_labels_hold_the_shared_markers():
    rng = random.Random(11)
    markers = [a for _ in range(200) for a in random_label(rng, depth=0)
               if type(a) is Marker]
    assert markers
    for a in markers:
        assert a is mark(a.direction, a.kind)[0]
