import random
from itertools import product

import pytest
from conftest import failure, parse_word, random_label, reference

from goilab import checks
from goilab.algebra import (CONSTANTS, ONE, ZERO, LevelUnderflowError, compose,
                            entry_level_needed, format_weight, involute, lw,
                            normal_word, watom)
from goilab.labels import (LEFT, RIGHT, Marker, Over, Under, atomic, concat,
                           format_label, mark, over, reverse, under)


def bang(w, k=1):
    """``w`` read ``k`` levels higher: each atom's level raised by ``k``."""
    return None if w is None else tuple((b, star, level + k) for b, star, level in w)


def test_compose_unit_and_absorption():
    w = compose(watom("q"), watom("d"))
    assert compose(ONE, w) == w
    assert compose(w, ONE) == w
    assert compose(ZERO, w) is None
    assert compose(w, ZERO) is None


# the 36 one-atom words at levels 0-2
ONE_ATOM_WORDS = [watom(base, level, star) for base in CONSTANTS
                  for star in (False, True) for level in range(3)]


def test_compose_and_involute_laws_on_every_triple_of_short_words():
    # associativity, unit, absorption and the two involution laws, on every
    # triple drawn from the zero, the unit and the one-atom words
    words = [ZERO, ONE, *ONE_ATOM_WORDS]
    for a, b, c in product(words, repeat=3):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
    for a, b in product(words, repeat=2):
        assert involute(compose(a, b)) == compose(involute(b), involute(a))
    for a in words:
        assert compose(ONE, a) == a == compose(a, ONE)
        assert compose(ZERO, a) is None and compose(a, ZERO) is None
        assert involute(involute(a)) == a


def test_watom_refuses_an_unknown_constant_and_a_negative_level():
    with pytest.raises(ValueError, match="unknown constant 'u'"):
        watom("u")
    with pytest.raises(ValueError, match="negative level"):
        watom("q", -1)


def test_compose_is_concatenation():
    w = compose(watom("q"), watom("d"))
    assert w == (("q", False, 0), ("d", False, 0))


def test_involute_antihomomorphism():
    w = compose(watom("q"), watom("d"))
    assert format_weight(involute(w)) == "d*.q*"
    assert involute(bang(watom("p"))) == bang(watom("p", star=True))
    assert involute(involute(w)) == w
    assert involute(ZERO) is None


def test_bang_is_level_shift():
    assert bang(watom("p")) == watom("p", 1)
    assert bang(ONE) == ()
    w = compose(watom("q"), watom("d", star=True))
    assert [level for _, _, level in bang(w)] == [1, 1]


# --- the label-to-weight table, row by row ---

def test_lw_atomic_row():
    r = lw(atomic("a"), 3)
    assert r.weight == () and r.out_level == 3


@pytest.mark.parametrize("kind,base", [("R", "r"), ("S", "s"), ("D", "d")])
def test_lw_level_preserving_markers(kind, base):
    r = lw(mark(RIGHT, kind), 2)
    assert format_weight(r.weight) == f"!^2({base})" and r.out_level == 2
    r = lw(mark(LEFT, kind), 2)
    assert format_weight(r.weight) == f"!^2({base}*)" and r.out_level == 2


def test_lw_auxiliary_door_rows():
    r = lw(mark(RIGHT, "?"), 2)
    assert format_weight(r.weight) == "!(t*)" and r.out_level == 1
    r = lw(mark(LEFT, "?"), 2)
    assert format_weight(r.weight) == "!^2(t)" and r.out_level == 3


def test_lw_principal_door_rows():
    r = lw(mark(RIGHT, "!"), 2)
    assert r.weight == () and r.out_level == 1
    r = lw(mark(LEFT, "!"), 2)
    assert r.weight == () and r.out_level == 3


def test_lw_overline_underline():
    r = lw(over(atomic("a")), 1)
    assert format_weight(r.weight) == "!(q).!(q*)" and r.out_level == 1
    r = lw(under(atomic("a")), 0)
    assert format_weight(r.weight) == "p.p*" and r.out_level == 0


def test_lw_beta_block():
    # the closed-function Beta overline block, threaded from level 0
    block = over(mark(RIGHT, "D"), atomic("a"), mark(LEFT, "!"))
    r = lw(block, 0)
    assert format_weight(r.weight) == "q.d.!(q*)"
    assert r.out_level == 1


def test_lw_weakening_is_zero():
    assert lw(mark(RIGHT, "W"), 1).weight is None
    assert lw(concat(atomic("a"), mark(LEFT, "W")), 4).weight is None


def test_bracket_markers_cannot_reach_lw():
    # a label holds only the markers the rules emit: the label type builds
    # neither the P nor the Q of the paper's bracketing map
    for kind in ("P", "Q"):
        with pytest.raises(ValueError):
            mark(RIGHT, kind)


def test_lw_underflow():
    with pytest.raises(LevelUnderflowError):
        lw(mark(RIGHT, "!"), 0)
    with pytest.raises(LevelUnderflowError):
        lw(mark(RIGHT, "?"), 0)


def test_lw_composite_threading_random():
    rng = random.Random(5)
    for _ in range(300):
        label = random_label(rng)
        level = 2 * len(label) + 4
        full = lw(label, level)
        for cut in range(1, len(label)):
            left = lw(label[:cut], level)
            right = lw(label[cut:], left.out_level)
            assert full.weight == compose(left.weight, right.weight)
            assert right.out_level == full.out_level


def test_lw_reversal_symmetry_random():
    rng = random.Random(6)
    for _ in range(300):
        label = random_label(rng)
        level = 2 * len(label) + 4
        fwd = lw(label, level)
        back = lw(reverse(label), fwd.out_level)
        assert back.weight == involute(fwd.weight)
        assert back.out_level == level


def test_criterion_10_names_a_smallest_label_it_fails_on(monkeypatch):
    # a left ? read one level high: <! <? !> stands for each <?, so the
    # map still respects concatenation but no longer reversal, and the
    # labels come smallest first
    def read_high(label):
        out = ()
        for a in label:
            if a == mark(LEFT, "?")[0]:
                out += concat(mark(LEFT, "!"), (a,), mark(RIGHT, "!"))
            elif type(a) in (Over, Under):
                out += (type(a)(read_high(a.inner)),)
            else:
                out += (a,)
        return out

    monkeypatch.setattr(checks, "lw", lambda label, level: lw(read_high(label), level))
    report = checks.check_algebra_laws()
    assert not report["ok"]
    first = report["failures"][0]
    assert first["problem"] == "reversal symmetry broken"
    assert first["detail"] == [format_label(mark(RIGHT, "?")),
                               "lw(reverse(u)) = involute(lw(u))"]


def test_criterion_10_names_a_composite_row_that_loses_its_right_part(monkeypatch):
    # compose keeps only its left factor: a.D> reads d whole, but 1 from
    # its left part, and no other law reads compose
    monkeypatch.setattr(checks, "compose", lambda left, right: left)
    report = checks.check_algebra_laws()
    assert report["failures"][0] == failure("composite row incoherent", detail=[
        "a.D>", "lw(u.v) = lw(u).lw(v)", 1])
    assert {f["problem"] for f in report["failures"]} == {"composite row incoherent"}


def test_criterion_10_names_a_w_marker_that_does_not_absorb(monkeypatch):
    # the W marker dropped before it is read: every label reads a word
    monkeypatch.setattr(checks, "concat", lambda prefix, label: label)
    report = checks.check_algebra_laws()
    assert report["failures"][0] == failure("W marker did not absorb", detail=[
        "a", "lw(W>.u) = 0"])
    assert report["failures_total"] == report["labels"]
    assert {f["problem"] for f in report["failures"]} == {"W marker did not absorb"}


def test_criterion_10_reports_a_label_it_cannot_read_and_reads_on(monkeypatch):
    # each <? read as <?.!> leaves level 0 below 0 on <? itself: that label
    # is one failure naming the error, and the labels after it are checked
    def read_low(label):
        out = ()
        for a in label:
            if a == mark(LEFT, "?")[0]:
                out += (a, *mark(RIGHT, "!"))
            elif type(a) in (Over, Under):
                out += (type(a)(read_low(a.inner)),)
            else:
                out += (a,)
        return out

    monkeypatch.setattr(checks, "lw", lambda label, level: lw(read_low(label), level))
    report = checks.check_algebra_laws()
    assert (report["ok"], report["labels"]) == (False, 2255)
    unread = [f for f in report["failures"] if f["problem"] == "label cannot be read"]
    assert unread[0]["error"] == "LevelUnderflowError"
    assert unread[0]["detail"] == [format_label(mark(LEFT, "?")),
                                   "label read from level 0 falls to level -1"]
    assert len(unread) < len(report["failures"]) < report["failures_total"]


def entry_level_by_loop(label):
    """The least entry level ``label`` needs, by a walk of its own: the
    lowest level its door markers reach from level 0, negated."""
    level = 0
    lowest = 0
    pending = [iter(label)]  # the atoms left at each depth of over/underlines
    while pending:
        for a in pending[-1]:
            if isinstance(a, (Over, Under)):
                pending.append(iter(a.inner))
                break
            if isinstance(a, Marker) and a.kind in ("?", "!"):
                if a.direction == "right":
                    level -= 1
                    lowest = min(lowest, level)
                else:
                    level += 1
        else:
            pending.pop()
    return -lowest


def test_lw_commutes_with_a_level_shift():
    # a label read k levels higher reads its weight under k bangs; below
    # its entry level it underflows, and with a W marker it reads the zero
    rng = random.Random(24)
    zeros = underflows = 0
    for n in range(1000):
        label = random_label(rng)
        if n % 4 == 0:
            at = rng.randint(0, len(label))
            label = concat(label[:at], mark(rng.choice((LEFT, RIGHT)), "W"), label[at:])
        entry = entry_level_needed(label)
        assert entry == entry_level_by_loop(label), label
        if entry:
            underflows += 1
            with pytest.raises(LevelUnderflowError):
                lw(label, entry - 1)
        v = entry + rng.randint(0, 2)
        w, out = lw(label, v)
        zeros += w is None
        for k in (1, 2, 3):
            assert lw(label, v + k) == (bang(w, k), out + k), label
    assert zeros >= 250 and underflows > 100


def test_entry_level_needed():
    assert entry_level_needed(atomic("a")) == 0
    assert entry_level_needed(mark(RIGHT, "!")) == 1
    assert entry_level_needed(concat(mark(LEFT, "!"), mark(RIGHT, "!"))) == 0
    assert entry_level_needed(under(concat(mark(RIGHT, "!"), mark(RIGHT, "?")))) == 2


def test_weight_equality_rows():
    assert compose(ONE, watom("q")) == watom("q")
    assert compose(watom("q"), watom("p")) != compose(watom("p"), watom("q"))
    assert compose(ZERO, watom("q")) == compose(ZERO, watom("p"))


def test_format_weight():
    assert format_weight(ONE) == "1"
    assert format_weight(ZERO) == "0"
    assert format_weight(compose(watom("q"), bang(watom("q", star=True)))) == "q.!(q*)"
    assert format_weight(watom("t", 3, True)) == "!^3(t*)"


# --- the null test of the dynamic algebra ---

# the atoms a path reads going down through a node, and the level shift each
# exponential one gives the atoms it commutes with
GENERATORS = ("p", "q", "r", "s", "d", "t*")
EXPONENTIALS = {"d": -1, "t*": 1, "r": 0, "s": 0}


def null(weight):
    return normal_word(weight) is None


def nf(text_or_weight):
    weight = (parse_word(text_or_weight) if isinstance(text_or_weight, str)
              else text_or_weight)
    return format_weight(normal_word(weight))


def at(generator, level):
    return bang(parse_word(generator), level)


def random_word(rng, max_length=8, max_level=3):
    return tuple((rng.choice("pqrstd"), rng.random() < 0.5,
                  rng.randint(0, max_level))
                 for _ in range(rng.randint(0, max_length)))


def test_null_test_vectors():
    assert null(parse_word("q.p*.d*.q.q*"))
    # commute d past !(q*).!(p), then q.q*, d.d* and p.q* remain
    assert null(parse_word("q.d.!(q*).!(p).d*.q*"))
    # the lcf identity label of criterion 9 and the lca one stay live
    assert nf("q.d.!(q*).!(p).d*.p*") == "1"
    assert nf("q.q*.d.p.p*") == "d"


@pytest.mark.parametrize("level", [0, 2])
def test_annihilation_laws(level):
    for x in GENERATORS:
        assert normal_word(compose(at(x, level), involute(at(x, level)))) == ()
        # an involution followed by a generator is already stable
        assert nf(compose(involute(at(x, level)), at(x, level))) != "1"
        for y in GENERATORS:
            if y != x:
                assert null(compose(at(x, level), involute(at(y, level))))
    # no law joins atoms at different levels
    assert nf("!(p).p*") == "!(p).p*"


@pytest.mark.parametrize("offset", [0, 1])
def test_commutation_laws(offset):
    rng = random.Random(7)
    for _ in range(50):
        u = bang(random_word(rng, max_length=4), offset + 1)
        for e, shift in EXPONENTIALS.items():
            x = at(e, offset)
            moved = bang(u, shift)
            assert nf(compose(x, u)) == nf(compose(moved, x))
            assert nf(compose(involute(u), involute(x))) == \
                nf(compose(involute(x), involute(moved)))


def test_annihilation_across_families_is_what_makes_the_laws_confluent():
    # restricted to {p, q} and {r, s}, moving t* right first leaves
    # !^3(t*).t*.d* and moving d* left first leaves t*.d*.!(t*)
    assert null(parse_word("t*.!^2(t*).d*"))


def test_null_iff_involution_null():
    rng = random.Random(8)
    for _ in range(2000):
        word = random_word(rng)
        assert null(word) == null(involute(word))
        assert normal_word(involute(word)) == involute(normal_word(word))


def test_null_prefix_nullifies_every_extension():
    rng = random.Random(9)
    dead = 0
    for _ in range(2000):
        prefix = random_word(rng, max_length=5)
        if null(prefix):
            dead += 1
            for _ in range(5):
                assert null(compose(prefix, random_word(rng)))
                assert null(compose(random_word(rng), prefix))
    assert dead > 100



def test_normal_form_of_a_prefix_can_stand_for_it():
    # the weight-set search extends the normal form of a path's word, not
    # the word itself
    rng = random.Random(11)
    live = 0
    for _ in range(2000):
        prefix = random_word(rng, max_length=6)
        rest = random_word(rng, max_length=4)
        if normal_word(prefix) is not None:
            live += 1
            assert normal_word(normal_word(prefix) + rest) == \
                normal_word(prefix + rest)
    assert live > 500

def _rewrites(word):
    """Every one-step rewrite of a word by one law; None is 0."""
    out = []
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        (a_base, a_star, a_level), (b_base, b_star, b_level) = a, b
        a_gen = a_base + ("*" if a_star else "")
        b_inv = b_base + ("" if b_star else "*")
        a_down, b_up = a_gen in GENERATORS, b_inv in GENERATORS
        head, tail = word[:i], word[i + 2:]
        if a_level == b_level and a_down and b_up:
            out.append(head + tail if a_gen == b_inv else None)
        elif a_level < b_level and a_down and a_gen in EXPONENTIALS:
            moved = (b_base, b_star, b_level + EXPONENTIALS[a_gen])
            out.append(head + (moved, a) + tail)
        elif a_level > b_level and b_up and b_inv in EXPONENTIALS:
            moved = (a_base, a_star, a_level + EXPONENTIALS[b_inv])
            out.append(head + (b, moved) + tail)
    return out


def test_normal_form_does_not_depend_on_the_rewrite_order():
    rng = random.Random(10)
    for _ in range(400):
        word = random_word(rng, max_length=6)
        normal = set()
        todo, seen = [word], {word}
        while todo:
            atoms = todo.pop()
            steps = _rewrites(atoms)
            if not steps:
                normal.add(atoms)
            for nxt in steps:
                if nxt is None:
                    normal.add(None)
                elif nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        assert normal == {normal_word(word)}


def test_every_law_keeps_the_normal_form_of_every_word_of_three_atoms():
    # the 47,989 words of at most three atoms at levels 0-2, shortest
    # first: each one-step rewrite by the laws, as the benchmark's reference
    # states them, keeps normal_word's result, and none applies to a normal
    # form.  The memo is cleared after, so no later test reads these words
    atoms = [atom for (atom,) in ONE_ATOM_WORDS]
    words = [word for n in range(4) for word in product(atoms, repeat=n)]
    assert len(words) == 47_989
    try:
        for word in words:
            normal = normal_word(word)
            for i, replacement in reference._rewrites(word):
                rewritten = (None if replacement is None
                             else word[:i] + replacement + word[i + 2:])
                assert normal_word(rewritten) == normal, (word, i)
            assert normal is None or reference._rewrites(normal) == [], word
    finally:
        normal_word.cache_clear()
