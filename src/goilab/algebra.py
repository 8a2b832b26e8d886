"""Dynamic-algebra weights, their null test, and the level-tracking
label-to-weight map.

A weight is its word over levelled constants: None for the absorbing
zero, otherwise a tuple of ``(base, star, level)`` triples, ``()`` being the
unit.  Two weights are equal as static words, the words that path weight
sets are made of, exactly when they are equal tuples.  ``normal_word``
applies the equational theory of the dynamic algebra (Danos & Regnier,
*Proof-nets and the Hilbert space*, 1995; Asperti, Danos, Laneve & Regnier,
*Paths in the lambda-calculus*, 1994).  ``compose`` reads atoms in the order
a path traverses them, so the laws are the usual ones mirrored.

A path going down through a node (from a premise towards the conclusion)
reads ``p``/``q`` at a tensor or par, ``r``/``s`` at a contraction, ``d`` at a
dereliction and ``t*`` at an auxiliary door: the label map sends ``?>``,
leaving a box, to ``t*``.  These six are the generators the laws are stated
for; their involutions are read going up.  Writing ``x, y`` for generators,
``x~`` for the involution of ``x`` and reading every law at any common level
offset (``!(u)`` stands for atoms above the level of the constant it meets):

* annihilation: ``x.x~ = 1`` and ``x.y~ = 0`` for distinct ``x, y`` at the
  same level;
* exponential commutation: ``d.!(u) = u.d``, ``t*.!(u) = !!(u).t*``,
  ``r.!(u) = !(u).r``, ``s.!(u) = !(u).s``, and their involutions
  ``!(u).d* = d*.u``, ``!(u).t = t.!!(u)``, ``!(u).r* = r*.!(u)``,
  ``!(u).s* = s*.!(u)``.

Oriented left to right these rules move generators rightwards and their
involutions leftwards until they meet; the system is confluent, so a word is
null (equal to 0) exactly when it rewrites to 0.  Two choices follow from
that.  Annihilation holds across families (``d.q* = 0``): restricted to
``{p, q}`` and ``{r, s}``, the word ``t*.!^2(t*).d*`` has two different
normal forms.  And the auxiliary-door law is stated for ``t*``: with ``t``
in its place, none of the live straight-path words of the call-by-value net
of ``(\\f.\\x.f (f x)) (\\g.\\y.g (g y))`` reaches the stable form (all
involutions before all generators) that straight paths have in the algebra.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Optional

from .labels import Atomic, Label, Marker, Over, Under

CONSTANTS = ("p", "q", "r", "s", "t", "d")


class LevelUnderflowError(Exception):
    """A label marker asked for a box level below zero."""


# a word of (base, star, level) triples; None is the absorbing zero
Weight = Optional[tuple]

ZERO: Weight = None
ONE: Weight = ()


def watom(base: str, level: int = 0, star: bool = False) -> Weight:
    """The one-atom word of the constant ``base`` at ``level``."""
    if base not in CONSTANTS:
        raise ValueError(f"unknown constant {base!r}")
    if level < 0:
        raise ValueError("negative level")
    return ((base, star, level),)


def compose(*ws: Weight) -> Weight:
    if None in ws:
        return ZERO
    return ws[0] + ws[1] if len(ws) == 2 else tuple(chain.from_iterable(ws))


def involute(w: Weight) -> Weight:
    if not w:
        return w  # the zero and the unit are their own involutions
    if len(w) == 1:
        (base, star, level), = w
        return ((base, not star, level),)
    return tuple((base, not star, level) for base, star, level in reversed(w))


# how an exponential changes the level of the atoms it moves past
_SHIFT = {"d": -1, "t": 1, "r": 0, "s": 0}


@lru_cache(maxsize=1 << 16)
def normal_word(word: Weight) -> Weight:
    """Normal form of a word, or None if it is null (the zero included).
    Memoised per word, for the most recent 65536 words.

    The word is read left to right onto a stack that is kept in normal form:
    a new atom only ever forms a redex with the top of the stack, and an
    atom that has to move past the top is put back in front of the input.
    """
    if word is None:
        return None
    out = []
    pending = list(reversed(word))
    while pending:
        b = pending.pop()
        if not out:
            out.append(b)
            continue
        a = out[-1]
        (a_base, a_star, a_level), (b_base, b_star, b_level) = a, b
        # generators are the atoms read going down: t* and every other unstarred
        a_down = a_star == (a_base == "t")
        b_down = b_star == (b_base == "t")
        if a_level == b_level and a_down and not b_down:
            if a_base != b_base:
                return None
            out.pop()
        elif a_level < b_level and a_down and a_base in _SHIFT:
            out.pop()
            pending.append(a)
            pending.append((b_base, b_star, b_level + _SHIFT[a_base]))
        elif a_level > b_level and not b_down and b_base in _SHIFT:
            out.pop()
            pending.append((a_base, a_star, a_level + _SHIFT[b_base]))
            pending.append(b)
        else:
            out.append(b)
    return tuple(out)


class LevelledWeight(NamedTuple):
    weight: Weight
    out_level: int


# the constant of each level-preserving marker
_KEEP_LEVEL = {"R": "r", "S": "s", "D": "d"}


def lw(label: Label, in_level: int) -> LevelledWeight:
    """Translate a label into a weight, threading the box level left to right.

    Level-preserving markers map to their constant at the current level,
    auxiliary-door and principal-door markers shift the level, and over- and
    underlines wrap the inner translation in q/p at the opening and closing
    levels respectively.  W markers yield the absorbing zero.
    ``LevelUnderflowError`` when the level falls below 0 on the way.
    """
    atoms = []
    level, lowest = _thread(label, in_level, atoms)
    if lowest < 0:
        raise LevelUnderflowError(
            f"label read from level {in_level} falls to level {lowest}")
    return LevelledWeight(None if None in atoms else tuple(atoms), level)


def _thread(label: Label, level: int, atoms: list) -> tuple[int, int]:
    """Append the atoms ``label`` reads from ``level`` to ``atoms``, None
    for a W marker, and return the level it ends at and the lowest level
    it reaches, ``level`` included."""
    lowest = level
    for a in label:
        kind = type(a)
        if kind is Atomic:
            continue
        if kind is Marker:
            right = a.direction == "right"
            if a.kind == "?":
                if right:
                    level -= 1
                    atoms.append(("t", True, level))
                else:
                    atoms.append(("t", False, level))
                    level += 1
            elif a.kind == "!":
                level += -1 if right else 1
            elif a.kind == "W":
                atoms.append(None)
            else:
                atoms.append((_KEEP_LEVEL[a.kind], not right, level))
            lowest = min(lowest, level)
        elif kind is Over or kind is Under:
            base = "q" if kind is Over else "p"
            atoms.append((base, False, level))
            level, inner = _thread(a.inner, level, atoms)
            lowest = min(lowest, inner)
            atoms.append((base, True, level))
        else:
            raise AssertionError(a)
    return level, lowest


def entry_level_needed(label: Label) -> int:
    """Smallest input level at which ``lw`` does not underflow."""
    return -_thread(label, 0, [])[1]


def format_watom(atom: tuple) -> str:
    base, star, level = atom
    core = base + ("*" if star else "")
    if level == 0:
        return core
    if level == 1:
        return f"!({core})"
    return f"!^{level}({core})"


def format_weight(w: Weight) -> str:
    if w is None:
        return "0"
    if not w:
        return "1"
    return ".".join(format_watom(a) for a in w)
