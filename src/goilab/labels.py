"""Reduction-trace labels: atomic names, directed exponential markers, over/underlining.

A label is a non-empty tuple of atoms.  Over- and underlined sub-labels nest,
so labels are trees, but concatenation at the top level is plain tuple
concatenation.  The printed syntax is dotted: ``a.<(b)>._(c).D>.<!`` where
``<(...)>`` is an overline, ``_(...)`` an underline, ``E>`` / ``<E`` a
right/left marker.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Union

MARKER_KINDS = ("D", "!", "?", "R", "S", "W")

RIGHT = "right"
LEFT = "left"


def slot_init(cls):
    """Give a frozen, slotted dataclass an ``__init__`` that sets each field
    through its slot's member descriptor, then calls ``__post_init__`` if
    the class has one.  The generated ``__init__`` goes through
    ``object.__setattr__``, which costs about twice as much per value;
    assignment after construction still raises ``FrozenInstanceError``.
    Fields take a plain default or none."""
    init = [f for f in fields(cls) if f.init]
    namespace = {f"_set_{f.name}": cls.__dict__[f.name].__set__ for f in init}
    namespace.update((f"_default_{f.name}", f.default)
                     for f in init if f.default is not MISSING)
    params = "".join(f", {f.name}" if f.default is MISSING
                     else f", {f.name}=_default_{f.name}" for f in init)
    body = "".join(f"\n    _set_{f.name}(self, {f.name})" for f in init)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    exec(f"def __init__(self{params}):{body}", namespace)
    namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = namespace["__init__"]
    return cls


@slot_init
@dataclass(frozen=True, slots=True)
class Atomic:
    name: str


@slot_init
@dataclass(frozen=True, slots=True)
class Over:
    inner: "Label"


@slot_init
@dataclass(frozen=True, slots=True)
class Under:
    inner: "Label"


@slot_init
@dataclass(frozen=True, slots=True)
class Marker:
    direction: str  # RIGHT or LEFT
    kind: str

    def __post_init__(self):
        if self.direction not in (RIGHT, LEFT):
            raise ValueError(f"bad marker direction {self.direction!r}")
        if self.kind not in MARKER_KINDS:
            raise ValueError(f"bad marker kind {self.kind!r}")


Atom = Union[Atomic, Over, Under, Marker]
Label = tuple  # tuple[Atom, ...], non-empty for labelled constructs


def atomic(name: str) -> Label:
    return (Atomic(name),)


def over(*labels) -> Label:
    return (Over(concat(*labels)),)


def under(*labels) -> Label:
    return (Under(concat(*labels)),)


# the one-atom label of each of the twelve markers, built once: every step
# of a rule marks a label, and a marker has no other state
MARKS = {(direction, kind): (Marker(direction, kind),)
         for direction in (RIGHT, LEFT) for kind in MARKER_KINDS}


def mark(direction: str, kind: str) -> Label:
    """The shared label of one marker; an unknown direction or kind raises
    ``ValueError`` as ``Marker`` does."""
    return MARKS.get((direction, kind)) or (Marker(direction, kind),)


def concat(*labels) -> Label:
    """Concatenate labels left to right."""
    return sum(labels, ())


def reverse(label: Label) -> Label:
    """Label reversal: anti-homomorphism that swaps marker directions."""
    out = []
    for a in reversed(label):
        if isinstance(a, Atomic):
            out.append(a)
        elif isinstance(a, Over):
            out.append(Over(reverse(a.inner)))
        elif isinstance(a, Under):
            out.append(Under(reverse(a.inner)))
        else:
            out += MARKS[LEFT if a.direction == RIGHT else RIGHT, a.kind]
    return tuple(out)


def format_atom(a: Atom) -> str:
    if isinstance(a, Atomic):
        return a.name
    if isinstance(a, Over):
        return "<(" + format_label(a.inner) + ")>"
    if isinstance(a, Under):
        return "_(" + format_label(a.inner) + ")"
    return a.kind + ">" if a.direction == RIGHT else "<" + a.kind


def format_label(label: Label) -> str:
    return ".".join(format_atom(a) for a in label)


class ArgumentLabelError(ValueError):
    pass


def split_argument_label(label: Label, boxed: bool = True) -> tuple[Label, Label]:
    """Split the label of a substitution argument after its prefix: right
    markers, one underlined block and, when ``boxed``, the ``<!`` that
    enters the argument's box.  A boxed label has no ``D>`` in its prefix
    and goes on after it.  Returns (prefix, rest); raises
    ``ArgumentLabelError`` at the first part that is wrong or missing.
    """
    i = 0
    while i < len(label) and isinstance(label[i], Marker) and label[i].direction == RIGHT:
        if boxed and label[i].kind == "D":
            raise ArgumentLabelError("dereliction marker in the exponential prefix")
        i += 1
    if i >= len(label) or not isinstance(label[i], Under):
        raise ArgumentLabelError("no underlined block after the exponential prefix")
    i += 1
    if boxed:
        if i >= len(label) or label[i] != MARKS[LEFT, "!"][0]:
            raise ArgumentLabelError("no box marker after the underlined block")
        i += 1
        if i >= len(label):
            raise ArgumentLabelError("nothing after the box marker")
    return label[:i], label[i:]

