"""Deterministic desk-scale corpus: all closed lambda terms up to a node
count, plus a few named classics."""

from __future__ import annotations

from dataclasses import dataclass

from .labelled import initialize, label_of
from .labels import Atomic
from .terms import Abs, App, Term, Var, compile_term, parse_lambda, subterms


def _debruijn_terms(size: int, depth: int):
    if size == 1:
        for i in range(depth):
            yield ("var", i)
        return
    for body in _debruijn_terms(size - 1, depth + 1):
        yield ("abs", body)
    for left_size in range(1, size - 1):
        for fun in _debruijn_terms(left_size, depth):
            for arg in _debruijn_terms(size - 1 - left_size, depth):
                yield ("app", fun, arg)


def _to_named(t, depth: int = 0) -> Term:
    kind = t[0]
    if kind == "var":
        return Var(f"x{depth - 1 - t[1]}")
    if kind == "abs":
        return Abs(f"x{depth}", _to_named(t[1], depth + 1))
    return App(_to_named(t[1], depth), _to_named(t[2], depth))


def closed_terms(max_size: int):
    """All closed lambda terms with at most ``max_size`` nodes, by size."""
    for size in range(1, max_size + 1):
        for i, t in enumerate(_debruijn_terms(size, 0)):
            yield f"closed_{size:02d}_{i:03d}", _to_named(t)


CLASSICS = (
    ("triple_identity", "(\\x.x) (\\y.y) (\\z.z)"),
    ("apply_to_identity", "(\\x.\\y.x y) (\\z.z)"),
    ("church_two_twice", "(\\f.\\x.f (f x)) (\\g.\\y.g (g y))"),
    # a substitution has to cross a copy node on a foreign variable here
    ("copy_under_binder", "(\\y.(\\x.x x y) (\\w.w)) (\\v.v)"),
)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    source: Term      # plain lambda term
    compiled: Term    # linear, unlabelled
    initial: Term     # linear, initialised
    root_atom: str
    atom_classes: dict  # initialisation atom -> "var" | "abs" | "app"


def _classes(term: Term) -> dict:
    classes = {}
    for _, t in subterms(term):
        label = getattr(t, "label", None)
        if label is None:
            continue
        atom = label[0]
        assert isinstance(atom, Atomic) and len(label) == 1
        classes[atom.name] = type(t).__name__.lower()
    return classes


def prepare(name: str, source: Term) -> CorpusEntry:
    compiled = compile_term(source)
    initial = initialize(compiled)
    classes = _classes(initial)
    root_atom = label_of(initial)[0].name
    return CorpusEntry(name, source, compiled, initial, root_atom, classes)


def corpus(max_size: int = 7, classics: bool = True,
           skip: tuple = ()) -> list:
    entries = []
    for name, term in closed_terms(max_size):
        if name not in skip:
            entries.append(prepare(name, term))
    if classics:
        for name, text in CLASSICS:
            if name not in skip:
                entries.append(prepare(name, parse_lambda(text)))
    return entries
