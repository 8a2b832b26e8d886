"""Deterministic desk-scale corpus: all closed lambda terms up to a node
count, plus a few named classics."""

from __future__ import annotations

from dataclasses import dataclass

from .labelled import initialize, label_of
from .labels import Atomic
from .terms import Abs, App, Term, Var, compile_term, nodes, parse_lambda


def _terms(size: int, depth: int):
    """The terms of ``size`` nodes whose free names are among ``x0`` to
    ``x{depth-1}``, ``x0`` bound outermost: variables, innermost binder first,
    then abstractions, then applications by the size of their function."""
    if size == 1:
        for i in reversed(range(depth)):
            yield Var(f"x{i}")
        return
    for body in _terms(size - 1, depth + 1):
        yield Abs(f"x{depth}", body)
    for left_size in range(1, size - 1):
        for fun in _terms(left_size, depth):
            for arg in _terms(size - 1 - left_size, depth):
                yield App(fun, arg)


def closed_terms(max_size: int):
    """All closed lambda terms with at most ``max_size`` nodes, by size."""
    for size in range(1, max_size + 1):
        for i, t in enumerate(_terms(size, 0)):
            yield f"closed_{size:02d}_{i:03d}", t


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
    """Initialisation atom -> the kind of node it labels, in preorder."""
    classes = {}
    for t in nodes(term):
        kind = type(t)
        if kind is Var or kind is Abs or kind is App:
            atom = t.label[0]
            assert isinstance(atom, Atomic) and len(t.label) == 1
            classes[atom.name] = kind.__name__.lower()
    return classes


def prepare(name: str, source: Term) -> CorpusEntry:
    compiled = compile_term(source)
    initial = initialize(compiled)
    classes = _classes(initial)
    root_atom = label_of(initial)[0].name
    return CorpusEntry(name, source, compiled, initial, root_atom, classes)


def corpus(max_size: int = 7) -> list:
    """Every closed term of at most ``max_size`` nodes, then the classics."""
    entries = [prepare(name, term) for name, term in closed_terms(max_size)]
    return entries + [prepare(name, parse_lambda(text)) for name, text in CLASSICS]
