"""Operations on labelled terms: initialisation, label prefixing and
external label lookup."""

from __future__ import annotations

from itertools import count
from typing import Optional

from .labels import Label, atomic, concat
from .terms import Abs, App, Copy, Erase, Subst, Term, Var, relabel, replace_child

LABEL_NAMES = "abcdefghijklmnopqrstuvwxyz"
# the nodes a label lookup passes through to the nearest construct
_PASSED = (Erase, Copy, Subst)


def _label_name(index: int) -> str:
    if index < len(LABEL_NAMES):
        return LABEL_NAMES[index]
    return LABEL_NAMES[index % len(LABEL_NAMES)] + str(index // len(LABEL_NAMES))


def initialize(term: Term) -> Term:
    """Attach a fresh, pairwise-distinct atomic label to every variable,
    abstraction and application node, in preorder.  Copy, erase and
    substitution nodes stay unlabelled; no markers are placed."""
    indices = count()
    return relabel(term, lambda: atomic(_label_name(next(indices))))


def bullet(prefix: Label, term: Term) -> Term:
    """Prefix the label of the nearest construct, passing through copy,
    erase and substitution nodes; an unlabelled construct stays
    unlabelled."""
    label = label_of(term)
    return term if label is None else with_label(term, concat(prefix, label))


def with_label(term: Term, label: Optional[Label]) -> Term:
    """``term`` with the label of its nearest construct set to ``label``,
    passing through copy, erase and substitution nodes: a walk down to it,
    then a rebuild of each node above it, both loops."""
    above = []
    while type(term) in _PASSED:
        above.append(term)
        term = term.body
    match term:
        case Var(name, _):
            term = Var(name, label)
        case Abs(binder, body, _):
            term = Abs(binder, body, label)
        case App(fun, arg, _):
            term = App(fun, arg, label)
    for node in reversed(above):
        term = replace_child(node, 0, term)
    return term


def label_of(term: Term) -> Optional[Label]:
    """External label: the label of the construct reached by passing through
    copy, erase and substitution nodes, or None when it is unlabelled."""
    while type(term) in _PASSED:
        term = term.body
    return term.label
