"""Operations on labelled terms: initialisation, label prefixing and
external label lookup."""

from __future__ import annotations

from itertools import count
from typing import Optional

from .labels import Label, atomic, concat
from .terms import Abs, App, Copy, Erase, Subst, Term, Var, relabel

LABEL_NAMES = "abcdefghijklmnopqrstuvwxyz"


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
    passing through copy, erase and substitution nodes."""
    match term:
        case Var(name, _):
            return Var(name, label)
        case Abs(binder, body, _):
            return Abs(binder, body, label)
        case App(fun, arg, _):
            return App(fun, arg, label)
        case Erase(binder, body):
            return Erase(binder, with_label(body, label))
        case Copy(source, left, right, body):
            return Copy(source, left, right, with_label(body, label))
        case Subst(body, arg, target):
            return Subst(with_label(body, label), arg, target)
    raise AssertionError


def label_of(term: Term) -> Optional[Label]:
    """External label: the label of the construct reached by passing through
    copy, erase and substitution nodes, or None when it is unlabelled."""
    match term:
        case Var(_, label) | Abs(_, _, label) | App(_, _, label):
            return label
        case Erase(_, body) | Copy(_, _, _, body) | Subst(body, _, _):
            return label_of(body)
    raise AssertionError
