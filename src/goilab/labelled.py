"""Operations on labelled terms: initialisation, label prefixing, external
and free-variable label lookup."""

from __future__ import annotations

from itertools import count
from typing import Optional

from .labels import Label, atomic, concat
from .terms import (Abs, App, Copy, Erase, FreshSupply, Subst, Term, Var,
                    free_vars, relabel)


class VariableNotFreeError(Exception):
    pass


class UnlabelledTermError(Exception):
    pass


LABEL_NAMES = "abcdefghijklmnopqrstuvwxyz"


def _label_name(index: int) -> str:
    if index < len(LABEL_NAMES):
        return LABEL_NAMES[index]
    return LABEL_NAMES[index % len(LABEL_NAMES)] + str(index // len(LABEL_NAMES))


def initialize(term: Term, supply: Optional[FreshSupply] = None) -> Term:
    """Attach a fresh, pairwise-distinct atomic label to every variable,
    abstraction and application node, in preorder.  Copy, erase and
    substitution nodes stay unlabelled; no markers are placed."""
    indices = count(supply.counter if supply else 0)
    out = relabel(term, lambda: atomic(_label_name(next(indices))))
    if supply:
        supply.counter = next(indices)  # the first index left unused
    return out


def bullet(prefix: Label, term: Term) -> Term:
    """Prefix the label of the nearest labelled construct, passing through
    copy, erase and substitution nodes."""
    match term:
        case Var(name, label):
            return Var(name, _pre(prefix, label))
        case Abs(binder, body, label):
            return Abs(binder, body, _pre(prefix, label))
        case App(fun, arg, label):
            return App(fun, arg, _pre(prefix, label))
        case Erase(binder, body):
            return Erase(binder, bullet(prefix, body))
        case Copy(source, left, right, body):
            return Copy(source, left, right, bullet(prefix, body))
        case Subst(body, arg, target):
            return Subst(bullet(prefix, body), arg, target)
    raise AssertionError


def _pre(prefix: Label, label: Optional[Label]) -> Optional[Label]:
    if label is None:
        return None  # unlabelled reduction drops prefixes
    return concat(prefix, label)


def label_of(term: Term) -> Label:
    """External label: the label of the construct reached by passing through
    copy, erase and substitution nodes."""
    match term:
        case Var(_, label) | Abs(_, _, label) | App(_, _, label):
            if label is None:
                raise UnlabelledTermError("construct carries no label")
            return label
        case Erase(_, body) | Copy(_, _, _, body) | Subst(body, _, _):
            return label_of(body)
    raise AssertionError


def var_label(term: Term, x: str) -> Label:
    """Label on the unique free occurrence of ``x`` (terms are linear)."""

    def search(t: Term) -> Optional[Label]:
        match t:
            case Var(name, label):
                if name == x:
                    if label is None:
                        raise UnlabelledTermError(f"occurrence of {x} is unlabelled")
                    return label
                return None
            case Abs(binder, body):
                return None if binder == x else search(body)
            case Erase(binder, body):
                return None if binder == x else search(body)
            case Copy(source, left, right, body):
                if x in (left, right):
                    return None
                return search(body)
            case App(fun, arg):
                return search(fun) or search(arg)
            case Subst(body, arg, target):
                hit = None if target == x else search(body)
                return hit or search(arg)
        raise AssertionError

    if x not in free_vars(term):
        raise VariableNotFreeError(x)
    found = search(term)
    if found is None:
        raise VariableNotFreeError(x)
    return found
