"""Levy-style labelled beta reduction on plain lambda terms.

The reference calculus: substitution is a meta-operation, labels record
redex history through over/underlined copies of the function label.
"""

from __future__ import annotations

from .calculus import FUEL, FuelExhaustedError
from .labels import concat, over, under
from .labelled import bullet
from .terms import (Abs, App, FreshSupply, Term, Var, all_var_names,
                    free_vars, is_lambda_term, rename_free, replace_at,
                    subterm_at, subterms)


class NoRedexAtPositionError(Exception):
    pass


def meta_substitute(term: Term, x: str, value: Term, supply: FreshSupply) -> Term:
    """Capture-avoiding substitution with label prefixing on hit variables."""
    match term:
        case Var(name, label):
            if name == x:
                return bullet(label, value)
            return term
        case Abs(binder, body, label):
            if binder == x:
                return term
            if binder in free_vars(value) and x in free_vars(body):
                new = supply.fresh(binder)
                body = rename_free(body, binder, new)
                binder = new
            if x not in free_vars(body):
                return Abs(binder, body, label)
            return Abs(binder, meta_substitute(body, x, value, supply), label)
        case App(fun, arg, label):
            return App(meta_substitute(fun, x, value, supply),
                       meta_substitute(arg, x, value, supply), label)
    raise AssertionError


def levy_redexes(term: Term) -> list:
    return [pos for pos, t in subterms(term)
            if isinstance(t, App) and isinstance(t.fun, Abs)]


def levy_step(term: Term, position: tuple = ()) -> Term:
    """((\\x.M)^a N)^b  ->  b.<a> . (M[ _(a) . N / x])"""
    if not is_lambda_term(term):
        raise ValueError("levy_step expects a plain lambda term")
    node = subterm_at(term, position)
    if not (isinstance(node, App) and isinstance(node.fun, Abs)):
        raise NoRedexAtPositionError(position)
    fun, arg, beta = node.fun, node.arg, node.label
    alpha = fun.label
    if alpha is None or beta is None:
        raise ValueError("levy_step needs labelled redex nodes")
    supply = FreshSupply(used=set(all_var_names(term)))
    body = meta_substitute(fun.body, fun.binder, bullet(under(alpha), arg), supply)
    result = bullet(concat(beta, over(alpha)), body)
    return replace_at(term, position, result)


def levy_normalize(term: Term, fuel: int = FUEL) -> Term:
    """The normal form of ``term`` by leftmost-outermost Levy steps.
    Raises FuelExhaustedError when a redex remains after ``fuel`` steps."""
    while redexes := levy_redexes(term):
        if fuel <= 0:
            raise FuelExhaustedError("a redex remains when the fuel runs out")
        fuel -= 1
        term = levy_step(term, redexes[0])
    return term
