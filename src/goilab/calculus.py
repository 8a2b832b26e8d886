"""The labelled calculi of closed functions (lcf) and closed arguments (lca).

Both systems rewrite pairs (term, B) where B collects erased, W-marked
arguments.  Rules fire under any context; sites are ordered position-first
(preorder) and rule-name-alphabetical for reproducible traces.

Each rule is a left-hand side, a side condition and a labelled contractum.
``_contractions`` is one match whose cases are the left-hand sides: it
returns, for one node, the rules that match it with their contracta, and
None for a rule whose side condition fails.  One lazy generator,
``_redexes``, walks the term in preorder on its own stack, testing each
node's kind inline, and offers it only the nodes a left-hand side can
match: the substitutions, and the applications of an abstraction when it
is told that ``Beta`` fires (the sigma walks say it does not).  Variables,
which are neither redexes nor parents, never enter the stack.  The walk
keeps the child indices from the root in one list and makes a position
tuple only for a redex it reports.
The reduction graph and the leftmost-outermost walk of ``reduce`` and
``sigma_walk`` read that generator.
Only ``step``, which is given a site, raises ``PatternMismatchError`` or
``SideConditionViolatedError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .labels import (LEFT, RIGHT, concat, format_label, mark, over, reverse,
                     slot_init, under)
from .labelled import bullet, label_of
from .terms import (Abs, App, Copy, Erase, Subst, Term, Var, format_term,
                    free_vars, replace_at, subterm_at)

LCF = "lcf"
LCA = "lca"
FUEL = 10_000  # the default budget of every search: steps, configurations or visits

RULES = {
    LCF: ("App1", "App2", "Beta", "Cmp", "Cpy1", "Cpy2", "Ers1", "Ers2", "Lam", "Var"),
    LCA: ("App1", "App2", "Beta", "Cpy1", "Cpy2", "Ers1", "Ers2", "Lam", "Var"),
}

class PatternMismatchError(Exception):
    pass


class SideConditionViolatedError(Exception):
    pass


class FuelExhaustedError(Exception):
    pass


@slot_init
@dataclass(frozen=True, slots=True)
class Configuration:
    term: Term
    erased: frozenset = frozenset()


@slot_init
@dataclass(frozen=True, slots=True)
class RedexSite:
    position: tuple
    rule: str


@slot_init
@dataclass(frozen=True, slots=True)
class TraceStep:
    site: RedexSite
    config: Configuration


def _contractions(node: Term, calculus: str, beta: bool) -> tuple:
    """``((rule, contracted), ...)`` for the rules of ``calculus`` whose
    left-hand side matches ``node``, alphabetically, ``Beta`` only when
    ``beta``; ``()`` when none does.
    ``contracted`` is ``(new node, erased term or None)``, or None when the
    rule's side condition fails.

    Each case is one left-hand side; a substitution's are cases on its
    body, so that a node's kind is tested once (a class pattern that fails
    costs an ``isinstance`` check, and a flat match would make one per
    substitution rule at every node).  The rules that share a left-hand
    side exclude each other, so at most one contractum is built.  An
    absent label reads as the empty one, and ``bullet`` leaves an
    unlabelled construct as it is, so unlabelled terms step as plain ones.
    """
    match node:
        case Subst(body=body, arg=arg, target=x):
            match body:
                case Abs():
                    if calculus == LCA:
                        marked = arg
                    elif free_vars(arg):
                        return (("Lam", None),)
                    else:
                        marked = bullet(mark(RIGHT, "?"), arg)
                    return (("Lam", (Abs(body.binder, Subst(body.body, marked, x),
                                         body.label), None)),)
                case App():
                    if x in free_vars(body.fun):
                        return (("App1", (App(Subst(body.fun, arg, x), body.arg,
                                              body.label), None)),
                                ("App2", None))
                    if x not in free_vars(body.arg):
                        return (("App1", None), ("App2", None))
                    marked = bullet(mark(RIGHT, "?"), arg) if calculus == LCA else arg
                    return (("App1", None),
                            ("App2", (App(body.fun, Subst(body.arg, marked, x),
                                          body.label), None)))
                case Copy() if body.source == x:
                    if calculus == LCF and free_vars(arg):
                        return (("Cpy1", None),)
                    inner = Subst(body.body, bullet(mark(RIGHT, "R"), arg), body.left)
                    return (("Cpy1", (Subst(inner, bullet(mark(RIGHT, "S"), arg),
                                            body.right), None)),)
                case Copy():
                    return (("Cpy2", (Copy(body.source, body.left, body.right,
                                           Subst(body.body, arg, x)), None)),)
                case Erase() if body.binder == x:
                    if calculus == LCF and free_vars(arg):
                        return (("Ers1", None),)
                    return (("Ers1", (body.body, bullet(mark(RIGHT, "W"), arg))),)
                case Erase():
                    return (("Ers2", (Erase(body.binder, Subst(body.body, arg, x)),
                                      None)),)
                case Var() if body.name == x:
                    prefix = body.label or ()
                    if calculus == LCA:
                        prefix = concat(prefix, mark(RIGHT, "D"))
                    return (("Var", (bullet(prefix, arg), None)),)
                case Subst() if calculus == LCF:
                    if x not in free_vars(body.arg):
                        return (("Cmp", None),)
                    return (("Cmp", (Subst(body.body, Subst(body.arg, arg, x),
                                           body.target), None)),)
        case App(fun=Abs() as fun) if beta:
            arg, label, alpha = node.arg, node.label or (), fun.label or ()
            if free_vars(fun if calculus == LCF else arg):
                return (("Beta", None),)
            if calculus == LCF:
                block = concat(mark(RIGHT, "D"), alpha, mark(LEFT, "!"))
                outer = concat(label, over(block))
                inner = under(reverse(block))
            else:
                outer = concat(label, over(alpha))
                inner = concat(under(reverse(alpha)), mark(LEFT, "!"))
            contractum = Subst(fun.body, bullet(inner, arg), fun.binder)
            return (("Beta", (bullet(outer, contractum), None)),)
    return ()


def _rebuild(config: Configuration, position: tuple, new_node: Term,
             erased: Optional[Term]) -> Configuration:
    """``config`` with the node at ``position`` contracted to these."""
    term = replace_at(config.term, position, new_node)
    bag = config.erased | {erased} if erased is not None else config.erased
    return Configuration(term, bag)


def _redexes(config: Configuration, calculus: str, beta: bool) -> Iterator[TraceStep]:
    """Each redex of ``config`` with its contracted configuration, ``Beta``'s
    only when ``beta``, position-lexicographic then rule-alphabetical.  Lazy:
    the first item contracts the leftmost-outermost redex only.  Raises
    ValueError for an unknown calculus, which would match a mix of rules."""
    if calculus not in RULES:
        raise ValueError(f"unknown calculus {calculus!r}")
    path = []  # the child indices from the root down to the node at hand
    # (node, the depth of its parent, its own index as a 1-tuple): a variable
    # is never on the stack, since it is no redex and has no children
    stack = [] if type(config.term) is Var else [(config.term, 0, ())]
    while stack:
        node, depth, tail = stack.pop()
        path[depth:] = tail
        depth = len(path)
        kind = type(node)
        if kind is App or kind is Subst:
            # the top-level cases of _contractions: a substitution, or Beta's
            if kind is Subst or (beta and type(node.fun) is Abs):
                for rule, contracted in _contractions(node, calculus, beta):
                    if contracted is not None:
                        position = tuple(path)
                        yield TraceStep(RedexSite(position, rule),
                                        _rebuild(config, position, *contracted))
            if type(node.arg) is not Var:
                stack.append((node.arg, depth, (1,)))
            first = node.fun if kind is App else node.body
        else:  # Abs, Erase, Copy
            first = node.body
        if type(first) is not Var:
            stack.append((first, depth, (0,)))


def find_redexes(config: Configuration, calculus: str) -> list:
    """All redex sites, position-lexicographic then rule-alphabetical."""
    return [ts.site for ts in _redexes(config, calculus, True)]


def step(config: Configuration, site: RedexSite, calculus: str) -> Configuration:
    """``config`` with the redex at ``site`` contracted.

    Raises ValueError for an unknown calculus or a position that names no
    node, PatternMismatchError when the rule's left-hand side does not match
    there and SideConditionViolatedError when it matches but its condition
    fails.
    """
    if calculus not in RULES:
        raise ValueError(f"unknown calculus {calculus!r}")
    try:
        node = subterm_at(config.term, site.position)
    except IndexError as exc:
        raise ValueError(f"no node at {site.position}: {exc}") from None
    contractions = dict(_contractions(node, calculus, True))
    if site.rule not in contractions:
        raise PatternMismatchError(f"{site.rule} of {calculus} does not match "
                                   f"at {site.position}")
    contracted = contractions[site.rule]
    if contracted is None:
        raise SideConditionViolatedError(f"{site.rule} side condition fails "
                                         f"at {site.position}")
    return _rebuild(config, site.position, *contracted)


def _leftmost_outermost(config: Configuration, calculus: str, beta: bool,
                        fuel: int) -> Iterator[TraceStep]:
    """The leftmost-outermost steps to a normal form, ``Beta``'s only when
    ``beta``.  Raises FuelExhaustedError when a redex remains after ``fuel``
    steps."""
    while (ts := next(_redexes(config, calculus, beta), None)) is not None:
        if fuel <= 0:
            raise FuelExhaustedError("a redex remains when the fuel runs out")
        fuel -= 1
        yield ts
        config = ts.config


def sigma_walk(config: Configuration, calculus: str,
               fuel: int = FUEL) -> tuple[Configuration, int]:
    """The sigma-normal form of ``config`` and the number of leftmost-outermost
    sigma steps to it, within ``fuel`` steps."""
    steps = 0
    for ts in _leftmost_outermost(config, calculus, False, fuel):
        config = ts.config
        steps += 1
    return config, steps


def normalize_sigma(config: Configuration, calculus: str,
                    fuel: int = FUEL) -> Configuration:
    """Apply sigma rules leftmost-outermost to a sigma-normal form."""
    return sigma_walk(config, calculus, fuel)[0]


def reduce(config: Configuration, calculus: str, fuel: int = FUEL) -> list:
    """The leftmost-outermost trace to a normal form, as ``TraceStep``s."""
    return list(_leftmost_outermost(config, calculus, True, fuel))


@dataclass
class ReductionGraph:
    edges: dict = field(default_factory=dict)  # Configuration -> tuple[(site, Configuration)]
    complete: bool = True

    def sink_terms(self) -> set:
        return {c.term for c, succ in self.edges.items() if not succ}

    def steps(self) -> Iterator[tuple]:
        for src, succ in self.edges.items():
            for site, dst in succ:
                yield src, site, dst


def reduction_graph(config: Configuration, calculus: str,
                    fuel: int = FUEL) -> ReductionGraph:
    """Breadth-first exhaustive exploration of at most ``fuel``
    configurations; past them the graph is incomplete."""
    graph = ReductionGraph()
    frontier = [config]
    seen = {config}
    while frontier:
        nxt = []
        for c in frontier:
            succ = tuple((ts.site, ts.config)
                         for ts in _redexes(c, calculus, True))
            for _, d in succ:
                if d not in seen:
                    if len(seen) >= fuel:
                        graph.complete = False
                        continue
                    seen.add(d)
                    nxt.append(d)
            graph.edges[c] = succ
        frontier = nxt
    return graph


def trace_records(trace, calculus: str) -> list:
    """JSON-ready trace records: one per step."""
    records = []
    for i, ts in enumerate(trace):
        entry = {
            "step": i + 1,
            "rule": ts.site.rule,
            "position": list(ts.site.position),
            "term_printed": format_term(ts.config.term, labels=True),
            "erased_labels": sorted(
                _erased_label_text(t) for t in ts.config.erased
            ),
            "calculus": calculus,
        }
        records.append(entry)
    return records


def _erased_label_text(term: Term) -> str:
    label = label_of(term)
    return "(unlabelled)" if label is None else format_label(label)
