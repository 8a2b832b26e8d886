"""The labelled calculi of closed functions (lcf) and closed arguments (lca).

Both systems rewrite pairs (term, B) where B collects erased, W-marked
arguments.  Rules fire under any context; sites are ordered position-first
(preorder) and rule-name-alphabetical for reproducible traces.  One lazy
generator, ``_redexes``, contracts each redex in that order with one
``_apply_rule`` call; the reduction graph and the leftmost-outermost walk
of ``reduce`` and ``sigma_walk`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .labels import LEFT, RIGHT, concat, format_label, mark, over, reverse, under
from .labelled import UnlabelledTermError, bullet, label_of
from .terms import (Abs, App, Copy, Erase, Subst, Term, Var, format_term,
                    free_vars, replace_at, subterm_at, subterms, term_size)

LCF = "lcf"
LCA = "lca"

RULES = {
    LCF: ("App1", "App2", "Beta", "Cmp", "Cpy1", "Cpy2", "Ers1", "Ers2", "Lam", "Var"),
    LCA: ("App1", "App2", "Beta", "Cpy1", "Cpy2", "Ers1", "Ers2", "Lam", "Var"),
}

SIGMA_RULES = {
    LCF: tuple(r for r in RULES[LCF] if r != "Beta"),
    LCA: tuple(r for r in RULES[LCA] if r != "Beta"),
}


class PatternMismatchError(Exception):
    pass


class SideConditionViolatedError(Exception):
    pass


class FuelExhaustedError(Exception):
    pass


@dataclass(frozen=True)
class Configuration:
    term: Term
    erased: frozenset = frozenset()


@dataclass(frozen=True)
class RedexSite:
    position: tuple
    rule: str


@dataclass(frozen=True)
class TraceStep:
    site: RedexSite
    config: Configuration


def _apply_rule(node: Term, rule: str, calculus: str):
    """Apply ``rule`` at ``node``.  Returns (new_node, erased_term | None).

    Raises PatternMismatchError when the left-hand side does not match and
    SideConditionViolatedError when it matches but the condition fails.
    """
    if calculus not in RULES:
        raise ValueError(f"unknown calculus {calculus!r}")
    if rule not in RULES[calculus]:
        raise PatternMismatchError(f"rule {rule} not in {calculus}")

    if rule == "Beta":
        if not (isinstance(node, App) and isinstance(node.fun, Abs)):
            raise PatternMismatchError("Beta needs an applied abstraction")
        fun, arg, beta = node.fun, node.arg, node.label
        alpha = fun.label
        if calculus == LCF:
            if free_vars(fun):
                raise SideConditionViolatedError("function part is not closed")
        elif free_vars(arg):
            raise SideConditionViolatedError("argument part is not closed")
        if alpha is None or beta is None:
            return Subst(fun.body, arg, fun.binder), None
        if calculus == LCF:
            block = concat(mark(RIGHT, "D"), alpha, mark(LEFT, "!"))
            outer = concat(beta, over(block))
            inner = under(reverse(block))
        else:
            outer = concat(beta, over(alpha))
            inner = concat(under(reverse(alpha)), mark(LEFT, "!"))
        return bullet(outer, Subst(fun.body, bullet(inner, arg), fun.binder)), None

    if not isinstance(node, Subst):
        raise PatternMismatchError(f"{rule} rewrites a substitution")
    body, arg, x = node.body, node.arg, node.target

    if rule == "Lam":
        if not isinstance(body, Abs):
            raise PatternMismatchError("Lam needs an abstraction body")
        if calculus == LCF:
            if free_vars(arg):
                raise SideConditionViolatedError("Lam needs a closed argument")
            marked = bullet(mark(RIGHT, "?"), arg)
        else:
            marked = arg
        return Abs(body.binder, Subst(body.body, marked, x), body.label), None

    if rule in ("App1", "App2"):
        if not isinstance(body, App):
            raise PatternMismatchError("App1/App2 need an application body")
        in_fun = x in free_vars(body.fun)
        if rule == "App1":
            if not in_fun:
                raise SideConditionViolatedError(f"{x} not free in function part")
            return App(Subst(body.fun, arg, x), body.arg, body.label), None
        if in_fun or x not in free_vars(body.arg):
            raise SideConditionViolatedError(f"{x} not free in argument part")
        marked = bullet(mark(RIGHT, "?"), arg) if calculus == LCA else arg
        return App(body.fun, Subst(body.arg, marked, x), body.label), None

    if rule in ("Cpy1", "Cpy2"):
        if not isinstance(body, Copy):
            raise PatternMismatchError("Cpy1/Cpy2 need a copy body")
        if rule == "Cpy1":
            if body.source != x:
                raise PatternMismatchError("Cpy1 needs the substituted source")
            if calculus == LCF and free_vars(arg):
                raise SideConditionViolatedError("Cpy1 needs a closed argument")
            inner = Subst(body.body, bullet(mark(RIGHT, "R"), arg), body.left)
            return Subst(inner, bullet(mark(RIGHT, "S"), arg), body.right), None
        if body.source == x:
            raise PatternMismatchError("Cpy2 needs an independent substitution")
        return Copy(body.source, body.left, body.right, Subst(body.body, arg, x)), None

    if rule in ("Ers1", "Ers2"):
        if not isinstance(body, Erase):
            raise PatternMismatchError("Ers1/Ers2 need an erase body")
        if rule == "Ers1":
            if body.binder != x:
                raise PatternMismatchError("Ers1 needs the substituted binder")
            if calculus == LCF and free_vars(arg):
                raise SideConditionViolatedError("Ers1 needs a closed argument")
            return body.body, bullet(mark(RIGHT, "W"), arg)
        if body.binder == x:
            raise PatternMismatchError("Ers2 needs an independent substitution")
        return Erase(body.binder, Subst(body.body, arg, x)), None

    if rule == "Var":
        if not (isinstance(body, Var) and body.name == x):
            raise PatternMismatchError("Var needs the substituted variable")
        if body.label is None:
            return arg, None
        prefix = body.label
        if calculus == LCA:
            prefix = concat(prefix, mark(RIGHT, "D"))
        return bullet(prefix, arg), None

    if rule == "Cmp":
        if not isinstance(body, Subst):
            raise PatternMismatchError("Cmp needs a nested substitution")
        if x not in free_vars(body.arg):
            raise SideConditionViolatedError(f"{x} not free in inner argument")
        return Subst(body.body, Subst(body.arg, arg, x), body.target), None

    raise AssertionError(rule)


# rules whose left-hand side fits a substitution, by the kind of its body
_SUBST_RULES = {Abs: ("Lam",), App: ("App1", "App2"), Copy: ("Cpy1", "Cpy2"),
                Erase: ("Ers1", "Ers2"), Var: ("Var",), Subst: ("Cmp",)}


def _candidate_rules(node: Term) -> tuple:
    """The rules, alphabetically, whose left-hand side fits ``node``'s kind."""
    if isinstance(node, Subst):
        return _SUBST_RULES[type(node.body)]
    if isinstance(node, App) and isinstance(node.fun, Abs):
        return ("Beta",)
    return ()


def _rebuild(config: Configuration, position: tuple, new_node: Term,
             erased: Optional[Term]) -> Configuration:
    """``config`` after an ``_apply_rule`` at ``position`` gave these."""
    term = replace_at(config.term, position, new_node)
    bag = config.erased | {erased} if erased is not None else config.erased
    return Configuration(term, bag)


def _redexes(config: Configuration, calculus: str, rules: tuple) -> Iterator[TraceStep]:
    """Each redex of ``config`` under ``rules`` with its contracted
    configuration, position-lexicographic then rule-alphabetical.  Lazy:
    the first item contracts the leftmost-outermost redex only."""
    for pos, node in subterms(config.term):
        for rule in _candidate_rules(node):
            if rule not in rules:
                continue
            try:
                contracted = _apply_rule(node, rule, calculus)
            except (PatternMismatchError, SideConditionViolatedError):
                continue
            yield TraceStep(RedexSite(pos, rule), _rebuild(config, pos, *contracted))


def find_redexes(config: Configuration, calculus: str,
                 rules: Optional[tuple] = None) -> list:
    """All redex sites, position-lexicographic then rule-alphabetical."""
    return [ts.site for ts in _redexes(config, calculus, rules or RULES[calculus])]


def step(config: Configuration, site: RedexSite, calculus: str) -> Configuration:
    node = subterm_at(config.term, site.position)
    return _rebuild(config, site.position, *_apply_rule(node, site.rule, calculus))


def default_sigma_fuel(term: Term) -> int:
    return 10 * term_size(term) ** 2


def _leftmost_outermost(config: Configuration, calculus: str, rules: tuple,
                        fuel: int) -> Iterator[TraceStep]:
    """The leftmost-outermost steps under ``rules`` to a normal form.
    Raises FuelExhaustedError when a redex remains after ``fuel`` steps."""
    while (ts := next(_redexes(config, calculus, rules), None)) is not None:
        if fuel <= 0:
            raise FuelExhaustedError("a redex remains when the fuel runs out")
        fuel -= 1
        yield ts
        config = ts.config


def sigma_walk(config: Configuration, calculus: str,
               fuel: Optional[int] = None) -> tuple[Configuration, int]:
    """The sigma-normal form of ``config`` and the number of leftmost-outermost
    sigma steps to it.  ``fuel`` defaults to ``default_sigma_fuel``."""
    if fuel is None:
        fuel = default_sigma_fuel(config.term)
    steps = 0
    for ts in _leftmost_outermost(config, calculus, SIGMA_RULES[calculus], fuel):
        config = ts.config
        steps += 1
    return config, steps


def normalize_sigma(config: Configuration, calculus: str,
                    fuel: Optional[int] = None) -> Configuration:
    """Apply sigma rules leftmost-outermost to a sigma-normal form."""
    return sigma_walk(config, calculus, fuel)[0]


def reduce(config: Configuration, calculus: str, fuel: int = 10_000) -> list:
    """The leftmost-outermost trace to a normal form, as ``TraceStep``s."""
    return list(_leftmost_outermost(config, calculus, RULES[calculus], fuel))


@dataclass
class ReductionGraph:
    initial: Configuration
    edges: dict = field(default_factory=dict)  # Configuration -> tuple[(site, Configuration)]
    complete: bool = True

    @property
    def configs(self):
        return self.edges.keys()

    def normal_forms(self) -> list:
        return [c for c, succ in self.edges.items() if not succ]

    def sink_terms(self) -> set:
        return {c.term for c in self.normal_forms()}

    def steps(self) -> Iterator[tuple]:
        for src, succ in self.edges.items():
            for site, dst in succ:
                yield src, site, dst


def reduction_graph(config: Configuration, calculus: str,
                    max_configs: int = 10_000) -> ReductionGraph:
    """Breadth-first exhaustive exploration, bounded by a configuration budget."""
    graph = ReductionGraph(config)
    frontier = [config]
    seen = {config}
    while frontier:
        nxt = []
        for c in frontier:
            succ = tuple((ts.site, ts.config)
                         for ts in _redexes(c, calculus, RULES[calculus]))
            for _, d in succ:
                if d not in seen:
                    if len(seen) >= max_configs:
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
    try:
        return format_label(label_of(term))
    except UnlabelledTermError:
        return "(unlabelled)"
