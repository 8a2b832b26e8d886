import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import closed_lambda_terms, failure
from hypothesis import given, settings

from goilab.calculus import LCA, LCF, Configuration, reduction_graph
from goilab.checks import _trace
from goilab import checks, terms
from goilab.corpus import CLASSICS, closed_terms, corpus, prepare
from goilab.labels import atomic, format_label
from goilab.terms import (Abs, App, Copy, Erase, FreshSupply, ParseError,
                          Subst, Var, all_var_names, check_linear,
                          compile_term, format_term, free_vars, is_lambda_term,
                          nodes, parse, parse_lambda, relabel, rename_free,
                          subterms, term_size)


def test_parse_identity():
    assert parse_lambda("\\x.x") == Abs("x", Var("x"))


def test_parse_self_application_pair():
    got = parse_lambda("(\\x.x x) (\\x.x z)")
    want = App(Abs("x", App(Var("x"), Var("x"))),
               Abs("x", App(Var("x"), Var("z"))))
    assert got == want


def test_parse_k_combinator():
    assert parse_lambda("\\x.\\y.x") == Abs("x", Abs("y", Var("x")))


def test_parse_application_left_associative():
    assert parse_lambda("a b c") == App(App(Var("a"), Var("b")), Var("c"))


def test_an_abstraction_in_argument_position_takes_the_rest():
    # an abstraction met after a function extends as far right as it can
    assert parse_lambda("f \\x.x") == App(Var("f"), Abs("x", Var("x")))
    assert parse_lambda("a b \\c.c d") == App(
        App(Var("a"), Var("b")), Abs("c", App(Var("c"), Var("d"))))


def test_parse_extended_constructs():
    t = parse("eps[x].copy[y->u,v].(u v)[w/z]")
    assert t == Erase("x", Copy("y", "u", "v", Subst(App(Var("u"), Var("v")),
                                                     Var("w"), "z")))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("\\x.")
    assert "at 3" in str(err.value)


def test_parse_lambda_refuses_a_linear_construct():
    with pytest.raises(ParseError) as err:
        parse_lambda("eps[x].x")
    assert str(err.value) == "not a plain lambda term (at 0)"


def test_print_parse_round_trip():
    texts = ["\\x.\\y.eps[y].x", "(\\x.copy[x->x1,x2].x1 x2) (\\x.x z)",
             "x[y/z] w", "x (y z)", "(x01 x02)[m/x01]"]
    for text in texts:
        assert format_term(parse(text)) == text


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(max_size=12))
def test_unlabelled_trace_terms_of_random_terms_round_trip(term):
    # the parser reads no labels, so only unlabelled printing is covered
    entry = prepare("random", term)
    for calculus in (LCF, LCA):
        for ts in _trace(entry, calculus, 100) or ():
            t = relabel(ts.config.term, lambda: None)
            assert parse(format_term(t)) == t


def test_free_vars_table():
    assert free_vars(Var("x")) == {"x"}
    assert free_vars(Erase("y", Var("x"))) == {"x", "y"}
    assert free_vars(Abs("x", Var("x"))) == frozenset()
    assert free_vars(Copy("x", "u", "v", App(Var("u"), Var("v")))) == {"x"}
    assert free_vars(Subst(Var("x"), Var("y"), "x")) == {"y"}


def test_check_linear_accepts_compiled_example():
    assert check_linear(parse("\\x.\\y.eps[y].x")) == []


def test_check_linear_violations():
    bad = App(Var("x"), Var("x"))
    assert any("shares free variables" in msg for _, msg in check_linear(bad))
    bad = Copy("x", "y", "y", App(Var("y"), Var("y")))
    assert any("must differ" in msg for _, msg in check_linear(bad))
    bad = Subst(Var("x"), Var("y"), "z")
    assert any("not free in body" in msg for _, msg in check_linear(bad))


def test_compile_erases_unused_binder():
    assert format_term(compile_term(parse_lambda("\\x.\\y.x"))) == "\\x.\\y.eps[y].x"


def test_compile_duplicates_through_copy():
    got = format_term(compile_term(parse_lambda("(\\x.x x) (\\x.x z)")))
    assert got == "(\\x.copy[x->x1,x2].x1 x2) (\\x.x z)"


def test_compile_linear_term_unchanged():
    assert compile_term(parse_lambda("\\x.x")) == Abs("x", Var("x"))


def test_compile_triple_use_left_leaning_chain():
    got = format_term(compile_term(parse_lambda("\\x.x x x")))
    assert got == "\\x.copy[x->x1,x4].copy[x4->x2,x3].x1 x2 x3"


def test_compile_shared_free_variable():
    got = compile_term(parse_lambda("x x"))
    assert check_linear(got) == []
    assert free_vars(got) == {"x"}


def test_compile_rejects_a_term_that_is_not_plain_lambda():
    for text in ("eps[y].x", "\\x.x[y/z]", "\\x.copy[x->a,b].a b"):
        with pytest.raises(ValueError, match="plain lambda term"):
            compile_term(parse(text))


# --- criterion 1's failures --------------------------------------------------

# criterion 1's golden pairs as the strings they are written as
COMPILE_EXPECTED_TEXT = (
    ("\\x.\\y.x", "\\x.\\y.eps[y].x"),
    ("(\\x.x x) (\\x.x z)", "(\\x.copy[x->x1,x2].x1 x2) (\\x.x z)"),
)


def test_criterion_1_golden_terms_print_and_parse_as_their_strings():
    assert len(checks.COMPILE_EXPECTED) == len(COMPILE_EXPECTED_TEXT)
    for pair, texts in zip(checks.COMPILE_EXPECTED, COMPILE_EXPECTED_TEXT):
        assert tuple(map(format_term, pair)) == texts
        assert (parse_lambda(texts[0]), parse(texts[1])) == pair


def test_criterion_1_names_a_fixed_source_that_compiles_wrongly(monkeypatch):
    wrong, _ = checks.COMPILE_EXPECTED[0]  # left uncompiled, so its eps is missing

    def miscompiled(term):
        return wrong if term == wrong else compile_term(term)

    monkeypatch.setattr(checks, "compile_term", miscompiled)
    report = checks.check_compile_fidelity([prepare("id", parse_lambda("\\x.x"))])
    source, expected = COMPILE_EXPECTED_TEXT[0]
    assert report == {"ok": False, "failures_total": 1, "failures": [
        failure("miscompiled", source, detail=[source, expected])]}


def test_criterion_1_names_a_recompilation_that_renames_a_variable(monkeypatch):
    entry = prepare("dup", parse_lambda("\\x.x x"))
    assert format_term(entry.compiled) == "\\x.copy[x->x1,x2].x1 x2"
    renamed = parse("\\x.copy[x->x3,x2].x3 x2")  # as linear, with other names

    def recompiled(term):
        return renamed if term == entry.source else compile_term(term)

    monkeypatch.setattr(checks, "compile_term", recompiled)
    assert check_linear(renamed) == []
    report = checks.check_compile_fidelity([entry])
    assert report == {"ok": False, "failures_total": 1,
                      "failures": [failure("not deterministic", "dup")]}


def test_criterion_1_names_a_compiled_term_that_is_not_linear_or_moves_a_name():
    # \x.x x left uncompiled shares x, and \x.eps[x].y frees y; neither is
    # what the compiler makes, so both are not deterministic too
    dup = prepare("dup", parse_lambda("\\x.x x"))
    open_id = prepare("id", parse_lambda("\\x.x"))
    report = checks.check_compile_fidelity([
        dataclasses.replace(dup, compiled=dup.source),
        dataclasses.replace(open_id, compiled=parse("\\x.eps[x].y"))])
    assert report["failures"] == [
        failure("not linear", "dup",
                detail=[((0,), "application shares free variables ['x']")]),
        failure("not deterministic", "dup"),
        failure("free variables changed", "id"),
        failure("not deterministic", "id")]


def _debruijn(t, env=()):
    match t:
        case Var(name):
            return env.index(name) if name in env else ("free", name)
        case Abs(binder, body):
            return ("abs", _debruijn(body, (binder,) + env))
        case App(fun, arg):
            return ("app", _debruijn(fun, env), _debruijn(arg, env))
    raise AssertionError


def alpha_equal(a, b):
    """Alpha-equivalence of plain lambda terms."""
    return _debruijn(a) == _debruijn(b)


def erase_annotations(term):
    """Forget copy and erase nodes and labels, recovering a lambda term.
    A substitution raises ``ValueError``: undoing it would substitute
    under binders, which may capture."""
    match term:
        case Var(name, _):
            return Var(name)
        case Abs(binder, body, _):
            return Abs(binder, erase_annotations(body))
        case App(fun, arg, _):
            return App(erase_annotations(fun), erase_annotations(arg))
        case Erase(_, body):
            return erase_annotations(body)
        case Copy(source, left, right, body):
            body2 = erase_annotations(body)
            return rename_free(rename_free(body2, left, source), right, source)
        case Subst():
            raise ValueError("erase_annotations expects a term without substitutions")
    raise AssertionError


def test_compile_deterministic_and_preserves_meaning():
    for name, term in closed_terms(6):
        compiled = compile_term(term)
        assert check_linear(compiled) == [], name
        assert free_vars(compiled) == free_vars(term), name
        assert compile_term(term) == compiled, name
        assert alpha_equal(erase_annotations(compiled), term), name


def test_erase_annotations_refuses_a_substitution():
    # undoing (\y.x)[y/x] by substitution would capture y: \y.y
    with pytest.raises(ValueError, match="substitution"):
        erase_annotations(parse("(\\y.x)[y/x]"))


def test_fresh_supply_avoids_used_names():
    supply = FreshSupply()
    supply.reserve({"x1"})
    assert supply.fresh("x") == "x2"
    supply.reserve({"x4", "y1"})
    assert [supply.fresh("x"), supply.fresh("x"), supply.fresh("y")] == ["x3", "x5", "y2"]
    assert supply == FreshSupply({"x1", "x2", "x3", "x4", "x5", "y1", "y2"})
    assert repr(supply) == repr(FreshSupply(supply.used))


def test_term_size():
    assert term_size(parse_lambda("(\\x.x x) (\\x.x z)")) == 9


# --- compile_term, two walks -----------------------------------------------

def _reference_compile(term):
    """compile_term as it was first written: each binder's uses are counted
    in its compiled body and renamed apart one leftmost use at a time, with
    fresh names numbered from 1 on every call."""
    used = set(all_var_names(term))

    def fresh(base):
        i = 1
        while f"{base}{i}" in used:
            i += 1
        used.add(f"{base}{i}")
        return f"{base}{i}"

    def occurrences(t, name):
        match t:
            case Var(n):
                return 1 if n == name else 0
            case Abs(binder, body) | Erase(binder, body):
                return 0 if binder == name else occurrences(body, name)
            case Copy(source, left, right, body):
                if name in (left, right):
                    return 1 if source == name else 0
                return occurrences(body, name) + (1 if source == name else 0)
            case App(fun, arg):
                return occurrences(fun, name) + occurrences(arg, name)

    def rename_leftmost(t, name, new):
        match t:
            case Var(n, lab):
                return (Var(new, lab), True) if n == name else (t, False)
            case Abs(binder, body, lab):
                if binder == name:
                    return t, False
                body2, done = rename_leftmost(body, name, new)
                return Abs(binder, body2, lab), done
            case Erase(binder, body):
                if binder == name:
                    return t, False
                body2, done = rename_leftmost(body, name, new)
                return Erase(binder, body2), done
            case Copy(source, left, right, body):
                if source == name:
                    return Copy(new, left, right, body), True
                if name in (left, right):
                    return t, False
                body2, done = rename_leftmost(body, name, new)
                return Copy(source, left, right, body2), done
            case App(fun, arg, lab):
                fun2, done = rename_leftmost(fun, name, new)
                if done:
                    return App(fun2, arg, lab), True
                arg2, done = rename_leftmost(arg, name, new)
                return App(fun, arg2, lab), done

    def share(body, name):
        n = occurrences(body, name)
        if n == 0:
            return Erase(name, body)
        if n == 1:
            return body
        leaves = [fresh(name) for _ in range(n)]
        for leaf in leaves:
            body, done = rename_leftmost(body, name, leaf)
            assert done
        sources = [name] + [fresh(name) for _ in range(n - 2)] + leaves[-1:]
        for i in reversed(range(n - 1)):
            body = Copy(sources[i], leaves[i], sources[i + 1], body)
        return body

    def go(t):
        match t:
            case Var():
                return t
            case Abs(binder, body, lab):
                return Abs(binder, share(go(body), binder), lab)
            case App(fun, arg, lab):
                return App(go(fun), go(arg), lab)

    compiled = go(term)
    for name in sorted(free_vars(term)):
        compiled = share(compiled, name)
    return compiled


# open terms, shadowed binders, and binders named like the fresh names
OPEN_AND_SHADOWED = ["\\x.x (\\x.x x) x", "z z (\\z.z z)", "a b a (\\a.a a b) b",
                     "\\x1.x x1 (\\x.x x)", "x1 x x (\\x.x x x1)", "(\\x.x) x x",
                     "\\x.\\x.x x", "\\x2.\\x.x x x (x2 x2)", "y x y x"]


def test_compile_agrees_with_the_rename_leftmost_reference():
    sources = [term for _, term in closed_terms(8)]
    sources += [parse_lambda(text) for _, text in CLASSICS]
    sources += [parse_lambda(text) for text in OPEN_AND_SHADOWED]
    sources.append(relabel(sources[-1], iter(map(atomic, "abcdefghijk")).__next__))
    assert len(sources) > 700
    for term in sources:
        assert compile_term(term) == _reference_compile(term), format_term(term)


def _compile_line_events(uses):
    """Line events in ``goilab.terms`` while compiling ``\\x.x x ... x``."""
    term = parse_lambda("\\x." + " ".join(["x"] * uses))
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != terms.__file__:
            return None
        count += event == "line"
        return trace

    before = sys.gettrace()
    sys.settrace(trace)
    try:
        compile_term(term)
    finally:
        sys.settrace(before)
    return count


def test_compile_work_grows_linearly_in_a_binders_uses():
    # renaming one leftmost use at a time grew about 4x here
    assert _compile_line_events(400) <= 2.1 * _compile_line_events(200)


# --- check_linear, one pass ------------------------------------------------

def _check_linear_by_free_vars(term):
    """check_linear as it was first written: ``free_vars`` at every node."""
    violations = []
    for pos, t in subterms(term):
        match t:
            case Var():
                pass
            case Abs(binder, body):
                if binder not in free_vars(body):
                    violations.append((pos, f"abstraction binder {binder} unused in body"))
            case App(fun, arg):
                shared = free_vars(fun) & free_vars(arg)
                if shared:
                    violations.append((pos, f"application shares free variables {sorted(shared)}"))
            case Erase(binder, body):
                if binder in free_vars(body):
                    violations.append((pos, f"erased variable {binder} occurs in body"))
            case Copy(source, left, right, body):
                fv = free_vars(body)
                if left == right:
                    violations.append((pos, f"copy targets must differ, got {left} twice"))
                if source in fv:
                    violations.append((pos, f"copy source {source} already free in body"))
                if not {left, right} <= fv:
                    violations.append((pos, f"copy targets {left},{right} must be free in body"))
            case Subst(body, arg, target):
                fvb = free_vars(body)
                if target not in fvb:
                    violations.append((pos, f"substitution target {target} not free in body"))
                shared = (fvb - {target}) & free_vars(arg)
                if shared:
                    violations.append((pos, f"substitution shares free variables {sorted(shared)}"))
    return violations


BROKEN = [
    "\\x.(x x) (\\y.y)",                     # a shared variable
    "\\x.\\y.x",                              # an unused binder
    "copy[a->y,y].y y",                         # equal copy targets
    "copy[a->u,v].u",                           # a copy target unused
    "copy[u->u,v].u v",                         # a copy source free in body
    "x[y/z]",                                   # a missing substitution target
    "(x y)[x/y]",                               # a substitution sharing a variable
    "eps[x].\\y.x y",                          # an erased variable in the body
    "\\x.eps[x].(x[x/z] (\\x.x x)) (eps[q].q)",
]


def test_check_linear_reports_hand_broken_terms_as_before():
    for text in BROKEN:
        term = parse(text)
        assert check_linear(term) == _check_linear_by_free_vars(term) != [], text
    messages = {m for text in BROKEN for _, m in check_linear(parse(text))}
    for part in ("shares", "unused in body", "must differ", "must be free",
                 "already free", "not free in body", "occurs in body"):
        assert any(part in m for m in messages), part


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(max_size=12))
def test_check_linear_agrees_with_free_vars_at_every_node(term):
    entry = prepare("random", term)
    configs = [ts.config.term for calculus in (LCF, LCA)
               for ts in _trace(entry, calculus, 50) or ()]
    for t in (term, entry.compiled, entry.initial, *configs):
        assert check_linear(t) == _check_linear_by_free_vars(t)


# --- the walks: loops, as the recursions they replace ----------------------

def _reference_children(term):
    match term:
        case Var():
            return ()
        case Abs(_, body) | Erase(_, body) | Copy(_, _, _, body):
            return (body,)
        case App(first, second) | Subst(first, second, _):
            return (first, second)


def _reference_subterms(term, position=()):
    yield position, term
    for i, c in enumerate(_reference_children(term)):
        yield from _reference_subterms(c, position + (i,))


def _reference_term_size(term):
    return 1 + sum(_reference_term_size(c) for c in _reference_children(term))


def _reference_free_vars(term):
    match term:
        case Var(name):
            return frozenset((name,))
        case Abs(binder, body):
            return _reference_free_vars(body) - {binder}
        case App(fun, arg):
            return _reference_free_vars(fun) | _reference_free_vars(arg)
        case Erase(binder, body):
            return _reference_free_vars(body) | {binder}
        case Copy(source, left, right, body):
            return (_reference_free_vars(body) - {left, right}) | {source}
        case Subst(body, arg, target):
            return (_reference_free_vars(body) - {target}) | _reference_free_vars(arg)


def _reference_relabel(term, label_for):
    match term:
        case Var(name):
            return Var(name, label_for())
        case Abs(binder, body):
            label = label_for()
            return Abs(binder, _reference_relabel(body, label_for), label)
        case App(fun, arg):
            label = label_for()
            return App(_reference_relabel(fun, label_for),
                       _reference_relabel(arg, label_for), label)
        case Erase(binder, body):
            return Erase(binder, _reference_relabel(body, label_for))
        case Copy(source, left, right, body):
            return Copy(source, left, right, _reference_relabel(body, label_for))
        case Subst(body, arg, target):
            return Subst(_reference_relabel(body, label_for),
                         _reference_relabel(arg, label_for), target)


def _numbering():
    """A labeller that numbers the constructs it is called for."""
    numbers = iter(range(1 << 30))
    return lambda: atomic(str(next(numbers)))


def test_the_walks_agree_with_their_recursive_references():
    entries = corpus(6)
    terms = [entry.source for entry in entries]  # plain, and not linear
    for calculus in (LCF, LCA):
        for entry in entries:
            graph = reduction_graph(Configuration(entry.initial), calculus)
            terms.extend(c.term for c in graph.edges)
    assert len(terms) > 400
    for term in terms:
        walk = list(subterms(term))
        assert walk == list(_reference_subterms(term))
        assert list(map(id, nodes(term))) == [id(t) for _, t in walk]
        for _, t in walk:
            assert term_size(t) == _reference_term_size(t)
            assert free_vars(t) == _reference_free_vars(t)
            assert type(free_vars(t)) is frozenset
        assert relabel(term, _numbering()) == _reference_relabel(term, _numbering())


def _reference_format_term(term, labels=False):
    def printed_self_contained(t):
        return labels and isinstance(t, (Abs, App)) and t.label is not None

    def sup(label):
        return "^{" + format_label(label) + "}" if labels and label is not None else ""

    def fmt(t):
        match t:
            case Var(name, label):
                return name + sup(label)
            case Abs(binder, body, label):
                core = f"\\{binder}.{fmt(body)}"
                return f"({core})" + sup(label) if labels and label is not None else core
            case App(fun, arg, label):
                f = fmt(fun)
                if isinstance(fun, (Abs, Erase, Copy)) and not printed_self_contained(fun):
                    f = f"({f})"
                a = fmt(arg)
                if isinstance(arg, (App, Abs, Erase, Copy)) and not printed_self_contained(arg):
                    a = f"({a})"
                core = f"{f} {a}"
                return f"({core})" + sup(label) if labels and label is not None else core
            case Erase(binder, body):
                return f"eps[{binder}].{fmt(body)}"
            case Copy(source, left, right, body):
                return f"copy[{source}->{left},{right}].{fmt(body)}"
            case Subst(body, arg, target):
                b = fmt(body)
                if isinstance(body, (App, Abs, Erase, Copy)) and not printed_self_contained(body):
                    b = f"({b})"
                return f"{b}[{fmt(arg)}/{target}]"

    return fmt(term)


def test_format_term_prints_as_its_recursive_reference():
    configs = [c for entry in corpus(7) for calculus in (LCF, LCA)
               for c in reduction_graph(Configuration(entry.initial), calculus).edges]
    assert len(configs) > 700
    assert {type(t) for c in configs for _, t in subterms(c.term)} == {
        Var, Abs, App, Erase, Copy, Subst}
    for config in configs:
        for labels in (False, True):
            assert format_term(config.term, labels) == \
                _reference_format_term(config.term, labels)


def test_a_deep_term_prints_without_recursion():
    # (\z0.z0) (\z1.z1) ... (\z5000.z5000), left-nested, and 5,000 labelled
    # abstractions nested to the right
    chain = Abs("z0", Var("z0"))
    for i in range(1, 5001):
        chain = App(chain, Abs(f"z{i}", Var(f"z{i}")))
    assert format_term(chain) == " ".join(f"(\\z{i}.z{i})" for i in range(5001))
    nested = Var("x", atomic("a"))
    for _ in range(5000):
        nested = Abs("x", nested, atomic("b"))
    assert format_term(nested, labels=True) == \
        "(\\x." * 5000 + "x^{a}" + ")^{b}" * 5000
    assert format_term(nested) == "\\x." * 5000 + "x"


def test_a_deep_term_is_walked_without_recursion():
    def chain(innermost):
        term = innermost
        for i in range(1, 5001):
            term = App(term, Var(f"x{i}"))
        return term

    term = chain(Var("x0"))
    count = 0
    for last in subterms(term):
        count += 1
    assert count == 10_001
    assert last == ((1,), Var("x5000"))
    assert term_size(term) == 10_001
    assert free_vars(term) == {f"x{i}" for i in range(5001)}
    assert is_lambda_term(term)
    assert not is_lambda_term(chain(Erase("x0", Var("x0"))))


def test_a_binder_used_5000_times_compiles_without_recursion():
    # a left-nested chain of 5,000 applications under one binder, split by a
    # chain of 4,999 copies once compiled
    term = parse_lambda("\\x0." + " ".join(["x0"] * 5000))
    compiled = compile_term(term)
    assert check_linear(compiled) == []
    assert sum(type(t) is Copy for _, t in subterms(compiled)) == 4999
    assert term_size(compiled) == 1 + 4999 + 9999


def test_check_linear_walks_a_deep_chain_with_one_shared_variable():
    # the application taking the 2,500th argument, 2,500 applications below
    # the root, finds the innermost variable on both sides
    term = Var("x0")
    for i in range(1, 5001):
        term = App(term, Var("x0" if i == 2500 else f"x{i}"))
    assert check_linear(term) == [
        ((0,) * 2500, "application shares free variables ['x0']")]
    assert check_linear(App(term, Var("y"))) == [
        ((0,) * 2501, "application shares free variables ['x0']")]


# --- term nodes: hashed once, slotted --------------------------------------

NODE_TEXT = "\\a.eps[x].copy[y->u,v].(u v)[w/z]"


def _labelled_node():
    return App(Abs("x", Var("x", atomic("d")), atomic("a")),
               Subst(Var("y", atomic("e")), Var("z"), "y"), atomic("c"))


def test_equal_nodes_built_apart_hash_equal():
    for build in (lambda: parse(NODE_TEXT), _labelled_node):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        for (_, x), (_, y) in zip(subterms(a), subterms(b)):
            assert hash(x) == hash(y)


def test_hashing_changes_neither_equality_nor_repr():
    fresh, hashed = _labelled_node(), _labelled_node()
    before = repr(hashed)
    hash(hashed)
    assert repr(hashed) == before == repr(fresh)
    assert hashed == fresh and fresh == hashed
    assert hashed != parse(NODE_TEXT)


def test_copies_and_pickles_compare_equal_without_the_cached_hash():
    for node in (parse(NODE_TEXT), _labelled_node()):
        hash(node)
        for again in (copy.copy(node), copy.deepcopy(node),
                      pickle.loads(pickle.dumps(node))):
            assert again == node and repr(again) == repr(node)
            assert not hasattr(again, "_hash")  # rebuilt from its fields
            assert hash(again) == hash(node)


TERM_CLASSES = (Var, Abs, App, Erase, Copy, Subst)


def _left_chain(depth):
    """``(\\z0.z0) (\\z1.z1) ... (\\zn.zn)``, built bottom up."""
    chain = Abs("z0", Var("z0"))
    for i in range(1, depth):
        chain = App(chain, Abs(f"z{i}", Var(f"z{i}")))
    return chain


def _right_nested(depth):
    """``\\x0.\\x1. ... \\xn.y``, built bottom up."""
    term = Var("y")
    for i in reversed(range(depth)):
        term = Abs(f"x{i}", term)
    return term


@pytest.mark.parametrize("build", [_left_chain, _right_nested])
def test_a_term_5000_deep_hashes_without_recursion(build):
    # the first hash walks the unhashed nodes on its own stack; the
    # dataclass hash alone recursed once per level and overflowed at 400
    a, b = build(5000), build(5000)
    assert hash(a) == hash(b)
    node = a
    for _ in range(4990):
        node = node.fun if type(node) is App else node.body
    assert hash(node) == hash(copy.deepcopy(node)) == _field_hash(node)


class _Hashed:
    """Stands for a value whose hash is ``value``."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def _field_hash(term):
    """The dataclass's hash of a term's compared fields, taken recursively:
    the hash a term had before the first hash became a loop."""
    return hash(tuple(_Hashed(_field_hash(v)) if isinstance(v, TERM_CLASSES) else v
                      for v in (getattr(term, f.name) for f in dataclasses.fields(term)
                                if f.compare)))


def test_graph_configurations_hash_as_their_fields_do():
    # the loop stores the hash the recursion gave, so dict and set orders,
    # and every report built from them, are unchanged
    configs = 0
    for entry in corpus(8):
        for calc in (LCF, LCA):
            for config in reduction_graph(Configuration(entry.initial), calc).edges:
                erased = frozenset(_Hashed(_field_hash(t)) for t in config.erased)
                want = hash((_Hashed(_field_hash(config.term)), erased))
                assert hash(config) == want
                configs += 1
    assert configs > 2000


def _deepest_leaf_replaced(term, leaf):
    """``term`` with the variable at the end of its first-child spine
    replaced by ``leaf``."""
    position = []
    node = term
    while type(node) is not Var:
        node = node.fun if type(node) is App else node.body
        position.append(0)
    return terms.replace_at(term, tuple(position), leaf)


@pytest.mark.parametrize("build", [_left_chain, _right_nested])
def test_terms_5000_deep_compare_without_recursion(build):
    # == walks node pairs on its own stack; the dataclass's == recursed once
    # per level and overflowed at 400
    a, b = build(5000), build(5000)
    assert a == b and not a != b
    other = _deepest_leaf_replaced(b, Var("w"))
    assert a != other and not a == other
    assert _deepest_leaf_replaced(b, Var("w")) == other


def test_terms_of_different_classes_leave_the_comparison_to_the_other_side():
    var, app = Var("x"), App(Var("x"), Var("y"))
    assert var.__eq__(app) is NotImplemented and app.__eq__(1) is NotImplemented
    assert app != Subst(Var("x"), Var("y"), "z") and var != "x"


def _field_equal(a, b):
    """The dataclass's == of two terms' compared fields, taken recursively:
    the comparison terms had before == became a loop."""
    return type(a) is type(b) and all(
        _field_equal(x, y) if isinstance(x, TERM_CLASSES) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name))
                     for f in dataclasses.fields(a) if f.compare))


def test_graph_configurations_compare_as_their_fields_do():
    # every pair of one graph's terms, as built, sharing subterms, and
    # against copies that share none
    pairs = equal = total = 0
    for entry in corpus(8):
        for calc in (LCF, LCA):
            configs = list(reduction_graph(Configuration(entry.initial), calc).edges)
            total += len(configs)
            built = [config.term for config in configs]
            copied = [copy.deepcopy(term) for term in built]
            for a in built:
                for b in built + copied:
                    assert (a == b) == _field_equal(a, b)
                    pairs += 1
                    equal += a == b
            for c1 in configs:
                for c2 in configs:
                    assert (c1 == c2) == (_field_equal(c1.term, c2.term)
                                          and c1.erased == c2.erased)
    assert pairs > 35_000 and equal >= 2 * total


def test_a_pickle_hashes_like_a_node_built_in_another_process(tmp_path):
    # str hashes differ between processes, so a pickled node must not bring
    # along the hash it was given where it was made
    path = str(tmp_path / "node.pickle")
    build = ("import pickle\n"
             "from goilab.labels import atomic\n"
             "from goilab.terms import Abs, App, Var\n"
             "node = App(Abs('x', Var('x', atomic('d')), atomic('a')),"
             " Var('y', atomic('e')), atomic('c'))\n")

    def run(seed, code):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        return subprocess.run([sys.executable, "-c", build + code], env=env,
                              check=True, capture_output=True, text=True).stdout

    made = run("1", f"print(hash(node)); open({path!r}, 'wb').write(pickle.dumps(node))")
    loaded = run("2", f"loaded = pickle.loads(open({path!r}, 'rb').read())\n"
                      "assert loaded == node and hash(loaded) == hash(node)\n"
                      "print(hash(loaded))")
    assert loaded != made  # the two processes hash str differently
