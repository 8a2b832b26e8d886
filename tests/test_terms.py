import pytest
from conftest import closed_lambda_terms
from hypothesis import given, settings

from goilab.calculus import LCA, LCF
from goilab.checks import _trace
from goilab.corpus import closed_terms, prepare
from goilab.terms import (Abs, App, Copy, Erase, FreshSupply, ParseError,
                          Subst, Var, alpha_equal, check_linear, compile_term,
                          erase_annotations, format_term, free_vars, parse,
                          parse_lambda, strip_labels, term_size)


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


def test_parse_extended_constructs():
    t = parse("eps[x].copy[y->u,v].(u v)[w/z]")
    assert t == Erase("x", Copy("y", "u", "v", Subst(App(Var("u"), Var("v")),
                                                     Var("w"), "z")))


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("\\x.")
    assert "at 3" in str(err.value)


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
            t = strip_labels(ts.config.term)
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


def test_compile_deterministic_and_preserves_meaning():
    for name, term in closed_terms(6):
        compiled = compile_term(term)
        assert check_linear(compiled) == [], name
        assert free_vars(compiled) == free_vars(term), name
        assert compile_term(term) == compiled, name
        assert alpha_equal(erase_annotations(compiled), term), name


def test_fresh_supply_avoids_used_names():
    supply = FreshSupply()
    supply.reserve({"x1"})
    assert supply.fresh("x") == "x2"


def test_term_size():
    assert term_size(parse_lambda("(\\x.x x) (\\x.x z)")) == 9
