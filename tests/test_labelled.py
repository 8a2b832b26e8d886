import pytest

from goilab.corpus import closed_terms, corpus
from goilab.labelled import (VariableNotFreeError, bullet, initialize,
                             label_of, var_label)
from goilab.labels import Atomic, atomic, concat, format_label
from goilab.terms import (Abs, App, Copy, Erase, Subst, Var, compile_term,
                          format_term, parse_lambda, relabel, strip_labels,
                          subterms)


def test_initialize_identity():
    t = initialize(parse_lambda("\\x.x"))
    assert t == Abs("x", Var("x", atomic("b")), atomic("a"))


def test_initialize_bare_variable():
    assert initialize(Var("x")) == Var("x", atomic("a"))


def test_initialize_atoms_match_labelled_node_count():
    # one distinct atom per variable/abstraction/application node
    compiled = compile_term(parse_lambda("(\\x.x x) (\\x.x z)"))
    t = initialize(compiled)
    labelled = [s for _, s in subterms(t) if isinstance(s, (Var, Abs, App))]
    atoms = [s.label[0].name for _, s in subterms(t)
             if isinstance(s, (Var, Abs, App))]
    assert len(labelled) == 9
    assert len(set(atoms)) == len(atoms) == 9
    for _, s in subterms(t):
        if isinstance(s, (Var, Abs, App)):
            assert len(s.label) == 1 and isinstance(s.label[0], Atomic)


def test_stripping_an_initialised_term_gives_it_back():
    for entry in corpus():
        assert strip_labels(initialize(entry.compiled)) == entry.compiled, entry.name


def test_relabel_calls_its_labeller_once_per_construct_in_preorder():
    term = Subst(App(Var("f"), Erase("y", Var("x"))), Abs("z", Var("z")), "f")
    calls = iter(range(10))
    labelled = relabel(term, lambda: atomic(str(next(calls))))
    assert [format_label(t.label) for _, t in subterms(labelled)
            if isinstance(t, (Var, Abs, App))] == ["0", "1", "2", "3", "4"]
    assert next(calls) == 5


def test_bullet_prefixes_nearest_label():
    beta = atomic("b")
    assert bullet(beta, Var("x", atomic("a"))) == Var("x", concat(beta, atomic("a")))
    inner = Abs("x", Var("x", atomic("a")), atomic("c"))
    assert bullet(beta, inner).label == concat(beta, atomic("c"))


def test_bullet_passes_through_bookkeeping_nodes():
    beta = atomic("b")
    t = Erase("y", Var("x", atomic("a")))
    assert bullet(beta, t) == Erase("y", Var("x", concat(beta, atomic("a"))))
    t = Copy("s", "u", "v", Var("x", atomic("a")))
    assert bullet(beta, t).body.label == concat(beta, atomic("a"))
    t = Subst(Var("x", atomic("a")), Var("y", atomic("c")), "x")
    out = bullet(beta, t)
    assert out.body.label == concat(beta, atomic("a"))
    assert out.arg.label == atomic("c")


def test_bullet_composition():
    a, b = atomic("a"), atomic("b")
    t = Var("x", atomic("c"))
    assert bullet(b, bullet(a, t)) == bullet(concat(b, a), t)


def test_label_of_display_rows():
    assert label_of(Var("x", atomic("a"))) == atomic("a")
    assert label_of(Erase("y", Var("x", atomic("a")))) == atomic("a")
    assert label_of(Subst(Var("x", atomic("a")), Var("y", atomic("b")), "x")) \
        == atomic("a")


def test_var_label_rows():
    assert var_label(Var("x", atomic("a")), "x") == atomic("a")
    t = App(Var("x", atomic("a")), Var("y", atomic("b")), atomic("c"))
    assert var_label(t, "y") == atomic("b")
    t = Subst(Var("z", atomic("a")), Var("x", atomic("b")), "z")
    assert var_label(t, "x") == atomic("b")
    with pytest.raises(VariableNotFreeError):
        var_label(Abs("x", Var("x", atomic("a")), atomic("b")), "x")


def test_initialized_corpus_prints_deterministically():
    for name, term in list(closed_terms(5))[:20]:
        t = initialize(compile_term(term))
        assert format_term(t, labels=True) == format_term(
            initialize(compile_term(term)), labels=True)
