
import sys

from goilab.corpus import closed_terms, corpus, prepare
from goilab.labelled import bullet, initialize, label_of, with_label
from goilab.labels import Atomic, atomic, concat, format_label
from goilab.terms import (Abs, App, Copy, Erase, Subst, Var, compile_term,
                          format_term, parse_lambda, relabel, subterms)


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
        assert relabel(initialize(entry.compiled), lambda: None) == entry.compiled, \
            entry.name


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


def test_deep_terms_are_prepared_and_prefixed_without_recursion():
    # 5,000 deep, past the default recursion limit: a left-nested chain of
    # identities, a right-nested abstraction, and a free name used 5,000
    # times, which compiles to 4,999 copies over a chain of applications.
    # Relabelling, label lookup and prefixing are loops, so each goes
    # through; they have no memo and leave the recursion limit alone
    n = 5000
    assert sys.getrecursionlimit() < n
    chain = Abs("z0", Var("z0"))
    for i in range(1, n):
        chain = App(chain, Abs(f"z{i}", Var(f"z{i}")))
    nested = Var("x0")
    for i in reversed(range(n)):
        nested = Abs(f"x{i}", nested)
    shared = Var("x")
    for _ in range(n - 1):
        shared = App(shared, Var("x"))
    prefix = atomic("p")
    for name, source, constructs in (("chain", chain, 3 * n - 1),
                                     ("nested", nested, n + 1),
                                     ("shared", shared, 2 * n - 1)):
        entry = prepare(name, source)
        assert entry.root_atom == "a" and len(entry.atom_classes) == constructs
        assert relabel(entry.initial, lambda: None) == entry.compiled
        marked = bullet(prefix, entry.initial)
        assert label_of(marked) == concat(prefix, atomic("a"))
        assert with_label(marked, atomic("a")) == entry.initial
    copies = 0
    while isinstance(marked, Copy):
        marked, copies = marked.body, copies + 1
    assert copies == n - 1 and marked.label == concat(prefix, atomic("a"))


def test_bullet_composition():
    a, b = atomic("a"), atomic("b")
    t = Var("x", atomic("c"))
    assert bullet(b, bullet(a, t)) == bullet(concat(b, a), t)


def test_label_of_display_rows():
    assert label_of(Var("x", atomic("a"))) == atomic("a")
    assert label_of(Erase("y", Var("x", atomic("a")))) == atomic("a")
    assert label_of(Subst(Var("x", atomic("a")), Var("y", atomic("b")), "x")) \
        == atomic("a")


def test_label_of_an_unlabelled_construct_is_none():
    for t in (Var("x"), Erase("y", Var("x")), Copy("s", "u", "v", Abs("x", Var("x"))),
              Subst(App(Var("x"), Var("z")), Var("y", atomic("b")), "x")):
        assert label_of(t) is None, t
    assert bullet(atomic("b"), Erase("y", Var("x"))) == Erase("y", Var("x"))


def test_with_label_rows():
    a, b = atomic("a"), atomic("b")
    assert with_label(Var("x"), a) == Var("x", a)
    assert with_label(Abs("x", Var("x", b), a), b) == Abs("x", Var("x", b), b)
    assert with_label(App(Var("f"), Var("x"), a), None) == App(Var("f"), Var("x"))
    assert with_label(Erase("y", Var("x", a)), b) == Erase("y", Var("x", b))
    t = Copy("s", "u", "v", Subst(Var("x"), Var("y", a), "x"))
    assert with_label(t, b) == Copy("s", "u", "v", Subst(Var("x", b), Var("y", a), "x"))
    assert label_of(with_label(t, b)) == b


def test_initialized_corpus_prints_deterministically():
    for name, term in list(closed_terms(5))[:20]:
        t = initialize(compile_term(term))
        assert format_term(t, labels=True) == format_term(
            initialize(compile_term(term)), labels=True)
