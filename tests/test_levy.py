from goilab.calculus import FuelExhaustedError
from goilab.labelled import initialize, label_of
from goilab.labels import atomic, format_label
from goilab.levy import (NoRedexAtPositionError, levy_normalize, levy_redexes,
                         levy_step, meta_substitute)
from goilab.terms import (Abs, App, FreshSupply, Var, format_term,
                          parse_lambda)
from goilab.corpus import closed_terms

import pytest


def _identity_application():
    return App(Abs("x", Var("x", atomic("d")), atomic("a")),
               Abs("y", Var("y", atomic("e")), atomic("b")),
               atomic("c"))


def test_meta_substitution_rows():
    supply = FreshSupply()
    n = Var("n", atomic("k"))
    # a hit prefixes the substituted term with the variable's label
    assert meta_substitute(Var("x", atomic("a")), "x", n, supply) == \
        Var("n", (atomic("a") + atomic("k")))
    # a miss leaves the variable alone
    assert meta_substitute(Var("y", atomic("a")), "x", n, supply) == \
        Var("y", atomic("a"))


def test_meta_substitution_capture_avoiding():
    supply = FreshSupply(used={"x", "y"})
    body = Abs("y", App(Var("x", atomic("a")), Var("y", atomic("b")), atomic("c")),
               atomic("d"))
    value = Var("y", atomic("e"))
    out = meta_substitute(body, "x", value, supply)
    assert out.binder != "y"  # bound variable renamed apart


def test_levy_identity_application():
    out = levy_step(_identity_application())
    assert format_term(out, labels=True) == "(\\y.y^{e})^{c.<(a)>.d._(a).b}"


def test_levy_no_redex():
    with pytest.raises(NoRedexAtPositionError):
        levy_step(Var("x", atomic("a")))


def test_levy_triple_identity_first_atom_survives():
    t = initialize(parse_lambda("(\\x.x) (\\y.y) (\\z.z)"))
    root = label_of(t)[0]
    nf = levy_normalize(t)
    assert levy_redexes(nf) == []
    assert label_of(nf)[0] == root


def test_fuel_equal_to_the_step_count_is_enough():
    # two Beta steps normalise the triple identity, and a normal form needs
    # no fuel, as under ``reduce``
    t = initialize(parse_lambda("(\\x.x) (\\y.y) (\\z.z)"))
    nf = levy_normalize(t, fuel=2)
    assert levy_redexes(nf) == []
    assert levy_normalize(nf, fuel=0) == nf
    with pytest.raises(FuelExhaustedError):
        levy_normalize(t, fuel=1)


def test_levy_confluence_small_corpus():
    # exhaustive reduction graphs of small closed terms reach a unique
    # labelled normal form
    for name, term in closed_terms(6):
        init = initialize(term)
        seen = {init}
        frontier = [init]
        normal_forms = set()
        while frontier:
            nxt = []
            for t in frontier:
                redexes = levy_redexes(t)
                if not redexes:
                    normal_forms.add(format_term(t, labels=True))
                    continue
                for pos in redexes:
                    u = levy_step(t, pos)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
            assert len(seen) < 4000, name
        assert len(normal_forms) == 1, name
