import dataclasses
import re

import pytest
from conftest import closed_lambda_terms, failure
from hypothesis import given, settings

from goilab import calculus, checks
from goilab.calculus import (LCA, LCF, RULES, Configuration,
                             FuelExhaustedError, PatternMismatchError,
                             FUEL, RedexSite, SideConditionViolatedError,
                             TraceStep, find_redexes, normalize_sigma, reduce,
                             reduction_graph, sigma_walk, step, trace_records)
from goilab.checks import (_trace, _trace_sigma_nfs, check_confluence,
                           check_goi_end_to_end, check_label_lemmas,
                           check_propagation, check_sigma_termination,
                           check_weight_invariance)
from goilab.corpus import closed_terms, corpus, prepare
from goilab.labelled import initialize, label_of, with_label
from goilab.labels import LEFT, RIGHT, Marker, atomic, format_label, mark
from goilab.terms import (Abs, App, Copy, Erase, Subst, Var, check_linear,
                          compile_term, format_term, free_vars, parse,
                          parse_lambda, relabel, subterm_at, subterms, term_size)


def identity_application():
    return App(Abs("x", Var("x", atomic("d")), atomic("a")),
               Abs("y", Var("y", atomic("e")), atomic("b")),
               atomic("c"))


def printed(config):
    return format_term(config.term, labels=True)


# --- Beta ------------------------------------------------------------------

def test_beta_lcf_identity_markers():
    config = Configuration(identity_application())
    site = RedexSite((), "Beta")
    out = step(config, site, LCF)
    assert printed(out) == "x^{c.<(D>.a.<!)>.d}[(\\y.y^{e})^{_(!>.a.<D).b}/x]"
    out = step(out, RedexSite((), "Var"), LCF)
    assert printed(out) == "(\\y.y^{e})^{c.<(D>.a.<!)>.d._(!>.a.<D).b}"


def test_beta_lca_identity_markers():
    config = Configuration(identity_application())
    out = step(config, RedexSite((), "Beta"), LCA)
    assert printed(out) == "x^{c.<(a)>.d}[(\\y.y^{e})^{_(a).<!.b}/x]"
    out = step(out, RedexSite((), "Var"), LCA)
    assert printed(out) == "(\\y.y^{e})^{c.<(a)>.d.D>._(a).<!.b}"


def test_beta_lcf_requires_closed_function():
    open_fun = App(Abs("x", App(Var("x", atomic("d")), Var("z", atomic("f")),
                                atomic("g")), atomic("a")),
                   Abs("y", Var("y", atomic("e")), atomic("b")),
                   atomic("c"))
    with pytest.raises(SideConditionViolatedError):
        step(Configuration(open_fun), RedexSite((), "Beta"), LCF)
    # the closed-argument system fires happily on the same redex
    assert step(Configuration(open_fun), RedexSite((), "Beta"), LCA)


def test_beta_pattern_mismatch():
    with pytest.raises(PatternMismatchError):
        step(Configuration(Var("x", atomic("a"))), RedexSite((), "Beta"), LCF)


# --- sigma rules -----------------------------------------------------------

def closed_value(tag="v"):
    return Abs(tag, Var(tag, atomic("v1")), atomic("v0"))


def test_sigma_lam_lcf_adds_auxiliary_marker():
    t = Subst(Abs("y", Var("x", atomic("a")), atomic("b")), closed_value(), "x")
    out = step(Configuration(t), RedexSite((), "Lam"), LCF)
    inner = out.term.body
    assert isinstance(inner, Subst)
    assert label_of(inner.arg)[0] == Marker(RIGHT, "?")


def test_sigma_lam_lca_no_marker_no_condition():
    open_arg = Var("z", atomic("z0"))
    t = Subst(Abs("y", Var("x", atomic("a")), atomic("b")), open_arg, "x")
    with pytest.raises(SideConditionViolatedError):
        step(Configuration(t), RedexSite((), "Lam"), LCF)
    out = step(Configuration(t), RedexSite((), "Lam"), LCA)
    assert label_of(out.term.body.arg) == atomic("z0")


def test_sigma_app_routing():
    t = Subst(App(Var("x", atomic("a")), Var("y", atomic("b")), atomic("c")),
              closed_value(), "x")
    out = step(Configuration(t), RedexSite((), "App1"), LCF)
    assert isinstance(out.term.fun, Subst)
    with pytest.raises(SideConditionViolatedError):
        step(Configuration(t), RedexSite((), "App2"), LCF)


def test_sigma_app2_lca_marks_argument():
    t = Subst(App(Var("y", atomic("b")), Var("x", atomic("a")), atomic("c")),
              closed_value(), "x")
    out = step(Configuration(t), RedexSite((), "App2"), LCA)
    assert label_of(out.term.arg.arg)[0] == Marker(RIGHT, "?")
    # the closed-function system adds no marker on App2
    out = step(Configuration(t), RedexSite((), "App2"), LCF)
    assert label_of(out.term.arg.arg)[0] == atomic("v0")[0]


def test_sigma_cpy1_duplicates_with_r_and_s():
    body = App(Var("y", atomic("a")), Var("z", atomic("b")), atomic("c"))
    t = Subst(Copy("x", "y", "z", body), closed_value(), "x")
    out = step(Configuration(t), RedexSite((), "Cpy1"), LCF)
    outer = out.term
    assert isinstance(outer, Subst) and outer.target == "z"
    assert label_of(outer.arg)[0] == Marker(RIGHT, "S")
    inner = outer.body
    assert isinstance(inner, Subst) and inner.target == "y"
    assert label_of(inner.arg)[0] == Marker(RIGHT, "R")
    assert check_linear(outer) == []


def test_sigma_cpy2_passes_through():
    body = App(App(Var("y", atomic("a")), Var("z", atomic("b")), atomic("c")),
               Var("w", atomic("d")), atomic("e"))
    t = Subst(Copy("x", "y", "z", body), closed_value(), "w")
    out = step(Configuration(t), RedexSite((), "Cpy2"), LCF)
    assert isinstance(out.term, Copy)
    assert isinstance(out.term.body, Subst)


def test_sigma_ers1_records_erased_label():
    t = Subst(Erase("x", Var("y", atomic("a"))), closed_value(), "x")
    out = step(Configuration(t), RedexSite((), "Ers1"), LCF)
    assert out.term == Var("y", atomic("a"))
    assert len(out.erased) == 1
    erased = next(iter(out.erased))
    assert label_of(erased)[0] == Marker(RIGHT, "W")


def test_sigma_var_rules_differ_between_calculi():
    t = Subst(Var("x", atomic("a")), closed_value(), "x")
    out = step(Configuration(t), RedexSite((), "Var"), LCF)
    assert format_label(label_of(out.term)) == "a.v0"
    out = step(Configuration(t), RedexSite((), "Var"), LCA)
    assert format_label(label_of(out.term)) == "a.D>.v0"


def test_cmp_needs_inner_free_variable():
    inner = Subst(Var("y", atomic("a")), Var("x", atomic("b")), "y")
    t = Subst(inner, closed_value(), "x")
    out = step(Configuration(t), RedexSite((), "Cmp"), LCF)
    assert isinstance(out.term, Subst) and isinstance(out.term.arg, Subst)
    # no composition rule in the closed-argument system
    assert all(site.rule != "Cmp" for site in find_redexes(Configuration(t), LCA))


def test_cmp_is_not_a_rule_of_lca():
    inner = Subst(Var("y", atomic("a")), Var("x", atomic("b")), "y")
    t = Subst(inner, closed_value(), "x")
    with pytest.raises(PatternMismatchError):
        step(Configuration(t), RedexSite((), "Cmp"), LCA)


def test_var_needs_the_substituted_variable():
    t = Subst(Var("y", atomic("a")), closed_value(), "x")
    with pytest.raises(PatternMismatchError):
        step(Configuration(t), RedexSite((), "Var"), LCF)


def test_app1_needs_the_target_in_the_function_part():
    t = Subst(App(Var("y", atomic("b")), Var("x", atomic("a")), atomic("c")),
              closed_value(), "x")
    with pytest.raises(SideConditionViolatedError):
        step(Configuration(t), RedexSite((), "App1"), LCF)
    assert step(Configuration(t), RedexSite((), "App2"), LCF)


def test_step_rejects_an_unknown_calculus():
    t = Subst(Var("x", atomic("a")), closed_value(), "x")
    with pytest.raises(ValueError, match="unknown calculus 'lcx'"):
        step(Configuration(t), RedexSite((), "Var"), "lcx")
    # before it looks for the node
    with pytest.raises(ValueError, match="unknown calculus 'lcx'"):
        step(Configuration(t), RedexSite((0, 0), "Var"), "lcx")
    # and so does every walk of the redex search, on a variable too
    for config in (Configuration(t), Configuration(Var("y"))):
        for walk in (find_redexes, reduce, normalize_sigma, reduction_graph):
            with pytest.raises(ValueError, match="unknown calculus 'lcx'"):
                walk(config, "lcx")


def test_step_rejects_a_position_that_names_no_node():
    t = Subst(Var("x", atomic("a")), closed_value(), "x")
    for position in ((2,), (0, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match=f"no node at {re.escape(str(position))}"):
            step(Configuration(t), RedexSite(position, "Var"), LCF)


# --- redex search, strategies ----------------------------------------------

def test_find_redexes_normal_form_empty():
    nf = initialize(parse_lambda("\\x.x"))
    assert find_redexes(Configuration(nf), LCF) == []


def test_find_redexes_identity_application_single_beta():
    config = Configuration(initialize(compile_term(parse_lambda("(\\x.x) (\\y.y)"))))
    assert find_redexes(config, LCF) == [RedexSite((), "Beta")]


def _every_matching_site(config, calculus):
    """Redex sites by brute force: every rule at every position, kept when
    ``step`` accepts it."""
    sites = []
    for pos, _ in subterms(config.term):
        for rule in RULES[calculus]:
            site = RedexSite(pos, rule)
            try:
                step(config, site, calculus)
            except (PatternMismatchError, SideConditionViolatedError):
                continue
            sites.append(site)
    return sites


def _first_site_trace(config, calculus, sigma=False):
    """The leftmost-outermost trace by ``find_redexes`` and ``step``, of
    the sigma rules alone when ``sigma``."""
    trace = []
    while sites := [site for site in find_redexes(config, calculus)
                    if not (sigma and site.rule == "Beta")]:
        config = step(config, sites[0], calculus)
        trace.append(TraceStep(sites[0], config))
    return trace


def _corpus_6_graphs():
    """(calculus, reduction graph) of every ``corpus(6)`` entry under both
    calculi, labelled and label-stripped."""
    for entry in corpus(6):
        for calc in (LCF, LCA):
            for term in (entry.initial, entry.compiled):
                yield calc, reduction_graph(Configuration(term), calc)


def test_find_redexes_agrees_with_trying_every_rule():
    # and the graph, reduce and normalize_sigma contract as step does
    checked = 0
    for calc, graph in _corpus_6_graphs():
        for config, succ in graph.edges.items():
            expected = _every_matching_site(config, calc)
            assert find_redexes(config, calc) == expected
            assert [ts.site for ts in calculus._redexes(config, calc, False)] == \
                [site for site in expected if site.rule != "Beta"]
            assert list(succ) == [(site, step(config, site, calc))
                                  for site in expected]
            assert reduce(config, calc) == _first_site_trace(config, calc)
            sigma = _first_site_trace(config, calc, sigma=True)
            assert normalize_sigma(config, calc) == \
                (sigma[-1].config if sigma else config)
            checked += 1
    assert checked == 708


def test_the_redex_search_constructs_no_rule_error(monkeypatch):
    # a left-hand side that does not match, or a side condition that fails,
    # is data in the search: only ``step``, given a site, raises on them
    made = []
    for error in (PatternMismatchError, SideConditionViolatedError):
        def counting(self, *args, error=error):
            made.append(error)
            Exception.__init__(self, *args)

        monkeypatch.setattr(error, "__init__", counting)
    with pytest.raises(PatternMismatchError):
        step(Configuration(Var("x", atomic("a"))), RedexSite((), "Beta"), LCF)
    assert made == [PatternMismatchError]  # the counter sees a construction
    made.clear()
    configs = 0
    for calc, graph in _corpus_6_graphs():
        for config in graph.edges:
            reduce(config, calc)
            normalize_sigma(config, calc)
            configs += 1
    assert configs == 708 and made == []


def test_every_rule_contracts_a_step_of_the_small_corpus():
    # a case of the rules' match that never fires would show here
    fired = {LCF: set(), LCA: set()}
    for calc, graph in _corpus_6_graphs():
        fired[calc] |= {site.rule for _, site, _ in graph.steps()}
    assert fired == {calc: set(RULES[calc]) for calc in (LCF, LCA)}


def test_only_the_redex_kinds_have_contractions():
    # the redex search offers only substitutions, and applications of an
    # abstraction when Beta fires, so a rule matching any other node would
    # never fire there
    def offered(node, beta):
        return type(node) is Subst or (
            type(node) is App and type(node.fun) is Abs and beta)

    for calc, graph in _corpus_6_graphs():
        for config in graph.edges:
            for _, node in subterms(config.term):
                for beta in (True, False):
                    if not offered(node, beta):
                        assert calculus._contractions(node, calc, beta) == ()


def test_the_redex_search_offers_no_application_that_cannot_match(monkeypatch):
    # a variable, an application or a substitution in function position, or
    # any application under the sigma rules, matches no left-hand side
    returned = []
    real = calculus._contractions

    def recorded(node, calc, beta):
        out = real(node, calc, beta)
        returned.append((type(node), out))
        return out

    monkeypatch.setattr(calculus, "_contractions", recorded)
    entries = corpus(6)
    reports = [checks.check_compile_fidelity(entries),
               checks.check_sigma_termination(entries),
               checks.check_propagation(entries),
               checks.check_goi_end_to_end(entries)]
    for calc in (LCF, LCA):
        reports += [check_confluence(entries, calc), check_label_lemmas(entries, calc)]
    assert all(report["ok"] for report in reports)
    assert [out for kind, out in returned if kind is App and out == ()] == []
    assert sum(kind is App for kind, _ in returned) > 100


def test_a_deep_chain_of_identities_is_searched_and_stepped_without_recursion():
    # (\z0.z0) (\z1.z1) ... (\z5000.z5000), left-nested: its one redex is
    # the innermost application, 4,999 steps below the root.  Such terms are
    # not hashed or compared here: both still recurse.
    term = Abs("z0", Var("z0"))
    for i in range(1, 5001):
        term = App(term, Abs(f"z{i}", Var(f"z{i}")))
    site = RedexSite((0,) * 4999, "Beta")
    for calc in (LCF, LCA):
        config = Configuration(term)
        assert find_redexes(config, calc) == [site]
        out = step(config, site, calc)
        contractum = subterm_at(out.term, site.position)
        assert type(contractum) is Subst and contractum.target == "z0"
        assert out.term.arg is term.arg
        assert subterm_at(out.term, (0,) * 4998).arg is subterm_at(term, (0,) * 4998).arg


def test_closed_substitution_is_never_normal():
    t = Subst(Var("x", atomic("a")), closed_value(), "x")
    assert find_redexes(Configuration(t), LCF)
    assert find_redexes(Configuration(t), LCA)


def test_normalize_sigma_fixpoint():
    nf = initialize(parse_lambda("\\x.x"))
    config = Configuration(nf)
    assert normalize_sigma(config, LCF) == config


def test_normalize_sigma_single_var_step():
    t = Subst(Var("x", atomic("a")), Abs("y", Var("y", atomic("b")), atomic("c")), "x")
    out = normalize_sigma(Configuration(t), LCF)
    assert format_label(label_of(out.term)) == "a.c"


def test_normalize_sigma_terminates_on_corpus():
    for name, term in list(closed_terms(6))[:30]:
        config = Configuration(initialize(compile_term(term)))
        for calculus in (LCF, LCA):
            normalize_sigma(config, calculus)  # must not raise


def test_reduce_identity_application_two_steps():
    config = Configuration(initialize(compile_term(parse_lambda("(\\x.x) (\\y.y)"))))
    trace = reduce(config, LCF)
    assert [ts.site.rule for ts in trace] == ["Beta", "Var"]


def test_reduce_fuel_exhaustion_reported():
    omega = initialize(compile_term(parse_lambda("(\\x.x x) (\\x.x x)")))
    with pytest.raises(FuelExhaustedError):
        reduce(Configuration(omega), LCF, fuel=25)


def test_fuel_equal_to_the_trace_length_is_enough():
    config = Configuration(initialize(compile_term(parse_lambda("(\\x.x) (\\y.y)"))))
    for calc in (LCF, LCA):
        trace = reduce(config, calc)
        assert [ts.site.rule for ts in trace] == ["Beta", "Var"]
        assert reduce(config, calc, fuel=2) == trace
        with pytest.raises(FuelExhaustedError):
            reduce(config, calc, fuel=1)
        assert reduce(trace[-1].config, calc, fuel=0) == []
        # one sigma step from the substitution Beta leaves
        assert normalize_sigma(trace[0].config, calc, fuel=1) == trace[1].config
        with pytest.raises(FuelExhaustedError):
            normalize_sigma(trace[0].config, calc, fuel=0)


def test_label_lemmas_report_each_configurations_variable_atoms_last():
    # every atom misread as a variable's: under lcf each configuration's
    # label-shape failures come first, then its variable-atom ones
    entry = prepare("t", parse_lambda("(\\x.x) (\\y.y)"))
    entry = dataclasses.replace(entry, atom_classes=dict.fromkeys(entry.atom_classes, "var"))
    def misread(atom, found, position):
        return failure("last atom names another kind", "t", LCF, position=position,
                       detail=[atom, "var", found])

    def followed(atom, suffix, position):
        return failure("variable atom before a malformed argument label", "t", LCF,
                       position=position, error="ArgumentLabelError", detail=[
                           atom, suffix, "no underlined block after the exponential prefix"])

    report = check_label_lemmas([entry], LCF)
    assert report["failures"] == [
        misread("a", "app", ()),
        misread("b", "abs", (0,)),
        misread("d", "abs", (1,)),
        misread("d", "abs", (1,)),
        followed("a", "<(D>.b.<!)>.c", (0,)),
        followed("b", "<!", (0,)),
        followed("b", "<!", (1,)),
        misread("d", "abs", ()),
        followed("a", "<(D>.b.<!)>.c._(!>.b.<D).d", ()),
        followed("b", "<!", ()),
        followed("b", "<!", ()),
    ]
    assert report["failures_total"] == 11


def test_label_lemmas_name_a_term_that_is_not_linear_or_lost_its_first_atom():
    # \x.x x initialised as it is, uncompiled, shares x; \x.x read as if
    # its root atom were z has lost its first atom.  Both are normal forms
    dup = prepare("dup", parse_lambda("\\x.x x"))
    shared = dataclasses.replace(dup, initial=initialize(dup.source))
    moved = dataclasses.replace(prepare("id", parse_lambda("\\x.x")), root_atom="z")
    for calc in (LCF, LCA):
        assert check_label_lemmas([shared, moved], calc)["failures"] == [
            failure("not linear", "dup", calc,
                    detail=[((0,), "application shares free variables ['x']")]),
            failure("first atom changed", "id", calc, detail=["a", "z"])]


def test_label_lemmas_name_a_label_that_ends_in_a_marker():
    entry = prepare("id", parse_lambda("\\x.x"))
    marked = with_label(entry.initial, (*label_of(entry.initial), *mark(RIGHT, "D")))
    assert format_term(marked, labels=True) == "(\\x.x^{b})^{a.D>}"
    for calc in (LCF, LCA):
        report = check_label_lemmas([dataclasses.replace(entry, initial=marked)], calc)
        assert report["failures"] == [
            failure("label ends in a marker", "id", calc, position=())]


def test_label_lemmas_name_an_open_substitution_and_a_malformed_argument_label():
    # z[y/z] substitutes an open argument whose label b has no box
    # markers; under lcf its Var step leaves y^{a.b}, where the variable's
    # atom a comes before that label
    entry = prepare("id", parse_lambda("\\x.x"))
    initial = initialize(parse("z[y/z]"))
    entry = dataclasses.replace(entry, initial=initial,
                                atom_classes={"a": "var", "b": "var"})
    malformed = ["b", "no underlined block after the exponential prefix"]
    assert check_label_lemmas([entry], LCA)["failures"] == [
        failure("open substitution", "id", LCA, position=()),
        failure("malformed argument label", "id", LCA, position=(),
                error="ArgumentLabelError", detail=malformed)]
    assert check_label_lemmas([entry], LCF)["failures"] == [
        failure("malformed argument label", "id", LCF, position=(),
                error="ArgumentLabelError", detail=malformed),
        failure("variable atom before a malformed argument label", "id", LCF,
                position=(), error="ArgumentLabelError", detail=["a", *malformed])]


def test_suites_report_an_exhausted_trace():
    entry = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))
    expected = [failure("trace fuel exhausted", "id", calc) for calc in (LCF, LCA)]
    assert check_sigma_termination([entry], fuel=1)["failures"] == expected
    assert check_propagation([entry], fuel=1)["failures"] == expected
    assert check_goi_end_to_end([entry], fuel=1)["failures"] == expected
    for calc, record in zip((LCF, LCA), expected):
        assert check_label_lemmas([entry], calc, fuel=1)["failures"] == [record]
        assert check_label_lemmas([entry], calc, fuel=2)["ok"]
        # criteria 6 and 7 read the trace when the fuel cuts the graph
        # short, and report its end in the same record.  The fuel bounds
        # each weight-set search too, and no search of these nets fits in 2
        # visits: a search out of fuel is a record of its step, not the
        # trace's
        searches = [failure("weight set not found", "id", calc, rule, (),
                            error="FuelExhaustedError",
                            detail="weight-set search ran out of fuel")
                    for rule in ("Beta", "Var")]
        assert check_weight_invariance([entry], calc, fuel=1)["failures"] == [
            searches[0], record]
        assert check_weight_invariance([entry], calc, fuel=2)["failures"] == searches
    assert check_propagation([entry], fuel=2)["ok"]
    # criterion 9's membership searches need 13 visits (lcf) and 10 (lca):
    # at a fuel of 2 the traces end and the searches do not
    assert check_goi_end_to_end([entry], fuel=2)["failures"] == [
        failure("final weight not decided", "id", calc, error="FuelExhaustedError",
                detail="membership search ran out of fuel") for calc in (LCF, LCA)]
    assert check_goi_end_to_end([entry], fuel=13)["ok"]


def test_propagation_reports_sigma_fuel_exhaustion(monkeypatch):
    entry = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))

    def exhausted(config, calculus, fuel):
        raise FuelExhaustedError("sigma normalisation exceeded fuel")

    monkeypatch.setattr(checks, "sigma_walk", exhausted)
    report = check_propagation([entry])
    assert not report["ok"]
    # one failure per calculus: of each two-step trace, the last
    # configuration is its own normal form and the one before a Var step
    # shares it, so only the initial one is walked.  Worded as in the
    # sigma-termination suite
    initial = format_term(entry.initial, labels=True)
    assert report["failures"] == [
        failure("sigma fuel exhausted", "id", calc, detail=initial) for calc in (LCF, LCA)]
    assert report["failures"] == check_sigma_termination([entry])["failures"]


def test_propagation_reports_a_closed_substitution_that_survives(monkeypatch):
    # each configuration taken as its own normal form: the one after Beta
    # is a closed substitution at the root
    entry = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))

    def unnormalised(trace, calculus, fuel):
        return [ts.config for ts in trace]

    monkeypatch.setattr(checks, "_trace_sigma_nfs", unnormalised)
    assert check_propagation([entry])["failures"] == [
        failure("closed substitution survives", "id", calc, position=())
        for calc in (LCF, LCA)]


def _from_scratch(config, calc, fuel):
    try:
        return normalize_sigma(config, calc, fuel)
    except FuelExhaustedError:
        return None


def _shared_and_scratch_forms(fuel=FUEL):
    """(shared, from-scratch) sigma-normal forms of every trace
    configuration of ``corpus(7)`` under both calculi, each walk within
    ``fuel`` steps, and for each configuration one sigma step before a
    normalised one, whether its walk ran out of fuel."""
    shared, scratch, boundary = [], [], []
    for entry in corpus(7):
        for calc in (LCF, LCA):
            trace = _trace(entry, calc, FUEL)
            forms = _trace_sigma_nfs(trace, calc, fuel)
            shared += forms
            scratch += [_from_scratch(ts.config, calc, fuel) for ts in trace]
            boundary += [forms[i] is None for i in range(len(trace) - 1)
                         if trace[i + 1].site.rule != "Beta"
                         and forms[i + 1] is not None]
    return shared, scratch, boundary


def test_shared_sigma_normal_forms_equal_from_scratch_ones():
    shared, scratch, boundary = _shared_and_scratch_forms()
    assert shared == scratch
    assert None not in shared and boundary and not any(boundary)


def test_shared_sigma_normal_forms_run_out_of_fuel_where_scratch_ones_do():
    # a fuel small enough that some walks run out, some of them one step
    # before a configuration whose walk does not (any fuel from 1 to 7 is)
    shared, scratch, boundary = _shared_and_scratch_forms(fuel=3)
    assert shared == scratch
    assert None in scratch and True in boundary and False in boundary


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(max_size=12))
def test_linearity_survives_each_step(term):
    initial = prepare("random", term).initial
    for calc in (LCF, LCA):
        graph = reduction_graph(Configuration(initial), calc, fuel=300)
        for config in graph.edges:
            assert check_linear(config.term) == [], printed(config)
            for erased in config.erased:
                assert check_linear(erased) == [], printed(config)


def stripped(config):
    return Configuration(relabel(config.term, lambda: None),
                         frozenset(relabel(t, lambda: None) for t in config.erased))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(max_size=12))
def test_stripping_labels_commutes_with_each_step(term):
    # unlabelled reduction is labelled reduction with the labels erased
    initial = prepare("random", term).initial
    for calc in (LCF, LCA):
        graph = reduction_graph(Configuration(initial), calc, fuel=300)
        for config in graph.edges:
            bare = stripped(config)
            sites = find_redexes(config, calc)
            assert find_redexes(bare, calc) == sites, printed(config)
            for site in sites:
                assert stripped(step(config, site, calc)) == \
                    step(bare, site, calc), (printed(config), site)


def test_subject_reduction_along_traces():
    entry = prepare("dup", parse_lambda("(\\x.x x) (\\y.y)"))
    for calculus in (LCF, LCA):
        config = Configuration(entry.initial)
        for ts in reduce(config, calculus):
            assert check_linear(ts.config.term) == []


def test_lca_substitutions_stay_closed():
    entry = prepare("dup", parse_lambda("(\\x.x x) (\\y.y)"))
    config = Configuration(entry.initial)
    for ts in reduce(config, LCA):
        for _, sub in subterms(ts.config.term):
            if isinstance(sub, Subst):
                assert free_vars(sub.arg) == frozenset()


def test_exhaustive_graph_single_sink():
    entry = prepare("dup", parse_lambda("(\\x.x x) (\\y.y)"))
    for calculus in (LCF, LCA):
        graph = reduction_graph(Configuration(entry.initial), calculus)
        assert graph.complete
        assert len(graph.sink_terms()) == 1


def test_confluence_reports_distinct_sinks(monkeypatch):
    # the graph of \x.x, one configuration, given a second one as a sink
    entry = prepare("id", parse_lambda("\\x.x"))

    def two_sinks(config, calculus, fuel):
        graph = reduction_graph(config, calculus, fuel=fuel)
        graph.edges[Configuration(Var("z"))] = ()
        return graph

    monkeypatch.setattr(checks, "reduction_graph", two_sinks)
    for calculus in (LCF, LCA):
        report = check_confluence([entry], calculus)
        assert report["failures"] == [failure("distinct sinks", "id", calculus, detail=sorted(
            [format_term(entry.initial, labels=True), "z"]))]
        assert report["fuel_exhausted"] == []


def test_trace_record_format():
    config = Configuration(initialize(compile_term(parse_lambda("(\\x.x) (\\y.y)"))))
    trace = reduce(config, LCF)
    records = trace_records(trace, LCF)
    assert records[0]["step"] == 1
    assert set(records[0]) == {"step", "rule", "position", "term_printed",
                               "erased_labels", "calculus"}


def erasing_trace(labelled):
    term = compile_term(parse_lambda("(\\x.\\y.y) (\\z.z)"))
    config = Configuration(initialize(term) if labelled else term)
    trace = reduce(config, LCF)
    assert [ts.site.rule for ts in trace] == ["Beta", "Ers1"]
    return trace


def test_trace_record_of_an_unlabelled_erasure():
    records = trace_records(erasing_trace(labelled=False), LCF)
    assert records[-1]["erased_labels"] == ["(unlabelled)"]


def test_trace_record_does_not_hide_other_faults(monkeypatch):
    trace = erasing_trace(labelled=True)
    assert trace_records(trace, LCF)[-1]["erased_labels"][0].startswith("W>")

    def broken(term):
        raise RuntimeError("label lookup failed")

    monkeypatch.setattr(calculus, "label_of", broken)
    with pytest.raises(RuntimeError):
        trace_records(trace, LCF)


def test_every_sigma_walk_of_the_corpus_is_within_a_quadratic_bound():
    # criterion 2 bounds each walk by the fuel; the walks of the corpus
    # also end within 10 * size^2 steps of the configuration they start at
    walks = 0
    for entry in corpus(7):
        for calc in (LCF, LCA):
            for ts in _trace(entry, calc, FUEL):
                _, steps = sigma_walk(ts.config, calc)
                assert steps <= 10 * term_size(ts.config.term) ** 2, printed(ts.config)
                walks += 1
    assert walks == 662


def test_cmp_is_reachable_from_the_corpus():
    # Beta may create open substitutions; composition then unblocks them
    # somewhere in the exhaustive graphs of the small closed terms
    seen = set()
    for entry in (prepare(name, term) for name, term in closed_terms(7)):
        graph = reduction_graph(Configuration(entry.initial), LCF)
        seen |= {site.rule for _, site, _ in graph.steps()}
        if "Cmp" in seen:
            break
    assert "Cmp" in seen
