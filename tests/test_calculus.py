import pytest
from conftest import closed_lambda_terms
from hypothesis import given, settings

from goilab import calculus, checks
from goilab.calculus import (LCA, LCF, RULES, SIGMA_RULES, Configuration,
                             FuelExhaustedError, PatternMismatchError,
                             RedexSite, SideConditionViolatedError, TraceStep,
                             default_sigma_fuel, find_redexes,
                             normalize_sigma, reduce, reduction_graph, step,
                             trace_records)
from goilab.checks import (_trace, _trace_sigma_normal_forms,
                           check_label_lemmas, check_propagation,
                           check_sigma_termination, check_weight_invariance)
from goilab.corpus import closed_terms, corpus, prepare
from goilab.labelled import initialize, label_of
from goilab.labels import LEFT, RIGHT, Marker, atomic, format_label
from goilab.terms import (Abs, App, Copy, Erase, Subst, Var, check_linear,
                          compile_term, format_term, free_vars, parse_lambda,
                          strip_labels, subterms, term_size)


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


def _first_site_trace(config, calculus, rules=None):
    """The leftmost-outermost trace by ``find_redexes`` and ``step``."""
    trace = []
    while sites := find_redexes(config, calculus, rules):
        config = step(config, sites[0], calculus)
        trace.append(TraceStep(sites[0], config))
    return trace


def test_find_redexes_agrees_with_trying_every_rule():
    # and the graph, reduce and normalize_sigma contract as step does
    checked = 0
    for entry in corpus(6):
        for calc in (LCF, LCA):
            for term in (entry.initial, strip_labels(entry.initial)):
                graph = reduction_graph(Configuration(term), calc)
                for config, succ in graph.edges.items():
                    expected = _every_matching_site(config, calc)
                    assert find_redexes(config, calc) == expected
                    assert find_redexes(config, calc, SIGMA_RULES[calc]) == \
                        [site for site in expected if site.rule != "Beta"]
                    assert list(succ) == [(site, step(config, site, calc))
                                          for site in expected]
                    assert reduce(config, calc) == _first_site_trace(config, calc)
                    sigma = _first_site_trace(config, calc, SIGMA_RULES[calc])
                    assert normalize_sigma(config, calc) == \
                        (sigma[-1].config if sigma else config)
                    checked += 1
    assert checked == 708


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


def test_suites_report_an_exhausted_trace():
    entry = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))
    expected = ["id/lcf: trace fuel exhausted", "id/lca: trace fuel exhausted"]
    assert check_sigma_termination([entry], trace_fuel=1)["failures"] == expected
    assert check_propagation([entry], trace_fuel=1)["failures"] == expected
    for calc, line in zip((LCF, LCA), expected):
        assert check_label_lemmas([entry], calc, trace_fuel=1)["failures"] == [line]
        assert check_label_lemmas([entry], calc, trace_fuel=2)["ok"]
        # criteria 6 and 7 read the trace when the graph budget cuts it short
        assert check_weight_invariance([entry], calc, graph_budget=1,
                                       trace_fuel=1)["failures"] == [
            {"term": "id", "error": "trace fuel exhausted"}]
        assert check_weight_invariance([entry], calc, graph_budget=1,
                                       trace_fuel=2)["ok"]
    assert check_propagation([entry], trace_fuel=2)["ok"]


def test_propagation_reports_sigma_fuel_exhaustion(monkeypatch):
    entry = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))

    def exhausted(config, calculus):
        raise FuelExhaustedError("sigma normalisation exceeded fuel")

    monkeypatch.setattr(checks, "sigma_walk", exhausted)
    report = check_propagation([entry])
    assert not report["ok"]
    # one failure per configuration of each two-step trace, worded as in
    # the sigma-termination suite
    assert len(report["failures"]) == 6
    assert report["failures"][0].startswith("id/lcf: sigma fuel exhausted on ")
    assert report["failures"] == check_sigma_termination([entry])["failures"]


def _from_scratch(config, calc):
    try:
        return normalize_sigma(config, calc)
    except FuelExhaustedError:
        return None


def _shared_and_scratch_forms():
    """(shared, from-scratch) sigma-normal forms of every trace
    configuration of ``corpus(7)`` under both calculi, and for each
    configuration one sigma step before a normalised one, whether its own
    fuel ran out."""
    shared, scratch, boundary = [], [], []
    for entry in corpus(7):
        for calc in (LCF, LCA):
            trace = _trace(entry, calc, 10_000)
            forms = _trace_sigma_normal_forms(trace, calc)
            shared += forms
            scratch += [_from_scratch(ts.config, calc) for ts in trace]
            boundary += [forms[i] is None for i in range(len(trace) - 1)
                         if trace[i + 1].site.rule != "Beta"
                         and forms[i + 1] is not None]
    return shared, scratch, boundary


def test_shared_sigma_normal_forms_equal_from_scratch_ones():
    shared, scratch, boundary = _shared_and_scratch_forms()
    assert shared == scratch
    assert None not in shared and boundary and not any(boundary)


def test_shared_sigma_normal_forms_run_out_of_fuel_where_scratch_ones_do(
        monkeypatch):
    # a fuel small enough that some walks run out, some of them one step
    # before a configuration whose walk does not
    def small(term):
        return term_size(term) % 7

    monkeypatch.setattr(calculus, "default_sigma_fuel", small)
    monkeypatch.setattr(checks, "default_sigma_fuel", small)
    shared, scratch, boundary = _shared_and_scratch_forms()
    assert shared == scratch
    assert None in scratch and True in boundary and False in boundary


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(max_size=12))
def test_linearity_survives_each_step(term):
    initial = prepare("random", term).initial
    for calc in (LCF, LCA):
        graph = reduction_graph(Configuration(initial), calc, max_configs=300)
        for config in graph.configs:
            assert check_linear(config.term) == [], printed(config)
            for erased in config.erased:
                assert check_linear(erased) == [], printed(config)


def stripped(config):
    return Configuration(strip_labels(config.term),
                         frozenset(strip_labels(t) for t in config.erased))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(max_size=12))
def test_stripping_labels_commutes_with_each_step(term):
    # unlabelled reduction is labelled reduction with the labels erased
    initial = prepare("random", term).initial
    for calc in (LCF, LCA):
        graph = reduction_graph(Configuration(initial), calc, max_configs=300)
        for config in graph.configs:
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


def test_default_sigma_fuel_quadratic():
    t = initialize(compile_term(parse_lambda("\\x.x")))
    assert default_sigma_fuel(t) == 10 * 2 * 2


def test_cmp_is_reachable_from_the_corpus():
    # Beta may create open substitutions; composition then unblocks them
    # somewhere in the exhaustive graphs of the small closed terms
    from goilab.corpus import corpus
    seen = set()
    for entry in corpus(7, classics=False):
        graph = reduction_graph(Configuration(entry.initial), LCF)
        seen |= {site.rule for _, site, _ in graph.steps()}
        if "Cmp" in seen:
            break
    assert "Cmp" in seen
