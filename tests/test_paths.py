import pytest

from goilab.algebra import (ONE, ZERO, compose, format_weight, involute, lw,
                            normal_form, normal_word, parse_weight, watom)
from goilab.calculus import LCA, LCF, Configuration, reduce
from goilab.checks import _step_edges, check_weight_invariance
from goilab.corpus import CLASSICS, corpus, prepare
from goilab.labelled import initialize, label_of
from goilab.labels import atomic
from goilab.nets import TRANSITIONS, translate_cbn, translate_cbv
from goilab.paths import (DirectedEdges, Path, SearchBudgetError, Step,
                          check_invariance, enumerate_straight,
                          format_weight_key, live_words, path_weight,
                          step_weight, weight_key, weight_member, weight_set)
from goilab.terms import Abs, App, Var, compile_term, parse_lambda


def identity_application():
    return App(Abs("x", Var("x", atomic("d")), atomic("a")),
               Abs("y", Var("y", atomic("e")), atomic("b")),
               atomic("c"))


def test_wire_paths_both_orientations():
    net = translate_cbv(Var("x", atomic("a")))
    paths = enumerate_straight(net, 8)
    ends = {(p.steps[0].edge, p.steps[0].to_end) for p in paths}
    assert len(paths) == 2
    assert all(path_weight(p, net).is_one for p in paths)
    assert paths[0].reversed() in paths or paths[1].reversed() in paths


def test_empty_path_weight_is_one():
    net = translate_cbv(Var("x", atomic("a")))
    assert path_weight(Path(()), net).is_one


def test_no_twisting_between_premises():
    net = translate_cbv(identity_application())
    pm = net.port_map()
    table = DirectedEdges(net)
    tensor = next(n for n, k in net.nodes.items() if k == "tensor")
    eid, idx = pm[(tensor, "left")]
    conts = [table.step(s) for s in table.succ[table.state(eid, idx)]]
    # from the left premise the only way on is through the conclusion
    assert len(conts) == 1
    target = net.edges[conts[0].edge].ends[conts[0].to_end]
    assert pm[(tensor, "out")][0] == conts[0].edge or target[2] == "out"


def test_root_to_root_path_exists_through_cut():
    net = translate_cbv(identity_application())
    paths = enumerate_straight(net, 40)
    root_root = [p for p in paths
                 if net.edges[p.steps[0].edge].ends[1 - p.steps[0].to_end][0] == "root"
                 and net.edges[p.steps[-1].edge].ends[p.steps[-1].to_end][0] == "root"]
    assert root_root


def test_reversal_closure_with_involuted_weights():
    net = translate_cbv(identity_application())
    paths = enumerate_straight(net, 24)
    keys = {tuple(p.steps) for p in paths}
    for p in paths:
        assert tuple(p.reversed().steps) in keys
        w = path_weight(p, net)
        assert weight_key(path_weight(p.reversed(), net)) == weight_key(involute(w))


def test_weakening_kills_path_weight():
    entry = prepare("k", parse_lambda("\\x.\\y.x"))
    net = translate_cbv(entry.initial)
    weaken_edges = [eid for eid, e in net.edges.items() if e.weight.is_zero]
    assert weaken_edges
    assert path_weight(Path((Step(weaken_edges[0], 1),)), net).is_zero


def test_weight_set_of_wire():
    net = translate_cbv(Var("x", atomic("a")))
    assert weight_set(net, 8) == {()}


def depth_first_weight_set(net, max_steps, length_cap=None):
    """The reference: enumerate every straight path depth-first, folding its
    weight, with no sharing between paths."""
    pm = net.port_map()
    out = set()

    def walk(depth, weight, eid, to_end):
        weight = compose(weight, step_weight(net, Step(eid, to_end)))
        if weight.is_zero or (length_cap is not None
                              and len(weight.atoms) > length_cap):
            return
        end = net.edges[eid].ends[to_end]
        if end is not None and end[0] in ("root", "free"):
            out.add(weight_key(weight))
        if depth < max_steps and end is not None and end[0] == "node":
            nid, port = end[1], end[2]
            for a, b in TRANSITIONS[net.nodes[nid]]:
                if port in (a, b):
                    e2, idx = pm[(nid, b if port == a else a)]
                    walk(depth + 1, weight, e2, 1 - idx)

    for eid, e in net.edges.items():
        for i, end in enumerate(e.ends):
            if end is not None and end[0] in ("root", "free"):
                walk(1, ONE, eid, 1 - i)
    return out


def test_weight_set_equals_the_depth_first_enumeration():
    # every net the weight-invariance criteria compare on corpus(6), at their
    # bound and cap, and uncapped at bounds that cut paths short
    compared = 0
    for calculus, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
        terms = {}
        for entry in corpus(6):
            for src, _, dst in _step_edges(entry, calculus, 10_000, 10_000):
                terms[src] = terms[dst] = None
        for term in terms:
            net = translate(term)
            edges = len(net.edges)
            assert (weight_set(net, 4 * edges, length_cap=edges)
                    == depth_first_weight_set(net, 4 * edges, edges)), term
            for bound in (3, 7, 12):
                assert weight_set(net, bound) == depth_first_weight_set(net, bound)
            compared += 1
    assert compared > 200


def test_weight_set_budget_is_a_step_error():
    entry = prepare("church_two_twice",
                    parse_lambda(dict(CLASSICS)["church_two_twice"]))
    net = translate_cbv(entry.initial)
    edges = len(net.edges)
    with pytest.raises(SearchBudgetError):
        weight_set(net, 4 * edges, max_expansions=50, length_cap=edges)
    report = check_weight_invariance([entry], LCF, max_expansions=50)
    assert not report["ok"]
    assert report["failures"]
    assert all(f["error"].startswith("SearchBudgetError")
               for f in report["failures"])


def test_weight_set_monotone_in_bound():
    net = translate_cbv(identity_application())
    small = weight_set(net, 12)
    large = weight_set(net, 24)
    assert small <= large


def test_direction_labels():
    net = translate_cbv(Var("x", atomic("a")))
    paths = enumerate_straight(net, 4)
    dirs = {tuple(s.direction(net) for s in p.steps) for p in paths}
    assert dirs  # both paths end at the interface: backward arrivals
    assert all(d[-1] == "backward" for d in dirs)


def test_invariance_sigma_step_exact():
    # the Var step of the identity application preserves the bounded
    # observable weight set exactly, in both calculi
    t = identity_application()
    for calc, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
        trace = reduce(Configuration(t), calc)
        assert [ts.site.rule for ts in trace] == ["Beta", "Var"]
        before = trace[0].config.term
        after = trace[1].config.term
        report = check_invariance(translate(before), translate(after))
        assert report["equal"], report


def test_invariance_beta_shows_the_static_gap():
    # Beta consumes the multiplicative pair; paths that bounce on the bound
    # variable's axiom and leave through the root premise have no
    # counterpart once the pair is gone.  These are exactly the words the
    # dynamic algebra would kill; as static words the left set is strictly
    # larger.  The acceptance suite reports this as the expected failure of
    # the step-invariance criteria on Beta steps.
    t = identity_application()
    for calc, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
        after = reduce(Configuration(t), calc)[0].config.term
        report = check_invariance(translate(t), translate(after))
        assert not report["equal"]
        assert report["right_only"] == []  # reduction never invents weights
        assert report["left_only"]
        # ... and every lost word is null: the live sets agree
        assert all(normal_form(parse_weight(word)).is_zero
                   for word in report["left_only"])
        assert report["live_equal"], report


def test_lcf_beta_wanderer_word_is_the_counterexample():
    t = identity_application()
    after = reduce(Configuration(t), LCF)[0].config.term
    report = check_invariance(translate_cbv(t), translate_cbv(after))
    assert "q.d.!(q*).!(p).d*.q*" in report["left_only"]
    assert all(normal_form(parse_weight(word)).is_zero
               for word in report["left_only"])
    assert report["live_equal"], report


def test_live_words_have_the_stable_form():
    # in the dynamic algebra a live straight-path weight rewrites to all
    # involutions followed by all generators (the mirror of AB*).  Church two
    # applied to itself is the net that needs t*, not t, as the generator of
    # the auxiliary door for this to hold
    church = prepare("c", parse_lambda("(\\f.\\x.f (f x)) (\\g.\\y.g (g y))"))
    live_nets = 0
    for entry in corpus(max_size=5, classics=False) + [church]:
        for translate in (translate_cbv, translate_cbn):
            net = translate(entry.initial)
            edges = len(net.edges)
            live = live_words(weight_set(net, 4 * edges, length_cap=edges))
            live_nets += bool(live)
            for key in live:
                generators = [star == (base == "t")
                              for base, star, _ in normal_word(key)]
                assert generators == sorted(generators), format_weight_key(key)
    assert live_nets >= 40


def test_weight_member_end_to_end_identity():
    t = identity_application()
    # closed-function calculus against the call-by-value net
    trace = reduce(Configuration(t), LCF)
    final = label_of(trace[-1].config.term)
    target = lw(final, 0)
    assert format_weight(target.weight) == "q.d.!(q*).!(p).d*.p*"
    assert weight_member(translate_cbv(t), target.weight)
    # closed-argument calculus against the call-by-name net
    trace = reduce(Configuration(t), LCA)
    final = label_of(trace[-1].config.term)
    target = lw(final, 0)
    assert format_weight(target.weight) == "q.q*.d.p.p*"
    assert target.out_level == 1
    assert weight_member(translate_cbn(t), target.weight)


def test_weight_member_rejects_absent_word():
    net = translate_cbv(identity_application())
    assert not weight_member(net, compose(watom("r"), watom("s")))


def test_erased_terms_carry_zero_weight():
    entry = prepare("k", parse_lambda("(\\x.\\y.y) (\\z.z)"))
    config = Configuration(entry.initial)
    trace = reduce(config, LCF)
    erased = set()
    for ts in trace:
        erased |= ts.config.erased
    assert erased
    for term in erased:
        assert lw(label_of(term), 5).weight.is_zero
