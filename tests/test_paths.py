import hashlib
from collections import Counter

import pytest
from conftest import closed_lambda_terms, failure, parse_word, port_scan
from hypothesis import assume, given, settings

from goilab import calculus, checks, paths
from goilab.algebra import (ONE, ZERO, LevelUnderflowError, compose,
                            format_weight, involute, lw, normal_word, watom)
from goilab.calculus import (FUEL, LCA, LCF, Configuration, FuelExhaustedError,
                             reduce, reduction_graph)
from goilab.checks import _step_edges, _trace, check_weight_invariance
from goilab.corpus import CLASSICS, closed_terms, corpus, prepare
from goilab.labelled import bullet, initialize, label_of
from goilab.labels import atomic
from goilab.nets import (TRANSITIONS, Net, TranslationError, translate_cbn,
                         translate_cbv, validate)
from goilab.paths import (DirectedEdges, check_invariance, live_words,
                          weight_member, weight_set)
from goilab.terms import Abs, App, Var, compile_term, parse_lambda


def identity_application():
    return App(Abs("x", Var("x", atomic("d")), atomic("a")),
               Abs("y", Var("y", atomic("e")), atomic("b")),
               atomic("c"))


def state(net, eid, to_end):
    """The state of ``DirectedEdges(net)`` that traverses edge ``eid``
    towards ``ends[to_end]``: the table numbers edges in the net's order."""
    return 2 * list(net.edges).index(eid) + to_end


def test_wire_paths_both_orientations():
    net = translate_cbv(Var("x", atomic("a")))
    table = DirectedEdges(net)
    # one path from each end of the wire, each the other read backwards
    paths = [(start, *table.succ[start]) for start in table.starts]
    assert len(paths) == 2
    assert tuple(state ^ 1 for state in reversed(paths[0])) == paths[1]
    assert all(table.interface[path[-1]] for path in paths)


def test_the_table_keeps_the_state_leaving_the_root():
    for entry in corpus(5)[::3]:
        for translate in (translate_cbv, translate_cbn):
            net = translate(entry.initial)
            table = DirectedEdges(net)
            at = net.edges[net.root].ends.index(("root",))
            assert table.root == state(net, net.root, 1 - at)
            assert table.root in table.starts
    assert DirectedEdges(Net()).root is None


def test_empty_path_weight_is_one():
    net = translate_cbv(Var("x", atomic("a")))
    # the wire's only word is the empty one, whose weight is 1
    assert ONE == ()
    assert weight_member(net, ONE)
    assert not weight_member(net, ZERO)


def test_no_twisting_between_premises():
    net = translate_cbv(identity_application())
    table = DirectedEdges(net)
    tensor = next(n for n, k in net.nodes.items() if k == "tensor")
    eid, idx = net.ports[(tensor, "left")]
    conts = table.succ[state(net, eid, idx)]
    # from the left premise the only way on is through the conclusion
    assert len(conts) == 1
    edge, to_end = list(net.edges)[conts[0] >> 1], conts[0] & 1
    assert net.ports[(tensor, "out")] == (edge, 1 - to_end)


def test_root_to_root_path_exists_through_cut():
    # the only interface of a closed term's net is its root, so every word
    # of the identity application's weight set is read by a root-to-root
    # path through the redex's cut
    t = identity_application()
    for translate, words in (
            (translate_cbv, {"q.d.!(q*).!(p).d*.p*.!(p*).!(q).p.d.!(p*).!(q).d*.q*",
                             "q.d.!(q*).!(p).d*.p*.!(q*).!(p).p.d.!(p*).!(q).d*.q*"}),
            (translate_cbn, {"q.q*.d.p.p*.!(p*).!(d*).!(q).p.p*.d*.q.q*",
                             "q.q*.d.p.p*.!(q*).!(d).!(p).p.p*.d*.q.q*"})):
        net = translate(t)
        assert {end[0] for e in net.edges.values() for end in e.ends
                if end is not None and end[0] != "node"} == {"root"}
        assert {format_weight(w) for w in weight_set(net)} == words


def test_reversal_closure_with_involuted_weights():
    # a straight path read backwards is straight, and reads the involution
    # of its word, which is live exactly when the word is
    for entry in (prepare(name, term) for name, term in closed_terms(5)):
        for translate in (translate_cbv, translate_cbn):
            words = weight_set(translate(entry.initial))
            assert words
            assert {involute(w) for w in words} == words


def test_weakening_kills_path_weight():
    entry = prepare("k", parse_lambda("\\x.\\y.x"))
    net = translate_cbv(entry.initial)
    table = DirectedEdges(net)
    weakened = [k for k, eid in enumerate(net.edges)
                if net.edges[eid].weight is None]
    assert weakened
    assert all(table.words[2 * k + end] is None
               for k in weakened for end in (0, 1))
    # one word per state: the edge's weight forwards, its involution back
    for entry in corpus(5):
        for translate in (translate_cbv, translate_cbn):
            net = translate(entry.initial)
            table = DirectedEdges(net)
            for k, eid in enumerate(net.edges):
                weight = net.edges[eid].weight
                assert table.words[2 * k + 1] == weight
                assert table.words[2 * k] == involute(weight)
    # a wire through the absorbing zero has no word left
    wire = translate_cbv(Var("x", atomic("a")))
    assert weight_set(wire) == {()}
    for edge in wire.edges.values():
        edge.weight = ZERO
    assert weight_set(wire) == set()


def test_weight_set_of_wire():
    net = translate_cbv(Var("x", atomic("a")))
    # the empty word, 1, read in both orientations
    assert weight_set(net) == {()}
    assert normal_word(()) == ()


def depth_first_weight_set(net, max_paths=200_000):
    """The reference: enumerate straight paths depth-first, folding each
    path's weight and null-testing it from scratch, with no sharing between
    paths; a path ends at its first null prefix."""
    pm = port_scan(net)
    out = set()
    paths = 0

    def walk(weight, eid, to_end):
        nonlocal paths
        paths += 1
        assert paths <= max_paths, "reference search did not end"
        edge = net.edges[eid]
        weight = compose(weight, edge.weight if to_end == 1
                         else involute(edge.weight))
        if normal_word(weight) is None:
            return
        end = edge.ends[to_end]
        if end is not None and end[0] in ("root", "free"):
            out.add(weight)
        if end is not None and end[0] == "node":
            nid, port = end[1], end[2]
            for a, b in TRANSITIONS[net.nodes[nid]]:
                if port in (a, b):
                    e2, idx = pm[(nid, b if port == a else a)]
                    walk(weight, e2, 1 - idx)

    for eid, e in net.edges.items():
        for i, end in enumerate(e.ends):
            if end is not None and end[0] in ("root", "free"):
                walk(ONE, eid, 1 - i)
    return out


def test_weight_set_equals_the_depth_first_enumeration():
    # every net the weight-invariance criteria compare on corpus(6); each
    # has a live word, so no comparison is between two empty sets
    compared = 0
    for calculus, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
        terms = {}
        for entry in corpus(6):
            for src, _, dst in _step_edges(entry, calculus, 10_000, []):
                terms[src] = terms[dst] = None
        for term in terms:
            net = translate(term)
            words = weight_set(net)
            assert words == depth_first_weight_set(net), term
            assert words
            compared += 1
    assert compared > 200


def test_the_live_words_of_the_size_6_graphs_are_pinned():
    # the sorted weight-set words of every translation of every
    # configuration the corpus(6) graphs reach, lcf with cbv and lca with
    # cbn, in order; a translation or a search that raises is its error's
    # type name.  The criterion 6/7 reports compare only live words, so an
    # empty weight set on both sides of a step would leave them unchanged
    digest, searched, words = hashlib.sha256(), 0, 0
    for calc, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
        for entry in corpus(6):
            for config in reduction_graph(Configuration(entry.initial), calc).edges:
                try:
                    found = sorted(weight_set(translate(config.term)))
                except (TranslationError, LevelUnderflowError,
                        FuelExhaustedError) as exc:
                    digest.update(type(exc).__name__.encode() + b"\n")
                    continue
                searched += 1
                words += len(found)
                digest.update(repr(found).encode() + b"\n")
    assert (searched, words) == (354, 1052)
    assert digest.hexdigest() == (
        "5b387af4192c795146c72fc808c77fbb13664ba14228b5be6199d695a2d6c334")


def chains_net():
    """root -> tensor T; T.left -> derelictions D1, D2 -> free x, reading q
    then p*, so the path turns null in the middle of the chain; T.right ->
    fan F; F.left -> dereliction D3 -> free y; F.right -> dereliction D4 ->
    a weakening.  Each dereliction is entered at its premise.  With the
    net, the edges T.left-D1 and F.right-D4 that start the two chains."""
    net = Net()
    t, f, d1, d2, d3, d4, w = (net.new_node(k) for k in (
        "tensor", "fan", "derelict", "derelict", "derelict", "derelict", "weaken"))

    def wire(*ends, weight=ONE):
        return net.new_edge(*(("node", *end) for end in ends), weight=weight)

    net.root = net.new_edge(("root",), ("node", t, "out"), watom("q"))
    to_x = wire((t, "left"), (d1, "in"))
    wire((d1, "out"), (d2, "in"), weight=watom("p", star=True))
    x = net.new_edge(("node", d2, "out"), ("free", "x"))
    wire((t, "right"), (f, "out"))
    wire((f, "left"), (d3, "in"), weight=watom("r"))
    y = net.new_edge(("node", d3, "out"), ("free", "y"))
    to_weakening = wire((f, "right"), (d4, "in"), weight=watom("s"))
    wire((d4, "out"), (w, "out"), weight=ZERO)
    net.free = {"x": x, "y": y}
    return net, to_x, to_weakening


def test_weight_set_takes_whole_chains_as_the_reference_takes_steps():
    net, to_x, to_weakening = chains_net()
    assert validate(net) == []
    table = DirectedEdges(net)
    tables = (table.words, table.interface, table.succ)
    # from T.left a path has one way on until it arrives at x, three steps
    # that read p*; after the root's q the word is null at the second
    end, word, hops = paths._run(state(net, to_x, 1), *tables)
    assert (table.interface[end], word, hops) == (True, watom("p", star=True), 2)
    assert normal_word(watom("q") + word) is None
    # from F.right the second step enters the weakening's zero
    end, word, hops = paths._run(state(net, to_weakening, 1), *tables)
    assert (table.words[end], word, hops) == (None, None, 1)
    words = weight_set(net)
    assert words == depth_first_weight_set(net)
    assert {format_weight(w) for w in words} == {"q.r", "r*.q*"}


def test_weight_set_budget_is_a_step_error():
    # a fuel of 50 holds church_two_twice's 23 lcf configurations and its
    # trace of 11 steps, but no search of its nets
    entry = prepare("church_two_twice",
                    parse_lambda(dict(CLASSICS)["church_two_twice"]))
    net = translate_cbv(entry.initial)
    with pytest.raises(FuelExhaustedError):
        weight_set(net, fuel=50)
    report = check_weight_invariance([entry], LCF, fuel=50)
    assert not report["ok"]
    assert report["failures"]
    assert all((f["problem"], f["error"]) == ("weight set not found", "FuelExhaustedError")
               for f in report["failures"])


def test_taking_whole_runs_never_loosens_the_budget():
    # a search that null-tests every step needs 436 visits on the cbv net of
    # church_two_twice and 397 on its cbn net.  Taking whole runs charges
    # every step of a run, even past a null prefix, so it needs no fewer
    entry = prepare("church_two_twice",
                    parse_lambda(dict(CLASSICS)["church_two_twice"]))
    for translate, stepwise, runs in ((translate_cbv, 436, 643),
                                      (translate_cbn, 397, 548)):
        assert runs >= stepwise
        net = translate(entry.initial)
        for fuel in (stepwise - 1, runs - 1):
            with pytest.raises(FuelExhaustedError):
                weight_set(net, fuel)
        assert len(weight_set(net, runs)) == 8


def test_term_without_normal_form_exhausts_the_budget():
    # the live words of a net whose term does not normalise never run out;
    # the fuel stops each search, the default one too, and each step is an
    # error.  Its trace runs out of fuel as well, and that is one more
    # failure, of another kind: a search out of fuel stays a search's
    omega = prepare("omega", parse_lambda("(\\x.x x) (\\x.x x)"))
    for calculus, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
        with pytest.raises(FuelExhaustedError):
            weight_set(translate(omega.initial))
        report = check_weight_invariance([omega], calculus, fuel=3)
        assert not report["ok"]
        *steps, last = report["failures"]
        assert report["steps_checked"] == len(steps) > 0
        assert report["failures_total"] == len(steps) + 1
        assert all((f["problem"], f["error"]) == ("weight set not found", "FuelExhaustedError")
                   for f in steps)
        assert last == failure("trace fuel exhausted", "omega", calculus)


def test_invariance_sigma_step_exact():
    # the Var step of the identity application preserves the live weight
    # set exactly, in both calculi
    t = identity_application()
    for calc, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
        trace = reduce(Configuration(t), calc)
        assert [ts.site.rule for ts in trace] == ["Beta", "Var"]
        before = trace[0].config.term
        after = trace[1].config.term
        report = check_invariance(weight_set(translate(before)),
                                  weight_set(translate(after)))
        assert report["live_equal"], report


def test_invariance_beta_shows_the_static_gap():
    # Beta consumes the multiplicative pair; paths that bounce on the bound
    # variable's axiom and leave through the root premise have no
    # counterpart once the pair is gone.  Their words are null, so the
    # search drops them and the live sets of the step agree.
    t = identity_application()
    for calc, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
        after = reduce(Configuration(t), calc)[0].config.term
        report = check_invariance(weight_set(translate(t)),
                                  weight_set(translate(after)))
        assert report["live_equal"], report
        assert report["live_left_only"] == report["live_right_only"] == []
        assert weight_set(translate(after))


def test_lcf_beta_wanderer_word_is_the_counterexample():
    # a static word of the redex net that the Beta step loses: it is null,
    # so it is no live word of either net
    t = identity_application()
    after = reduce(Configuration(t), LCF)[0].config.term
    wanderer = parse_word("q.d.!(q*).!(p).d*.q*")
    assert normal_word(wanderer) is None
    assert wanderer not in weight_set(translate_cbv(t))
    assert wanderer not in weight_set(translate_cbv(after))
    assert check_invariance(weight_set(translate_cbv(t)),
                            weight_set(translate_cbv(after)))["live_equal"]


def test_live_words_have_the_stable_form():
    # in the dynamic algebra a live straight-path weight rewrites to all
    # involutions followed by all generators (the mirror of AB*).  Church two
    # applied to itself is the net that needs t*, not t, as the generator of
    # the auxiliary door for this to hold
    church = prepare("c", parse_lambda("(\\f.\\x.f (f x)) (\\g.\\y.g (g y))"))
    live_nets = 0
    closed = [prepare(name, term) for name, term in closed_terms(5)]
    for entry in closed + [church]:
        for translate in (translate_cbv, translate_cbn):
            net = translate(entry.initial)
            live = live_words(weight_set(net))
            live_nets += bool(live)
            for key in live:
                generators = [star == (base == "t")
                              for base, star, _ in normal_word(key)]
                assert generators == sorted(generators), format_weight(key)
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


def test_weight_member_follows_a_path_longer_than_the_recursion_limit():
    # a search that recursed once per path step raised RecursionError here
    entry = prepare("twice_twice", parse_lambda(
        "(\\f.\\x.f (f x)) (\\f.\\x.f (f x)) (\\g.\\y.g (g y))"))
    net = translate_cbv(entry.initial)
    longest = max(weight_set(net), key=lambda word: (len(word), word))
    assert len(longest) == 460
    assert weight_member(net, longest)
    base, star, level = longest[-1]
    assert not weight_member(net, longest[:-1] + ((base, not star, level),))


def test_an_error_in_one_pair_fails_criterion_9_without_aborting_it(
        monkeypatch):
    # each entry reads its lcf final label, then its lca one: the lca read
    # raises, and the lcf pair is still checked
    reads = []

    def lw_raising_for_lca(label, level):
        reads.append(label)
        if len(reads) % 2 == 0:
            raise LevelUnderflowError("injected")
        return lw(label, level)

    monkeypatch.setattr(checks, "lw", lw_raising_for_lca)
    report = checks.check_goi_end_to_end([prepare("id", parse_lambda("\\x.x"))])
    assert not report["ok"]
    assert report["failures"] == [failure("final weight not decided", "id", LCA,
                                          error="LevelUnderflowError", detail="injected")]
    assert report["checked"] == 1


def test_criterion_9_builds_a_net_only_for_a_non_empty_weight(monkeypatch):
    # 21 of the 205 corpus(7) entries end on a non-empty weight, in both
    # calculi; the empty path realises every other final weight
    built = []

    def counted(translate):
        def count(term):
            built.append(term)
            return translate(term)
        return count

    monkeypatch.setattr(checks, "translate_cbv", counted(translate_cbv))
    monkeypatch.setattr(checks, "translate_cbn", counted(translate_cbn))
    report = checks.check_goi_end_to_end(corpus(7))
    assert report["ok"] and report["checked"] == 410
    assert len(built) == 42


def test_a_net_that_cannot_be_built_for_a_non_empty_weight_fails_criterion_9(
        monkeypatch):
    # (\x.x) (\y.y) ends on a non-empty weight in both calculi, \x.x on
    # the empty one, which reads no net
    def refuse(term):
        raise TranslationError("injected")

    monkeypatch.setattr(checks, "translate_cbv", refuse)
    monkeypatch.setattr(checks, "translate_cbn", refuse)
    report = checks.check_goi_end_to_end([
        prepare("id", parse_lambda("\\x.x")),
        prepare("id_id", parse_lambda("(\\x.x) (\\y.y)"))])
    assert report["failures"] == [
        failure("final weight not decided", "id_id", calculus,
                error="TranslationError", detail="injected") for calculus in (LCF, LCA)]
    assert report["checked"] == 2


def test_an_unexpected_exception_fails_criterion_9_without_aborting_it(
        monkeypatch):
    # a fault of any type in the call-by-value translator fails its pair,
    # and the lca pair of the same entry is still checked
    def faulty(term):
        raise TypeError("injected")

    monkeypatch.setattr(checks, "translate_cbv", faulty)
    report = checks.check_goi_end_to_end(
        [prepare("id_id", parse_lambda("(\\x.x) (\\y.y)"))])
    assert report["failures"] == [failure("final weight not decided", "id_id", LCF,
                                          error="TypeError", detail="injected")]
    assert report["checked"] == 1


def test_criterion_9_reports_a_final_weight_that_no_path_realises(monkeypatch):
    monkeypatch.setattr(checks, "weight_member", lambda net, word, fuel: False)
    report = checks.check_goi_end_to_end([
        prepare("id", parse_lambda("\\x.x")),
        prepare("id_id", parse_lambda("(\\x.x) (\\y.y)"))])
    assert report["failures"] == [
        failure("final weight not realised", "id_id", calculus) for calculus in (LCF, LCA)]
    assert report["checked"] == 4


def test_swapped_translations_fail_and_every_failure_is_counted(monkeypatch):
    # the control of a mutation matrix: each calculus checked against the
    # other's translation.  Criteria 6, 7 and 9 fail, and each whole-corpus
    # report counts every failure its entries make one at a time, however
    # few it lists.  Some swapped nets have more live paths than the
    # default fuel of 10,000 visits lets a search follow, and those
    # searches take about 20 s here; a fuel of 1,000 stops each of them in
    # well under a second, and a search it stops is a failure either way.
    # No graph or trace of corpus(5) needs that much
    monkeypatch.setattr(checks, "translate_cbv", translate_cbn)
    monkeypatch.setattr(checks, "translate_cbn", translate_cbv)
    entries = corpus(5)
    suites = {6: lambda e: check_weight_invariance(e, LCF, fuel=1000),
              7: lambda e: check_weight_invariance(e, LCA, fuel=1000),
              9: lambda e: checks.check_goi_end_to_end(e, fuel=1000)}
    records, gaining = {}, {}
    for number, suite in suites.items():
        whole = suite(entries)
        with monkeypatch.context() as patch:  # every record listed
            patch.setattr(checks, "FAILURES_LISTED", 10_000)
            alone = [suite([entry]) for entry in entries]
        records[number] = [f for report in alone for f in report["failures"]]
        assert whole["failures_total"] == len(records[number]) == sum(
            report["failures_total"] for report in alone)
        assert whole["failures"] == records[number][:checks.FAILURES_LISTED]
        if number == 9:
            continue
        assert whole["failing_rules"] == sorted({f["rule"] for f in records[number]})
        # containment fails exactly where a record holds a gained live word
        for report, own in [(r, r["failures"]) for r in alone] + [(whole, records[number])]:
            gains = [f for f in own if isinstance(f["detail"], dict) and f["detail"]["gained"]]
            assert report["containment_ok"] == (not gains)
            assert all(f["problem"] == "live words gained" for f in gains)
        gaining[number] = {f["entry"] for f in records[number]
                           if f["problem"] == "live words gained"}
    assert [len(records[number]) for number in suites] == [142, 175, 10]
    # read from the records' error field, not from any text
    assert Counter(f["error"] for f in records[6]) == {
        "TranslationError": 124, "LevelUnderflowError": 18}
    assert Counter(f["error"] for f in records[7]) == {
        "FuelExhaustedError": 123, "LevelUnderflowError": 33, None: 19}
    assert gaining == {6: set(), 7: {"closed_05_012", "triple_identity",
                                     "apply_to_identity", "copy_under_binder",
                                     "church_two_twice"}}


def test_lca_var_without_its_marker_is_caught_by_criteria_7_8_and_9(monkeypatch):
    # a mutant of the mutation matrix: lca's Var rule drops the D> it puts
    # after a variable's label, written as a wrapper of the rules' match.
    # Its words grow without end, and at the default fuel of 10,000 visits
    # its searches take minutes; at a fuel of 1,000 the whole run takes
    # under a second.  No graph, trace or search of corpus(5) needs that
    # much unmutated (criterion 7 passes at it), so only the mutant runs out
    entries = corpus(5)
    assert check_weight_invariance(entries, LCA, fuel=1000)["ok"]
    contractions = calculus._contractions

    def without_d(node, calc, rules):
        out = contractions(node, calc, rules)
        if calc == LCA and out and out[0][0] == "Var" and node.body.label is not None:
            return (("Var", (bullet(node.body.label, node.arg), None)),)
        return out

    monkeypatch.setattr(calculus, "_contractions", without_d)
    monkeypatch.setattr(checks, "FAILURES_LISTED", 10_000)  # every record listed
    reports = {4: checks.check_confluence(entries, LCA, fuel=1000),
               5: checks.check_label_lemmas(entries, LCA, fuel=1000),
               7: check_weight_invariance(entries, LCA, fuel=1000),
               8: checks.check_net_simulation(entries, fuel=1000),
               9: checks.check_goi_end_to_end(entries, fuel=1000)}
    kinds = {number: Counter((f["calculus"], f["problem"], f["error"])
                             for f in report["failures"])
             for number, report in reports.items()}
    assert kinds == {
        4: {}, 5: {},
        7: {(LCA, "weight set not found", "FuelExhaustedError"): 96,
            (LCA, "live words gained", None): 15},
        8: {(LCA, "no cut step reaches the reduct", None): 72},
        9: {(LCA, "final weight not realised", None): 3}}
    assert [reports[n]["steps_checked"] for n in (7, 8)] == [178, 178]
    assert not reports[7]["containment_ok"]
    assert all(r["failures_total"] == len(r["failures"]) for r in reports.values())


def test_erased_terms_carry_zero_weight():
    entry = prepare("k", parse_lambda("(\\x.\\y.y) (\\z.z)"))
    config = Configuration(entry.initial)
    trace = reduce(config, LCF)
    erased = set()
    for ts in trace:
        erased |= ts.config.erased
    assert erased
    for term in erased:
        assert lw(label_of(term), 5).weight is None



def classic(name):
    return prepare(name, parse_lambda(dict(CLASSICS)[name]))


def rechecked(entry, calculus, fuel):
    """``check_weight_invariance``'s report on one entry at ``fuel``, made
    by translating and searching both nets of every step afresh."""
    translate = translate_cbv if calculus == LCF else translate_cbn
    failures, exhausted = [], []
    steps = list(_step_edges(entry, calculus, fuel, exhausted))
    assert exhausted == []  # no trace here runs out of fuel
    for src, site, dst in steps:
        where = entry.name, calculus, site.rule, site.position
        try:
            report = check_invariance(weight_set(translate(src), fuel),
                                      weight_set(translate(dst), fuel))
        except FuelExhaustedError as exc:
            failures.append(failure("weight set not found", *where,
                                    error="FuelExhaustedError", detail=str(exc)))
            continue
        lost, gained = report["live_left_only"], report["live_right_only"]
        if not report["live_equal"]:
            failures.append(failure("live words gained" if gained else "live words lost",
                                    *where, detail={"lost": lost, "gained": gained}))
    return {"ok": not failures, "failures": failures[:checks.FAILURES_LISTED],
            "failures_total": len(failures), "steps_checked": len(steps),
            "containment_ok": not any(f["detail"].get("gained") for f in failures
                                      if f["error"] is None),
            "failing_rules": sorted({f["rule"] for f in failures})}


def test_each_term_is_translated_and_searched_once_per_call(monkeypatch):
    # many steps share a source or a reduct; its live words are found once.
    # A fuel of 300 visits stops the search of 14 of church_two_twice's 23
    # lcf nets, some shared by two steps, so failing reports are compared
    # too, and a search that raises is made once.  It holds every graph
    # here whole
    entries = (classic("church_two_twice"), classic("apply_to_identity"))
    reports, repeats = [], 0
    for calculus, name, translate in ((LCF, "translate_cbv", translate_cbv),
                                      (LCA, "translate_cbn", translate_cbn)):
        for entry in entries:
            steps = list(_step_edges(entry, calculus, 300, []))
            terms = {term for src, _, dst in steps for term in (src, dst)}
            translated, built, searched = [], [], []

            def counted_translate(term):
                translated.append(term)
                built.append(translate(term))
                return built[-1]

            def counted_search(net, fuel):
                searched.append(net)
                return weight_set(net, fuel)

            with monkeypatch.context() as patch:
                patch.setattr(checks, name, counted_translate)
                patch.setattr(checks, "weight_set", counted_search)
                report = check_weight_invariance([entry], calculus, fuel=300)
            assert len(translated) == len(set(translated)) == len(terms)
            assert set(translated) == terms
            assert searched == built
            assert report == rechecked(entry, calculus, 300)
            reports.append(report)
            repeats += 2 * len(steps) - len(terms)
    assert repeats > 0  # a search per step side would repeat some
    assert [r["ok"] for r in reports] == [False, True, False, True]


def test_a_complete_graph_holds_every_trace_step():
    # why check_weight_invariance reads the trace only for an incomplete
    # graph: each leftmost-outermost step is one of the graph's steps
    traced = 0
    for calculus in (LCF, LCA):
        for entry in corpus(6):
            graph = reduction_graph(Configuration(entry.initial), calculus)
            assert graph.complete, entry.name
            steps = {(src.term, site, dst.term)
                     for src, site, dst in graph.steps()}
            trace = _trace(entry, calculus, 10_000)
            for before, ts in zip(trace, trace[1:]):
                assert (before.config.term, ts.site, ts.config.term) in steps
                traced += 1
    assert traced > 100


def test_an_incomplete_graph_still_checks_the_trace():
    # six identities applied in turn to \y.y: each calculus has 729
    # configurations but a trace of 12 steps, and no search of a net met
    # here needs more than 396 visits.  A fuel of 400 cuts each graph
    # short, not the trace, nor any search
    source = "\\y.y"
    for i in range(6):
        source = f"(\\x{i}.x{i}) ({source})"
    entry = prepare("identities", parse_lambda(source))
    for calculus in (LCF, LCA):
        assert len(_trace(entry, calculus, FUEL)) == 13
        graph = reduction_graph(Configuration(entry.initial), calculus, fuel=400)
        assert not graph.complete
        graph_steps = {(src.term, site, dst.term)
                       for src, site, dst in graph.steps()}
        report = check_weight_invariance([entry], calculus, fuel=400)
        assert report["ok"]
        assert report["steps_checked"] > len(graph_steps)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms())
def test_lca_steps_of_random_terms_keep_the_live_words(term):
    # every lca step preserves the live words
    entry = prepare("random", term)
    graph = reduction_graph(Configuration(entry.initial), LCA, fuel=300)
    assume(graph.complete)
    assert check_weight_invariance([entry], LCA)["ok"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms())
def test_lcf_steps_of_random_terms_keep_the_live_words(term):
    # every lcf step preserves the live words
    entry = prepare("random", term)
    graph = reduction_graph(Configuration(entry.initial), LCF, fuel=300)
    assume(graph.complete)
    assert check_weight_invariance([entry], LCF)["ok"]


# lcf Beta steps that substitute an open argument.  With the erased binder
# at the erase node's level, each but closed_09_1898 gained live words or
# could not be translated; with it where its body's whole label ends rather
# than its last overline, the last two underflow a level
@pytest.mark.parametrize("name, source", [
    ("closed_08_358", "\\x0.x0 ((\\x1.\\x2.x2) x0)"),
    ("closed_08_460", "\\x0.(\\x1.\\x2.x2) x0 x0"),
    ("closed_08_389", "\\x0.(\\x1.\\x2.x2) (x0 x0)"),
    ("closed_09_1898", "(\\x0.\\x1.(\\x2.x0) x0) (\\x0.x0)"),
    ("closed_09_1906", "(\\x0.(\\x1.x0) (\\x1.x0)) (\\x0.x0)"),
])
def test_lcf_open_argument_beta_keeps_the_live_words(name, source):
    entry = prepare(name, parse_lambda(source))
    assert check_weight_invariance([entry], LCF)["ok"]
