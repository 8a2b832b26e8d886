import random

import pytest
from conftest import closed_lambda_terms
from hypothesis import given, settings, strategies as st

from goilab import checks, nets
from goilab.algebra import (ONE, ZERO, LevelUnderflowError, compose,
                            format_weight, watom)
from goilab.calculus import (LCA, LCF, Configuration, find_redexes,
                             reduction_graph, step)
from goilab.checks import check_net_simulation
from goilab.corpus import CLASSICS, corpus, prepare
from goilab.labelled import initialize
from goilab.labels import atomic
from goilab.nets import (Box, Edge, Net, NetError, NotACutError, NotClosedError,
                         TranslationError, _contract, _splice,
                         canonical_signature, closed_cut_step, contracted,
                         eligible_cuts, from_json, iso_check, to_dot, to_json,
                         translate_cbn, translate_cbv, validate)
from goilab.terms import (Abs, App, Subst, Var, compile_term, parse,
                          parse_lambda, strip_labels)


def identity_application():
    return App(Abs("x", Var("x", atomic("d")), atomic("a")),
               Abs("y", Var("y", atomic("e")), atomic("b")),
               atomic("c"))


def kinds(net):
    return sorted(net.nodes.values())


# --- translation shapes ------------------------------------------------------

def test_cbv_variable_is_an_axiom_wire():
    net = translate_cbv(Var("x", atomic("a")))
    assert kinds(net) == ["ax"]
    assert len(net.edges) == 2
    assert all(e.weight.is_one for e in net.edges.values())
    assert set(net.free) == {"x"}


def test_cbn_variable_carries_a_dereliction():
    net = translate_cbn(Var("x", atomic("a")))
    assert kinds(net) == ["ax", "derelict"]
    d_edges = [e for e in net.edges.values() if not e.weight.is_one]
    assert len(d_edges) == 1
    assert format_weight(d_edges[0].weight) == "d"


def test_cbv_identity_application_shape():
    net = translate_cbv(identity_application())
    assert kinds(net) == ["ax", "ax", "bang", "bang", "cut", "derelict",
                          "par", "par", "tensor"]
    assert len(net.edges) == 11
    assert len(net.boxes) == 2
    assert validate(net, strict_levels=True) == []


def test_cbn_identity_application_has_one_box_around_the_argument():
    net = translate_cbn(identity_application())
    assert len(net.boxes) == 1
    box = next(iter(net.boxes.values()))
    assert box.auxiliaries == ()
    assert validate(net, strict_levels=True) == []


def test_cbv_fig1a_counts():
    entry = prepare("fig1a", parse_lambda("(\\x.\\y.x y) (\\z.z)"))
    net = translate_cbv(entry.initial)
    assert sum(1 for k in net.nodes.values() if k == "cut") == 2
    assert sum(1 for k in net.nodes.values() if k == "derelict") == 2
    assert len(net.boxes) == 3
    assert validate(net, strict_levels=True) == []


def test_open_abstraction_gets_auxiliary_door_cbv():
    entry = prepare("fig1a", parse_lambda("(\\x.\\y.x y) (\\z.z)"))
    net = translate_cbv(entry.initial)
    assert any(box.auxiliaries for box in net.boxes.values())
    assert any(k == "whynot" for k in net.nodes.values())


def test_copy_premises_carry_r_and_s():
    entry = prepare("dup", parse_lambda("(\\x.x x) (\\y.y)"))
    for translate in (translate_cbv, translate_cbn):
        net = translate(entry.initial)
        pm = net.port_map()
        fan = next(n for n, k in net.nodes.items() if k == "fan")
        left_edge = net.edges[pm[(fan, "left")][0]]
        right_edge = net.edges[pm[(fan, "right")][0]]
        assert left_edge.weight.atoms[-1].base == "r"
        assert right_edge.weight.atoms[-1].base == "s"


def test_erase_maps_to_absorbing_weakening():
    entry = prepare("k", parse_lambda("\\x.\\y.x"))
    net = translate_cbv(entry.initial)
    pm = net.port_map()
    weaken = next(n for n, k in net.nodes.items() if k == "weaken")
    assert net.edges[pm[(weaken, "out")][0]].weight.is_zero


def test_cbn_substitution_requires_reachable_label_shape():
    t = Subst(Var("x", atomic("a")), Abs("y", Var("y", atomic("b")), atomic("c")), "x")
    with pytest.raises(TranslationError):
        translate_cbn(t)


@pytest.mark.parametrize("translate", (translate_cbv, translate_cbn))
@pytest.mark.parametrize("text", ("copy[y->u,v].u", "(x)[y/z]", "eps[x].x"))
def test_translation_names_a_non_linear_copy_substitution_or_erasure(
        translate, text):
    with pytest.raises(TranslationError, match="linear"):
        translate(parse(text))


def test_unweighted_nets_ignore_labels_and_equal_weighted_ones_made_plain():
    # an unweighted net reads box depths as levels, as an unlabelled term does
    def plain(net):
        for e in net.edges.values():
            e.weight = ONE
        return to_json(net)

    compared = 0
    for entry in corpus(7):
        for calc in (LCF, LCA):
            for config in reduction_graph(Configuration(entry.initial), calc).configs:
                for translate in (translate_cbv, translate_cbn):
                    net = to_json(translate(config.term, weighted=False))
                    assert net == to_json(translate(strip_labels(config.term),
                                                    weighted=False))
                    try:
                        weighted = translate(config.term)
                    except (NetError, LevelUnderflowError):
                        continue
                    assert net == plain(weighted), (entry.name, calc)
                    compared += 1
    assert compared > 1000


def test_validate_flags_dangling_port():
    net = Net()
    ax = net.new_node("ax")
    net.new_edge(("root",), ("node", ax, "a"), ONE)
    problems = validate(net)
    assert any("empty port b" in p for p in problems)


def test_validate_strict_levels_flags_mismatch():
    net = Net()
    ax = net.new_node("ax")
    e1 = net.new_edge(("root",), ("node", ax, "a"), watom("q", level=3))
    net.new_edge(("node", ax, "b"), ("free", "x"), ONE)
    net.root = e1
    net.free["x"] = [e for e in net.edges][1]
    assert validate(net) == []
    assert any("box depth" in p for p in validate(net, strict_levels=True))


def boxed_axiom(door: bool):
    """root -> bang P; P.in -> axiom A -> free x, with P and A in one box;
    with ``door`` the free wire leaves through an auxiliary door Q."""
    net = Net()
    principal, ax = net.new_node("bang"), net.new_node("ax")
    net.root = net.new_edge(("root",), ("node", principal, "out"))
    net.new_edge(("node", principal, "in"), ("node", ax, "a"))
    contents = {principal, ax}
    if door:
        why = net.new_node("whynot")
        net.new_edge(("node", ax, "b"), ("node", why, "in"))
        net.free = {"x": net.new_edge(("node", why, "out"), ("free", "x"))}
        auxiliaries = (why,)
        contents.add(why)
    else:
        net.free = {"x": net.new_edge(("node", ax, "b"), ("free", "x"))}
        auxiliaries = ()
    bid = net.new_id()
    net.boxes[bid] = Box(principal, auxiliaries, contents)
    return net, bid


def test_validate_flags_an_edge_that_crosses_a_box_away_from_a_door():
    net, bid = boxed_axiom(door=False)
    assert validate(net) == [f"edge {net.free['x']} crosses box {bid} away from a door"]


def test_validate_accepts_edges_that_leave_through_a_door():
    net, _ = boxed_axiom(door=True)
    assert validate(net) == []


def test_validate_accepts_nested_boxes():
    # root -> P1; P1.in -> P2.out; P2.in -> weakening W; P2's box in P1's
    net = Net()
    p1, p2, w = net.new_node("bang"), net.new_node("bang"), net.new_node("weaken")
    net.root = net.new_edge(("root",), ("node", p1, "out"))
    net.new_edge(("node", p1, "in"), ("node", p2, "out"))
    net.new_edge(("node", p2, "in"), ("node", w, "out"))
    net.boxes[net.new_id()] = Box(p2, (), {p2, w})
    net.boxes[net.new_id()] = Box(p1, (), {p1, p2, w})
    assert validate(net) == []


def test_validate_flags_overlapping_boxes_by_box_then_by_edge():
    # root -> tensor T; T.left -> P1; T.right -> P2; P1.in and P2.in meet at
    # axiom A, which both boxes hold
    net = Net()
    t, p1, p2, ax = (net.new_node(k) for k in ("tensor", "bang", "bang", "ax"))
    net.root = net.new_edge(("root",), ("node", t, "out"))
    net.new_edge(("node", t, "left"), ("node", p1, "out"))
    net.new_edge(("node", t, "right"), ("node", p2, "out"))
    e1 = net.new_edge(("node", p1, "in"), ("node", ax, "a"))
    e2 = net.new_edge(("node", ax, "b"), ("node", p2, "in"))
    b1, b2 = net.new_id(), net.new_id()
    net.boxes[b2] = Box(p2, (), {p2, ax})
    net.boxes[b1] = Box(p1, (), {p1, ax})
    assert validate(net) == [f"boxes {b1},{b2} overlap without nesting",
                             f"edge {e1} crosses box {b2} away from a door",
                             f"edge {e2} crosses box {b1} away from a door"]


# --- isomorphism -------------------------------------------------------------

def test_iso_check_reflexive_and_rename_invariant():
    net = translate_cbv(identity_application())
    assert iso_check(net, net)
    renamed = from_json(to_json(net))
    shift = 1000
    renamed.nodes = {n + shift: k for n, k in renamed.nodes.items()}
    for e in renamed.edges.values():
        e.ends = [("node", end[1] + shift, end[2]) if end[0] == "node" else end
                  for end in e.ends]
    renamed.boxes = {b + shift: Box(bx.principal + shift,
                                    tuple(a + shift for a in bx.auxiliaries),
                                    {n + shift for n in bx.contents})
                     for b, bx in renamed.boxes.items()}
    assert iso_check(net, renamed)


def test_iso_check_distinguishes_node_kinds():
    a = Net()
    t = a.new_node("tensor")
    r = a.new_edge(("root",), ("node", t, "out"))
    a.new_edge(("node", t, "left"), ("free", "x"))
    a.new_edge(("node", t, "right"), ("free", "y"))
    a.root = r
    a.free = {"x": r + 1, "y": r + 2}
    b = Net()
    p = b.new_node("par")
    r2 = b.new_edge(("root",), ("node", p, "out"))
    b.new_edge(("node", p, "left"), ("free", "x"))
    b.new_edge(("node", p, "right"), ("free", "y"))
    b.root = r2
    b.free = {"x": r2 + 1, "y": r2 + 2}
    assert not iso_check(a, b)
    assert iso_check(a, a)


def renumbered(net, seed=0):
    """A copy of ``net`` with its node, edge and box ids permuted and its
    edges in another order."""
    rng = random.Random(seed)
    ids = sorted({*net.nodes, *net.edges, *net.boxes})
    fresh = [i + 1000 for i in range(len(ids))]
    rng.shuffle(fresh)
    new = dict(zip(ids, fresh))

    def end(e):
        return ("node", new[e[1]], e[2]) if e is not None and e[0] == "node" else e

    out = Net()
    out.nodes = {new[n]: kind for n, kind in net.nodes.items()}
    out.edges = {new[eid]: Edge([end(x) for x in net.edges[eid].ends],
                                net.edges[eid].weight)
                 for eid in rng.sample(list(net.edges), len(net.edges))}
    out.boxes = {new[b]: Box(new[bx.principal],
                             tuple(new[a] for a in bx.auxiliaries),
                             {new[n] for n in bx.contents})
                 for b, bx in net.boxes.items()}
    out.root = None if net.root is None else new[net.root]
    out.free = {name: new[eid] for name, eid in net.free.items()}
    return out


# --- splicing linking nodes --------------------------------------------------

def contracted_by_restarts(net):
    """``contracted`` as a restart loop: rebuild the port map, splice the
    first axiom or cut whose two ports sit on different edges, start over."""
    out = net.copy()
    while True:
        pm = out.port_map()
        for nid, kind in out.nodes.items():
            if kind in ("ax", "cut") and pm[(nid, "a")][0] != pm[(nid, "b")][0]:
                break
        else:
            return out
        _splice(out, out.port_map(), nid, "a", "b")


def test_contracted_makes_the_splices_of_the_restart_loop():
    # compared by to_json, so the fused edges' ids must agree too
    compared = 0
    for entry in corpus(6):
        for weighted, start in ((False, strip_labels(entry.initial)),
                                (True, entry.initial)):
            graph = reduction_graph(Configuration(start), LCA)
            terms = [start]
            for src, _, dst in graph.steps():
                terms += [src.term, dst.term]
            for term in dict.fromkeys(terms):
                net = translate_cbn(term, weighted=weighted)
                out, pm = _contract(net)
                # iso_check signs the contracted net through this map
                assert pm == out.port_map(), (entry.name, weighted)
                assert to_json(out) == \
                    to_json(contracted_by_restarts(net)), (entry.name, weighted)
                compared += 1
    assert compared > 300


def test_splicing_a_self_loop_raises_and_changes_nothing():
    net = Net()
    cut, der = net.new_node("cut"), net.new_node("derelict")
    net.new_edge(("node", cut, "a"), ("node", cut, "b"))
    net.root = net.new_edge(("root",), ("node", der, "out"))
    net.free = {"x": net.new_edge(("node", der, "in"), ("free", "x"))}
    pm = net.port_map()
    before, before_pm = to_json(net), dict(pm)
    with pytest.raises(NetError):
        _splice(net, pm, cut, "a", "b")
    assert to_json(net) == before
    assert pm == before_pm


def test_axiom_and_cut_in_a_cycle_contract_to_one_kept_loop():
    net = Net()
    ax, cut = net.new_node("ax"), net.new_node("cut")
    net.new_edge(("node", ax, "a"), ("node", cut, "a"))
    net.new_edge(("node", cut, "b"), ("node", ax, "b"))
    spliced = net.copy()
    pm = spliced.port_map()
    fused = _splice(spliced, pm, ax, "a", "b")
    assert pm == spliced.port_map() == {(cut, "a"): (fused, 0),
                                        (cut, "b"): (fused, 1)}
    out = contracted(net)
    assert to_json(out) == to_json(spliced)
    assert out.nodes == {cut: "cut"}
    assert net.nodes == {ax: "ax", cut: "cut"}
    assert iso_check(net, renumbered(net))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(), st.integers(0, 99))
def test_cbn_nets_of_random_terms_are_iso_to_renumbered_copies(term, seed):
    entry = prepare("random", term)
    for weighted in (False, True):
        net = translate_cbn(entry.initial, weighted=weighted)
        assert iso_check(net, renumbered(net, seed))
        out = contracted(net)
        pm = out.port_map()
        for nid, kind in out.nodes.items():
            if kind in ("ax", "cut"):
                assert pm[(nid, "a")][0] == pm[(nid, "b")][0], kind


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(), st.integers(0, 99))
def test_cbv_nets_of_random_terms_are_iso_to_renumbered_copies(term, seed):
    entry = prepare("random", term)
    for weighted in (False, True):
        net = translate_cbv(entry.initial, weighted=weighted)
        assert iso_check(net, renumbered(net, seed))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(max_size=12))
def test_nets_of_random_configurations_are_iso_to_renumbered_copies(term):
    # each calculus translates weighted as criteria 6 and 7 pair them; an
    # unweighted net ignores labels, so it is signed once per stripped term
    initial = prepare("random", term).initial
    stripped = set()
    for calc, paired in ((LCF, translate_cbv), (LCA, translate_cbn)):
        graph = reduction_graph(Configuration(initial), calc, max_configs=300)
        for config in graph.configs:
            paired(config.term)
            stripped.add(strip_labels(config.term))
    for bare in stripped:
        for translate in (translate_cbv, translate_cbn):
            net = translate(bare, weighted=False)
            assert iso_check(net, renumbered(net))


def test_a_door_in_an_erased_arguments_island_is_signed():
    # x02 leaves the \x1 box through a door into the island of the erased
    # argument; signing the box once looked that door up in the component
    term = parse("(\\x1.eps[x1].\\x2.eps[x2].(eps[x3].x01)[\\x0.x0/x01]"
                 "[\\x3.eps[x3].\\x4.eps[x4].x02/x3])[\\x0.x0/x02]")
    for translate in (translate_cbv, translate_cbn):
        net = translate(term, weighted=False)
        for seed in range(5):
            assert iso_check(net, renumbered(net, seed))


def test_criterion_8_signs_each_net_it_compares_once(monkeypatch):
    compared, signed = [], []
    real_iso_check, real_signature = checks.iso_check, nets._signature

    def recorded(a, b):
        compared.extend((a, b))
        return real_iso_check(a, b)

    def counted(net, pm):
        signed.append(net)
        return real_signature(net, pm)

    monkeypatch.setattr(checks, "iso_check", recorded)
    monkeypatch.setattr(nets, "_signature", counted)
    assert check_net_simulation(corpus(7))["ok"]
    distinct = {id(net): net for net in compared}
    assert len(signed) == len(distinct) < len(compared)
    monkeypatch.undo()
    for net in distinct.values():
        again = contracted(from_json(to_json(net)))
        assert net._signature == canonical_signature(again)


def test_net_operations_leave_their_input_unchanged():
    operations = 0
    for entry in corpus(5):
        config = Configuration(strip_labels(entry.initial))
        for src, _, dst in reduction_graph(config, LCA).steps():
            left, right = unlabelled_cbn(src.term), unlabelled_cbn(dst.term)
            before = to_json(left)
            for cut in eligible_cuts(left):
                closed_cut_step(left, cut)
                operations += 1
            iso_check(left, right)
            validate(left)
            assert to_json(left) == before, entry.name
    assert operations > 100


def test_simulation_stops_on_a_term_without_normal_form():
    omega = prepare("omega", parse_lambda("(\\x.x x) (\\x.x x)"))
    report = check_net_simulation([omega], graph_budget=50)
    assert report["fuel_exhausted"] == ["omega"]
    assert report["steps_checked"] == 0
    assert report["ok"]  # nine source nodes: beyond desk size
    identity = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))
    report = check_net_simulation([identity], graph_budget=1)
    assert report["fuel_exhausted"] == ["id"]
    assert report["failures"] == [{"term": "id",
                                   "problem": "fuel exhausted at desk size"}]


def test_simulation_reports_an_eligible_cut_that_does_not_step(monkeypatch):
    def broken(net, cut):
        raise NetError("no rewrite")

    monkeypatch.setattr(checks, "closed_cut_step", broken)
    identity = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))
    report = check_net_simulation([identity])
    assert not report["ok"]
    assert {"term": "id", "rule": "Beta",
            "problem": "eligible cut does not step",
            "error": "NetError: no rewrite"} in report["failures"]


def test_simulation_reports_nets_it_cannot_compare(monkeypatch):
    def broken(a, b):
        raise NetError("no signature")

    monkeypatch.setattr(checks, "iso_check", broken)
    entry = prepare("apply", parse_lambda("(\\x.\\y.x y) (\\z.z)"))
    report = check_net_simulation([entry])
    assert not report["ok"]
    rules = {f["rule"] for f in report["failures"]
             if f["problem"] == "nets cannot be compared"}
    assert {"Beta", "Lam"} <= rules
    assert all(f["error"] == "NetError: no signature" for f in report["failures"]
               if f["problem"] == "nets cannot be compared")
    assert not any(f["problem"] == "expected identical nets"
                   for f in report["failures"])


def test_box_holding_an_island_is_iso_and_simulated():
    # the Beta reduct's net has an interface-free island inside a box
    entry = prepare("closed_08_356", parse_lambda("\\x0.x0 ((\\x1.x0) (\\x1.x1))"))
    report = check_net_simulation([entry])
    assert report["ok"], report
    assert report["steps_checked"] == 2
    graph = reduction_graph(Configuration(strip_labels(entry.initial)), LCA)
    for src, _, dst in graph.steps():
        for term in (src.term, dst.term):
            net = unlabelled_cbn(term)
            for seed in range(3):
                assert iso_check(net, renumbered(net, seed))


def test_iso_check_sees_whether_a_box_holds_an_island():
    # root -> bang P, boxed alone or together with the island W -> Q <- W2
    def net_with(island_boxed):
        net = Net()
        principal, q = net.new_node("bang"), net.new_node("bang")
        w, w2 = net.new_node("weaken"), net.new_node("weaken")
        net.root = net.new_edge(("root",), ("node", principal, "out"))
        net.new_edge(("node", principal, "in"), ("free", "x"))
        net.free = {"x": net.root + 1}
        net.new_edge(("node", w, "out"), ("node", q, "out"))
        net.new_edge(("node", q, "in"), ("node", w2, "out"))
        contents = {principal, w, q, w2} if island_boxed else {principal}
        net.boxes[net.new_id()] = Box(principal, (), contents)
        return net

    boxed, apart = net_with(True), net_with(False)
    assert iso_check(boxed, renumbered(boxed))
    assert iso_check(apart, renumbered(apart))
    assert not iso_check(boxed, apart)


def test_json_round_trip_is_iso():
    for translate in (translate_cbv, translate_cbn):
        net = translate(identity_application())
        again = from_json(to_json(net))
        assert validate(again) == []
        assert iso_check(net, again)


def test_dot_export_has_box_clusters():
    net = translate_cbv(identity_application())
    dot = to_dot(net)
    assert dot.count("subgraph cluster_") == 2
    assert "digraph net" in dot


# --- closed cut elimination --------------------------------------------------

def unlabelled_cbn(term):
    return translate_cbn(term, weighted=False)


def test_multiplicative_step_matches_translation():
    entry = prepare("idapp", parse_lambda("(\\x.x) (\\y.y)"))
    t = strip_labels(entry.initial)
    config = Configuration(t)
    site = find_redexes(config, LCA)[0]
    reduct = step(config, site, LCA).term
    left = unlabelled_cbn(t)
    before_nodes = len(left.nodes)
    cuts = eligible_cuts(left)
    assert cuts
    out = closed_cut_step(left, cuts[0])
    assert validate(out) == []
    # tensor, par and the cut disappear; two fresh cuts appear
    assert len(out.nodes) == before_nodes - 1
    assert iso_check(out, unlabelled_cbn(reduct))


def test_dereliction_step_opens_the_box():
    entry = prepare("idapp", parse_lambda("(\\x.x) (\\y.y)"))
    config = Configuration(strip_labels(entry.initial))
    site = find_redexes(config, LCA)[0]
    after_beta = step(config, site, LCA)
    var_site = find_redexes(after_beta, LCA)[0]
    assert var_site.rule == "Var"
    reduct = step(after_beta, var_site, LCA).term
    left = unlabelled_cbn(after_beta.term)
    assert len(left.boxes) == 1
    hits = [closed_cut_step(left, c) for c in eligible_cuts(left)]
    matching = [n for n in hits if iso_check(n, unlabelled_cbn(reduct))]
    assert matching
    assert all(len(n.boxes) == 0 for n in matching)


def test_weakening_step_deletes_box_contents():
    entry = prepare("k", parse_lambda("(\\x.\\y.y) (\\z.z)"))
    config = Configuration(strip_labels(entry.initial))
    site = find_redexes(config, LCA)[0]
    after_beta = step(config, site, LCA)
    ers = [s for s in find_redexes(after_beta, LCA) if s.rule == "Ers1"]
    assert ers
    reduct = step(after_beta, ers[0], LCA).term
    left = unlabelled_cbn(after_beta.term)
    results = [closed_cut_step(left, c) for c in eligible_cuts(left)]
    good = [n for n in results if iso_check(n, unlabelled_cbn(reduct))]
    assert good
    assert all(len(n.nodes) < len(left.nodes) for n in good)


def test_dereliction_against_open_box_is_not_closed():
    t = Subst(Var("x"), App(Var("y"), Var("z")), "x")
    net = unlabelled_cbn(t)
    # the substitution cut faces a box with two auxiliary doors
    pm = net.port_map()
    cut = None
    for bid, box in net.boxes.items():
        if not box.auxiliaries:
            continue
        ext_edge, idx = pm[(box.principal, "out")]
        far = net.edges[ext_edge].ends[1 - idx]
        if far[0] == "node" and net.nodes[far[1]] == "cut":
            cut = far[1]
    assert cut is not None
    assert cut not in eligible_cuts(net)
    with pytest.raises(NotClosedError):
        closed_cut_step(net, cut)


def test_classification_rejects_a_non_cut_and_a_cut_against_the_interface():
    net = unlabelled_cbn(Var("x"))
    ax = next(nid for nid, kind in net.nodes.items() if kind == "ax")
    with pytest.raises(NotACutError):
        closed_cut_step(net, ax)
    # the cut's other side is an axiom, so only the interface stops it
    net = Net()
    cut, ax = net.new_node("cut"), net.new_node("ax")
    net.root = net.new_edge(("root",), ("node", cut, "a"))
    net.new_edge(("node", cut, "b"), ("node", ax, "a"))
    net.free = {"x": net.new_edge(("node", ax, "b"), ("free", "x"))}
    assert validate(net) == []
    with pytest.raises(NetError, match="interface"):
        closed_cut_step(net, cut)
    assert eligible_cuts(net) == []


def test_cut_elimination_builds_one_port_map_per_operation(monkeypatch):
    built = []
    port_map = Net.port_map

    def counted(net):
        built.append(net)
        return port_map(net)

    def maps_built(fn, *args):
        built.clear()
        result = fn(*args)
        return result, len(built)

    monkeypatch.setattr(Net, "port_map", counted)
    stepped = 0
    for text in ("(\\x.x x) (\\y.y)", dict(CLASSICS)["church_two_twice"]):
        config = Configuration(strip_labels(prepare("t", parse_lambda(text)).initial))
        for src, _, dst in reduction_graph(config, LCA).steps():
            left, right = unlabelled_cbn(src.term), unlabelled_cbn(dst.term)
            cuts, maps = maps_built(eligible_cuts, left)
            assert maps == 1
            assert maps_built(iso_check, left, right)[1] <= 2
            for cut in cuts:
                out, maps = maps_built(closed_cut_step, left, cut)
                assert maps == 1
                assert maps_built(iso_check, out, right)[1] <= 2
                stepped += 1
    assert stepped > 50


def test_contraction_step_duplicates_box():
    entry = prepare("dup", parse_lambda("(\\x.x x) (\\y.y)"))
    config = Configuration(strip_labels(entry.initial))
    site = find_redexes(config, LCA)[0]
    after_beta = step(config, site, LCA)
    cpy = [s for s in find_redexes(after_beta, LCA) if s.rule == "Cpy1"]
    assert cpy
    reduct = step(after_beta, cpy[0], LCA).term
    left = unlabelled_cbn(after_beta.term)
    closed_boxes = [b for b in left.boxes.values() if not b.auxiliaries]
    assert len(closed_boxes) == 1
    results = [closed_cut_step(left, c) for c in eligible_cuts(left)]
    good = [n for n in results if iso_check(n, unlabelled_cbn(reduct))]
    assert good
    assert all(len(n.boxes) == len(left.boxes) + 1 for n in good)


def test_commutative_step_moves_box_inside():
    # drive App2 on (M N)[P/x] with x free in N: a closed box commutes
    # through an auxiliary door
    entry = prepare("t", parse_lambda("(\\x.\\y.y x) (\\z.z)"))
    config = Configuration(strip_labels(entry.initial))
    trace_sites = []
    while True:
        sites = find_redexes(config, LCA)
        if not sites:
            break
        app2 = [s for s in sites if s.rule == "App2"]
        if app2:
            src = config.term
            dst = step(config, app2[0], LCA).term
            left = unlabelled_cbn(src)
            results = [closed_cut_step(left, c) for c in eligible_cuts(left)]
            assert any(iso_check(n, unlabelled_cbn(dst)) for n in results)
            return
        config = step(config, sites[0], LCA)
        trace_sites.append(sites[0].rule)
    raise AssertionError(f"no App2 step found along {trace_sites}")


def test_initialized_translations_have_strict_levels_corpus():
    # weight levels equal box depths everywhere on freshly initialised nets
    for entry in corpus(5, classics=False):
        for translate in (translate_cbv, translate_cbn):
            net = translate(entry.initial)
            assert validate(net, strict_levels=True) == [], entry.name
