import hashlib
import json
import random
from collections import Counter

import pytest
from conftest import closed_lambda_terms, failure, port_scan
from hypothesis import given, settings, strategies as st
from iso_oracle import labelled_graph, vf2_iso

from goilab import calculus, checks, nets
from goilab.algebra import (ONE, ZERO, LevelUnderflowError, format_weight, involute,
                            watom)
from goilab.calculus import (LCA, LCF, Configuration, find_redexes,
                             reduction_graph, step)
from goilab.checks import check_net_simulation
from goilab.corpus import CLASSICS, corpus, prepare
from goilab.labelled import initialize
from goilab.labels import LEFT, RIGHT, atomic, mark
from goilab.nets import (Box, Edge, Net, NetError, NotACutError, NotClosedError,
                         TranslationError, _fuse,
                         canonical_signature, closed_cut_step,
                         eligible_cuts, iso_check, to_dot, to_json,
                         translate_cbn, translate_cbv, validate)
from goilab.paths import weight_set
from goilab.terms import (Abs, App, Copy, Subst, Var, compile_term, parse,
                          parse_lambda)


def identity_application():
    return App(Abs("x", Var("x", atomic("d")), atomic("a")),
               Abs("y", Var("y", atomic("e")), atomic("b")),
               atomic("c"))


def kinds(net):
    return sorted(net.nodes.values())


def shape(net):
    """What every isomorphism keeps: how many nodes of each kind, and how
    many boxes, a net holds."""
    return Counter(net.nodes.values()), len(net.boxes)


def cuts(net):
    """The edges between two principal ports, in id order."""
    return [eid for eid, e in sorted(net.edges.items())
            if all(end[0] == "node" and end[2] == "out" for end in e.ends)]


def whole(net):
    """Every edge end is at the root, a free name or a port of a node, and
    the ends at nodes are the ports of the net's nodes, each once."""
    ends = [end for e in net.edges.values() for end in e.ends]
    at_nodes = sorted((end[1], end[2]) for end in ends
                      if end is not None and end[0] == "node")
    return (all(end is not None and end[0] in ("node", "root", "free") for end in ends)
            and at_nodes == sorted((nid, port) for nid, kind in net.nodes.items()
                                   for port in nets.PORTS[kind]))


def box_depth_problems(net):
    """Each atom level of an edge's weight that is not the edge's box depth,
    the number of boxes that hold both its ends (0 for an edge with an end
    that is not at a node).  A node's boxes are the box that lists it, the
    box that lists that one, and so on up.  Levels equal box depths on
    freshly initialised terms, and ``validate`` leaves the rule to this
    reference."""
    parent = {member: bid for bid, b in net.boxes.items() for member in b.contents}

    def boxes_of(end):
        held = set()
        if end is None or end[0] != "node":
            return held
        bid = parent.get(end[1])
        while bid is not None and bid not in held:  # a cycle of boxes ends it
            held.add(bid)
            bid = parent.get(bid)
        return held

    problems = []
    for eid, e in net.edges.items():
        depth = len(boxes_of(e.ends[0]) & boxes_of(e.ends[1])) \
            if len(e.ends) == 2 else 0
        problems += [f"edge {eid} atom level {level} != box depth {depth}"
                     for _, _, level in e.weight or () if 0 <= level != depth]
    return problems


# --- translation shapes ------------------------------------------------------

def test_cbv_variable_is_an_axiom_wire():
    # an axiom is an edge: from the root to the free name, with no node
    net = translate_cbv(Var("x", atomic("a")))
    assert kinds(net) == []
    assert len(net.edges) == 1
    assert all(e.weight == () for e in net.edges.values())
    assert net.free == {"x": net.root}


def test_cbn_variable_carries_a_dereliction():
    net = translate_cbn(Var("x", atomic("a")))
    assert kinds(net) == ["derelict"]
    d_edges = [e for e in net.edges.values() if e.weight != ()]
    assert len(d_edges) == 1
    assert format_weight(d_edges[0].weight) == "d"


def test_cbv_identity_application_shape():
    net = translate_cbv(identity_application())
    assert kinds(net) == ["bang", "bang", "derelict", "par", "par", "tensor"]
    assert len(net.edges) == 8
    # the application's dereliction meets the function's box
    (cut,) = cuts(net)
    assert sorted(net.nodes[end[1]] for end in net.edges[cut].ends) == [
        "bang", "derelict"]
    assert len(net.boxes) == 2
    assert validate(net) == box_depth_problems(net) == []


def test_cbn_identity_application_has_one_box_around_the_argument():
    net = translate_cbn(identity_application())
    assert len(net.boxes) == 1
    box = next(iter(net.boxes.values()))
    assert box.auxiliaries == ()
    assert validate(net) == box_depth_problems(net) == []


def test_cbv_fig1a_counts():
    entry = prepare("fig1a", parse_lambda("(\\x.\\y.x y) (\\z.z)"))
    net = translate_cbv(entry.initial)
    # x y applies a variable: its dereliction meets the binder's wire, not
    # a principal port, so only the outer application is a cut
    assert len(cuts(net)) == 1
    assert sum(1 for k in net.nodes.values() if k == "derelict") == 2
    assert len(net.boxes) == 3
    assert validate(net) == box_depth_problems(net) == []


def test_open_abstraction_gets_auxiliary_door_cbv():
    entry = prepare("fig1a", parse_lambda("(\\x.\\y.x y) (\\z.z)"))
    net = translate_cbv(entry.initial)
    assert any(box.auxiliaries for box in net.boxes.values())
    assert any(k == "whynot" for k in net.nodes.values())


def test_copy_premises_carry_r_and_s():
    entry = prepare("dup", parse_lambda("(\\x.x x) (\\y.y)"))
    for translate in (translate_cbv, translate_cbn):
        net = translate(entry.initial)
        fan = next(n for n, k in net.nodes.items() if k == "fan")
        left_edge = net.edges[net.ports[(fan, "left")][0]]
        right_edge = net.edges[net.ports[(fan, "right")][0]]
        assert left_edge.weight[-1][0] == "r"
        assert right_edge.weight[-1][0] == "s"


def test_erase_maps_to_absorbing_weakening():
    entry = prepare("k", parse_lambda("\\x.\\y.x"))
    net = translate_cbv(entry.initial)
    weaken = next(n for n, k in net.nodes.items() if k == "weaken")
    assert net.edges[net.ports[(weaken, "out")][0]].weight is None


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


@pytest.mark.parametrize("translate", (translate_cbv, translate_cbn))
@pytest.mark.parametrize("term, error, message", [
    # y enters a box its sibling z does not: a copy joins them at two levels
    (Copy("x", "y", "z", App(Var("y", mark(LEFT, "!")), Var("z"))),
     TranslationError, r"^copy targets at different levels \(1 vs 0\)$"),
    # x leaves a box at the outermost level
    (Abs("w", App(Var("w"), Var("x", mark(RIGHT, "?")))),
     LevelUnderflowError, r"^auxiliary door for x at level 0$")])
def test_translation_names_a_level_its_doors_cannot_reach(translate, term, error,
                                                          message):
    with pytest.raises(error, match=message):
        translate(term)


def test_translation_refuses_a_net_validate_finds_a_problem_in(monkeypatch):
    monkeypatch.setattr(nets, "validate", lambda net: ["injected", "twice"])
    for translate in (translate_cbv, translate_cbn):
        with pytest.raises(TranslationError, match="^injected; twice$"):
            translate(parse_lambda("\\x.x"))


def nested_view(text):
    """The JSON text ``to_json`` wrote with each box's ``contents`` replaced
    by the sorted nodes of its subtree, each box visited once: the export as
    it was when a box's contents listed every node nested in it."""
    data = json.loads(text)
    listed = {b["id"]: b["contents"] for b in data["boxes"]}
    for b in data["boxes"]:
        boxes, nodes = [b["id"]], []
        for bid in boxes:  # grows as the boxes inside are found
            nodes += [m for m in listed[bid] if m not in listed]
            boxes += [m for m in listed[bid] if m in listed and m not in boxes]
        b["contents"] = sorted(nodes)
    return json.dumps(data, indent=2, sort_keys=True)


def corpus_nets(size):
    """(net, its closed cut steps) for every translation of every
    configuration the lcf and lca graphs of corpus(size) reach, in order,
    or (the type name of the error, ()) for a translation that raises."""
    for entry in corpus(size):
        for calc in (LCF, LCA):
            for config in reduction_graph(Configuration(entry.initial), calc).edges:
                for translate in (translate_cbv, translate_cbn):
                    try:
                        net = translate(config.term)
                    except (NetError, LevelUnderflowError) as exc:
                        yield type(exc).__name__, ()
                        continue
                    yield net, [closed_cut_step(net, cut) for cut in eligible_cuts(net)]


def test_the_nets_of_the_size_6_graphs_are_pinned():
    # node and edge ids, weights and box contents of every translation of
    # every configuration the lcf and lca graphs of corpus(6) reach, in
    # order; a translation that raises is its error's type name.  The
    # second digest of each pair pins the net of every closed cut step of
    # each net, in cut order.  The nested pair pins each export's nested
    # view, the export as it was when a box listed every node nested in it
    export = [hashlib.sha256(), hashlib.sha256()]
    nested = [hashlib.sha256(), hashlib.sha256()]
    translations = raised = steps = 0
    for net, stepped in corpus_nets(6):
        translations += 1
        if isinstance(net, str):
            export[0].update(net.encode() + b"\n")
            nested[0].update(net.encode() + b"\n")
            raised += 1
            continue
        steps += len(stepped)
        for which, n in [(0, net), *((1, step) for step in stepped)]:
            text = to_json(n)
            export[which].update(text.encode() + b"\n")
            nested[which].update(nested_view(text).encode() + b"\n")
    assert (translations, raised, steps) == (708, 112, 497)
    assert [d.hexdigest() for d in export] == [
        "4eb51eb1db672bc78d16cbd2c8f42e656612f2c1d8046c8eeb53eabeb45043fc",
        "e78fd36e5789febe6fee4c9198a4b011eb9b61f3de589b410a728e47055b582c"]
    assert [d.hexdigest() for d in nested] == [
        "882b2f72358ad2120b920c82eca6e235a4259515c4d2bc338f58c4c5504713c3",
        "6e99d831ef14b8cd85c44c07628d386628d4d1d3aa7eb6129e9ed7407d893ab2"]


def test_the_signatures_of_the_size_7_graphs_and_their_cut_steps_are_pinned():
    # for each net of the corpus(7) graphs, lcf with cbv and lca with cbn,
    # in order, the sorted set of the signatures of the net and of its
    # closed cut steps; a translation that raises is its error's type name.
    # A step whose result signs as the net it started from (an axiom step,
    # where links are nodes) is free: the steps of its result count too, so
    # the digests do not depend on whether links are nodes or edges
    digests = {}
    for calc, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
        digest, signed = hashlib.sha256(), 0
        for entry in corpus(7):
            for config in reduction_graph(Configuration(entry.initial), calc).edges:
                try:
                    net = translate(config.term)
                except (NetError, LevelUnderflowError) as exc:
                    digest.update(type(exc).__name__.encode() + b"\n")
                    continue
                own = canonical_signature(net)
                signatures, same = {own}, [net]
                while same:
                    source = same.pop()
                    for cut in eligible_cuts(source):
                        out = closed_cut_step(source, cut)
                        signatures.add(signature := canonical_signature(out))
                        if signature == own:
                            same.append(out)
                signed += 1
                digest.update(repr(sorted(signatures)).encode() + b"\n")
        digests[calc] = signed, digest.hexdigest()
    assert digests == {
        LCF: (395, "13ac474adc65e8a55f0cc66a05bc3b1a19aa526ab8052ef88062cc98dcae7eb2"),
        LCA: (384, "cc3c808646a6bd543f56602739ff5ec32e150481572bc654105ea89f55aec65c")}


def test_the_export_lists_what_each_box_stores():
    # a box's JSON contents are the ids that lie directly in it, boxes
    # included, for every net and closed cut step of the corpus(5) graphs
    nets_read = boxes_in_boxes = 0
    for net, stepped in corpus_nets(5):
        for n in () if isinstance(net, str) else (net, *stepped):
            exported = {b["id"]: b["contents"] for b in json.loads(to_json(n))["boxes"]}
            assert exported == {bid: sorted(b.contents) for bid, b in n.boxes.items()}
            nets_read += 1
            boxes_in_boxes += sum(m in n.boxes for b in n.boxes.values()
                                  for m in b.contents)
    assert (nets_read, boxes_in_boxes) == (803, 754)


def test_validate_flags_dangling_port():
    net = Net()
    d = net.new_node("derelict")
    net.root = net.new_edge(("root",), ("node", d, "out"), ONE)
    problems = validate(net)
    assert any("empty port in" in p for p in problems)


def test_validate_strict_levels_flags_mismatch():
    net = Net()
    net.root = net.new_edge(("root",), ("free", "x"), watom("q", level=3))
    net.free["x"] = net.root
    # validate leaves levels apart from box depths to the strict reference
    assert validate(net) == []
    assert any("box depth" in p for p in box_depth_problems(net))


def boxed_dereliction(door: bool):
    """root -> bang P; P.in -> dereliction D -> free x, with P and D in one
    box; with ``door`` the free wire leaves through an auxiliary door Q."""
    net = Net()
    principal, der = net.new_node("bang"), net.new_node("derelict")
    net.root = net.new_edge(("root",), ("node", principal, "out"))
    net.new_edge(("node", principal, "in"), ("node", der, "out"))
    contents = {principal, der}
    if door:
        why = net.new_node("whynot")
        net.new_edge(("node", der, "in"), ("node", why, "in"))
        net.free = {"x": net.new_edge(("node", why, "out"), ("free", "x"))}
        auxiliaries = (why,)
        contents.add(why)
    else:
        net.free = {"x": net.new_edge(("node", der, "in"), ("free", "x"))}
        auxiliaries = ()
    bid = net.new_id()
    net.boxes[bid] = Box(principal, auxiliaries, contents)
    return net, bid


def test_validate_flags_an_edge_that_crosses_a_box_away_from_a_door():
    net, bid = boxed_dereliction(door=False)
    assert validate(net) == [f"edge {net.free['x']} crosses box {bid} away from a door"]


def test_validate_accepts_edges_that_leave_through_a_door():
    net, _ = boxed_dereliction(door=True)
    assert validate(net) == []


def test_validate_accepts_nested_boxes():
    # root -> P1; P1.in -> P2.out; P2.in -> weakening W; P2's box in P1's
    net = Net()
    p1, p2, w = net.new_node("bang"), net.new_node("bang"), net.new_node("weaken")
    net.root = net.new_edge(("root",), ("node", p1, "out"))
    net.new_edge(("node", p1, "in"), ("node", p2, "out"))
    net.new_edge(("node", p2, "in"), ("node", w, "out"))
    inner = net.new_id()
    net.boxes[inner] = Box(p2, (), {p2, w})
    net.boxes[net.new_id()] = Box(p1, (), {p1, inner})
    assert validate(net) == box_depth_problems(net) == []


def test_validate_flags_overlapping_boxes_by_box_then_by_edge():
    # root -> tensor T; T.left -> P1; T.right -> P2; P1.in and P2.in meet at
    # dereliction D, which both boxes list; D lies in the box that lists it
    # first
    net = Net()
    t, p1, p2, der = (net.new_node(k) for k in ("tensor", "bang", "bang", "derelict"))
    net.root = net.new_edge(("root",), ("node", t, "out"))
    net.new_edge(("node", t, "left"), ("node", p1, "out"))
    net.new_edge(("node", t, "right"), ("node", p2, "out"))
    e1 = net.new_edge(("node", p1, "in"), ("node", der, "out"))
    net.new_edge(("node", der, "in"), ("node", p2, "in"))
    b1, b2 = net.new_id(), net.new_id()
    net.boxes[b2] = Box(p2, (), {p2, der})
    net.boxes[b1] = Box(p1, (), {p1, der})
    assert validate(net) == [f"boxes {b2} and {b1} both list {der}",
                             f"edge {e1} crosses box {b2} away from a door",
                             f"edge {e1} crosses box {b1} away from a door"]


def negative_level():
    """A weight whose one atom lies below level 0, which ``watom`` refuses."""
    return (("q", False, -1),)


def end_at(eid, i, end):
    return lambda net: net.edges[eid].ends.__setitem__(i, end)


# one edit of boxed_dereliction(door=True) per problem validate reports,
# with the exact list it reports; the net numbers the bang P 1, the
# dereliction D 2, the root edge 3, P.in-D.out 4, the why-not Q 5, D.in-Q.in
# 6, Q.out-x 7, its box 8, which lists 1, 2 and 5
BROKEN = [
    (lambda net: net.edges[4].ends.append(None),
     ["edge 4 lacks two endpoints", "bang node 1 has empty port in",
      "derelict node 2 has empty port out"]),
    (end_at(4, 1, None),
     ["edge 4 has a dangling endpoint", "derelict node 2 has empty port out"]),
    (end_at(4, 1, ("node", 99, "out")),
     ["edge 4 references missing node 99", "derelict node 2 has empty port out",
      "edge 4 crosses box 8 away from a door"]),
    (end_at(4, 1, ("node", 2, "left")),
     ["edge 4 uses bad port left on derelict", "derelict node 2 has empty port out"]),
    # the second edge at a port is reported, after the edges between them
    (lambda net: (end_at(3, 1, ("node", 2, "in"))(net), end_at(4, 1, None)(net)),
     ["edge 4 has a dangling endpoint", "port (2, 'in') attached twice",
      "bang node 1 has empty port out", "derelict node 2 has empty port out",
      "edge 3 crosses box 8 away from a door"]),
    # the free map still names edge 7 for x, which no longer ends there
    (end_at(7, 1, ("root",)),
     ["edge 7 claims the root interface", "free edge 7 for x does not end at x"]),
    (end_at(7, 1, ("free", "y")),
     ["edge 7 claims free variable y", "free edge 7 for x does not end at x"]),
    (end_at(7, 1, ("elsewhere",)),
     ["edge 7 has unknown endpoint ('elsewhere',)",
      "free edge 7 for x does not end at x"]),
    (lambda net: net.new_node("weaken"), ["weaken node 9 has empty port out"]),
    (lambda net: net.free.__setitem__("y", 99), ["free edge for y missing"]),
    (lambda net: setattr(net, "root", 99),
     ["edge 3 claims the root interface", "root edge missing"]),
    # the interface maps name edges that exist but do not end there
    (lambda net: net.free.__setitem__("ghost", 3),
     ["free edge 3 for ghost does not end at ghost"]),
    (lambda net: setattr(net, "root", 7),
     ["edge 3 claims the root interface", "root edge 7 does not end at the root"]),
    # the bang P opens no box then
    (lambda net: setattr(net.boxes[8], "principal", 2),
     ["box 8 principal is not an of-course node", "bang node 1 is no box's door",
      "edge 3 crosses box 8 away from a door"]),
    (lambda net: setattr(net.boxes[8], "auxiliaries", (5, 2)),
     ["box 8 auxiliary 2 is not a why-not node"]),
    (lambda net: net.boxes.__setitem__(8, Box(1, (5, 5), {1, 2, 5})),
     ["box 8 names auxiliary 5 twice"]),
    (lambda net: net.boxes[8].contents.discard(5),
     ["box 8 doors must belong to the box",
      "edge 6 crosses box 8 away from a door"]),
    (lambda net: net.boxes[8].contents.add(99),
     ["box 8 lists 99, neither a node nor a box"]),
    # an edge is not a member either
    (lambda net: net.boxes[8].contents.add(4),
     ["box 8 lists 4, neither a node nor a box"]),
    # a second box 10 lists P and a new weakening 9; P stays in box 8
    (lambda net: net.boxes.__setitem__(10, Box(1, (), {1, net.new_node("weaken")})),
     ["weaken node 9 has empty port out", "boxes 8 and 10 both list 1"]),
    # a second box lists every node box 8 lists, beside it rather than around it
    (lambda net: net.boxes.__setitem__(9, Box(1, (5,), {1, 2, 5})),
     ["boxes 8 and 9 both list 1", "boxes 8 and 9 both list 2",
      "boxes 8 and 9 both list 5"]),
    # box 12 lists a member of each of the disjoint boxes 10 and 11, which
    # keep them; box 8 lists all three boxes, so its doors lie deeper
    (lambda net: (net.new_node("weaken"), net.boxes[8].contents.clear(),
                  net.boxes[8].contents.update({10, 11, 12}),
                  net.boxes.update({10: Box(1, (), {1, 2}), 11: Box(5, (), {5, 9}),
                                    12: Box(2, (), {2, 5})})),
     ["weaken node 9 has empty port out", "box 8 doors must belong to the box",
      "box 11 principal is not an of-course node",
      "box 12 principal is not an of-course node", "boxes 10 and 12 both list 2",
      "boxes 11 and 12 both list 5", "edge 6 crosses box 10 away from a door",
      "edge 6 crosses box 11 away from a door"]),
    # a box that lists itself, and two boxes that list each other; their
    # nodes count as in no box
    (lambda net: net.boxes[8].contents.add(8), ["box 8 lies inside a cycle of boxes"]),
    (lambda net: (net.boxes.__setitem__(9, Box(1, (5,), {8})),
                  net.boxes[8].contents.add(9)),
     ["box 9 doors must belong to the box", "box 8 lies inside a cycle of boxes",
      "box 9 lies inside a cycle of boxes"]),
    # box 10 lies in the cycle of box 8 and box 9 without being part of it
    (lambda net: (net.boxes.__setitem__(9, Box(1, (5,), {1, 5, 8})),
                  net.boxes[8].contents.difference_update({1, 5}),
                  net.boxes[8].contents.update({9, 10}),
                  net.boxes.__setitem__(10, Box(1, (), {1}))),
     ["box 8 doors must belong to the box", "boxes 9 and 10 both list 1",
      "box 8 lies inside a cycle of boxes", "box 9 lies inside a cycle of boxes",
      "box 10 lies inside a cycle of boxes"]),
    # the why-not Q lies in box 8 but is none of its auxiliaries
    (lambda net: setattr(net.boxes[8], "auxiliaries", ()),
     ["whynot node 5 is no box's door", "edge 7 crosses box 8 away from a door"]),
    # with no box, P and Q lie outside every box
    (lambda net: net.boxes.clear(),
     ["bang node 1 is no box's door", "whynot node 5 is no box's door"]),
    (lambda net: setattr(net.edges[4], "weight", negative_level()),
     ["edge 4 carries a negative level"]),
    (lambda net: setattr(net.edges[3], "weight", watom("q", 1)),
     ["edge 3 atom level 1 != box depth 0"]),
    # a second box around the first, with the same doors, puts P.in-A.a at
    # depth 2; it lists box 8 alone, so its doors are not its own members
    (lambda net: (net.boxes.__setitem__(9, Box(1, (5,), {8})),
                  setattr(net.edges[4], "weight", watom("q", 2) + watom("d", 1))),
     ["box 9 doors must belong to the box", "edge 4 atom level 1 != box depth 2"]),
    # an edge with a dangling end lies at depth 0, wherever its other end is
    (lambda net: (setattr(net.edges[6], "weight", watom("r", 1)),
                  end_at(6, 0, None)(net)),
     ["edge 6 has a dangling endpoint", "derelict node 2 has empty port in",
      "edge 6 atom level 1 != box depth 0"]),
    (lambda net: (net.boxes[8].contents.add(99), net.boxes[8].contents.discard(5)),
     ["box 8 doors must belong to the box", "box 8 lists 99, neither a node nor a box",
      "edge 6 crosses box 8 away from a door"]),
]


def test_validate_reports_each_problem_of_a_hand_broken_net():
    # the level rows are the box-depth reference's, reported after validate's
    net = boxed_dereliction(door=True)[0]
    assert validate(net) == box_depth_problems(net) == []
    for row, (edit, expected) in enumerate(BROKEN):
        net, _ = boxed_dereliction(door=True)
        edit(net)
        assert validate(net) + box_depth_problems(net) == expected, row


def test_validate_names_each_door_outside_every_box():
    # a bang cut against a weakening, root -> P.in and P.out - W.out, and a
    # lone why-not, root -> Q.out and Q.in -> free x, each in no box
    net = Net()
    bang, weaken = net.new_node("bang"), net.new_node("weaken")
    net.root = net.new_edge(("root",), ("node", bang, "in"))
    net.new_edge(("node", bang, "out"), ("node", weaken, "out"))
    assert validate(net) == [f"bang node {bang} is no box's door"]
    net = Net()
    why = net.new_node("whynot")
    net.root = net.new_edge(("root",), ("node", why, "out"))
    net.free = {"x": net.new_edge(("node", why, "in"), ("free", "x"))}
    assert validate(net) == [f"whynot node {why} is no box's door"]


def test_validate_checks_the_interface_maps_against_the_edges():
    # validate reads the root and free maps both ways: an edge's interface
    # end must be in the maps, and an edge the maps name must have the end,
    # so iso_check refuses such a net rather than sign it
    a = translate_cbn(identity_application())
    b = a.copy()
    b.free["ghost"] = a.root
    assert validate(b) == [f"free edge {a.root} for ghost does not end at ghost"]
    with pytest.raises(NetError, match="ghost"):
        iso_check(a, b)
    net = Net()
    e = net.new_edge(("free", "x"), ("free", "y"))
    net.root, net.free = e, {"x": e, "y": e}
    assert validate(net) == [f"root edge {e} does not end at the root"]


def test_export_ends_on_boxes_that_list_each_other():
    # boxes 8 and 9 list each other, and box 10 lists box 9 too: validate
    # reports them, the JSON lists what each box stores, and the dot
    # export, which walks down from the boxes no box lists, ends
    net, _ = boxed_dereliction(door=True)
    net.boxes[8].contents.add(9)
    net.boxes.update({9: Box(1, (5,), {8}), 10: Box(1, (5,), {9})})
    assert validate(net)[-2:] == ["box 8 lies inside a cycle of boxes",
                                  "box 9 lies inside a cycle of boxes"]
    assert {b["id"]: b["contents"] for b in json.loads(to_json(net))["boxes"]} == {
        8: [1, 2, 5, 9], 9: [8], 10: [9]}
    assert to_dot(net).count("subgraph cluster_") == 1


# --- isomorphism -------------------------------------------------------------

def test_iso_check_reflexive_and_rename_invariant():
    net = translate_cbv(identity_application())
    assert iso_check(net, net)
    renamed = Net()
    shift = 1000
    renamed.nodes = {n + shift: k for n, k in net.nodes.items()}
    renamed.edges = {eid: Edge([("node", end[1] + shift, end[2])
                                if end[0] == "node" else end for end in e.ends],
                               e.weight)
                     for eid, e in net.edges.items()}
    renamed.boxes = {b + shift: Box(bx.principal + shift,
                                    tuple(a + shift for a in bx.auxiliaries),
                                    {n + shift for n in bx.contents})
                     for b, bx in net.boxes.items()}
    renamed.root, renamed.free = net.root, dict(net.free)
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


# --- joining edges -----------------------------------------------------------

def test_splicing_a_self_loop_raises_and_changes_nothing():
    # a dereliction whose one edge runs from its premise to its conclusion:
    # joining the two ends of that edge would close a loop with no end
    net = Net()
    der, loop = net.new_node("derelict"), net.new_node("derelict")
    net.new_edge(("node", loop, "in"), ("node", loop, "out"))
    net.root = net.new_edge(("root",), ("node", der, "out"))
    net.free = {"x": net.new_edge(("node", der, "in"), ("free", "x"))}
    before, before_ports = to_json(net), dict(net.ports)
    with pytest.raises(NetError, match="loop with no end"):
        _fuse(net, net.ports[(loop, "in")], net.ports[(loop, "out")])
    assert to_json(net) == before
    assert net.ports == before_ports


@pytest.mark.parametrize("translate", [translate_cbv, translate_cbn])
def test_an_open_net_is_signed_from_its_free_edges(translate):
    # each free name anchors the edge that ends at it
    net = translate(parse_lambda("x y"))
    assert sorted(net.free) == ["x", "y"]
    assert all(("free", name) in net.edges[eid].ends for name, eid in net.free.items())
    (_, edges, _), islands = canonical_signature(net)
    assert islands == ()
    assert {key for edge in edges for key in edge[:2]} >= {(-1, 0, "x"), (-1, 0, "y")}
    assert iso_check(net, renumbered(net))


def tensor_meets_par(premises):
    """A dereliction from the root to the free ``x``, beside an island of a
    tensor T and a par P whose conclusions meet in a cut of weight d, and
    whose premises are wired in the pairs ``premises`` of ``(node, port)``,
    T and P named ``"T"`` and ``"P"``."""
    net = Net()
    made = {"T": net.new_node("tensor"), "P": net.new_node("par")}
    der = net.new_node("derelict")
    net.root = net.new_edge(("root",), ("node", der, "out"))
    net.free = {"x": net.new_edge(("node", der, "in"), ("free", "x"))}
    cut = net.new_edge(("node", made["T"], "out"), ("node", made["P"], "out"), watom("d"))
    for (a, pa), (b, pb) in premises:
        net.new_edge(("node", made[a], pa), ("node", made[b], pb))
    return net, cut


@pytest.mark.parametrize("premises", [
    pytest.param(((("T", "left"), ("P", "left")), (("T", "right"), ("P", "right"))),
                 id="side-to-side"),
    pytest.param(((("T", "left"), ("P", "right")), (("T", "right"), ("P", "left"))),
                 id="crossed"),
    pytest.param(((("T", "left"), ("T", "right")), (("P", "left"), ("P", "right"))),
                 id="premise-to-premise")])
def test_a_step_that_would_close_a_loop_raises_before_it_copies(premises, monkeypatch):
    # a closed loop of edges has no end to keep it by, so no step makes one:
    # the multiplicative step would join each premise edge of the tensor to
    # the par's, and here every chain of them comes round to where it
    # started.  The net validates, and the cut is eligible, but the step
    # raises before it copies the net; no proof-net has such a cut
    net, cut = tensor_meets_par(premises)
    assert validate(net) == [] and eligible_cuts(net) == [cut]
    before = snapshot(net)
    copied = []
    monkeypatch.setattr(Net, "copy", lambda net: copied.append(net))
    with pytest.raises(NetError, match="mult step would close a loop with no end"):
        closed_cut_step(net, cut)
    assert copied == [] and snapshot(net) == before


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(), st.integers(0, 99))
def test_cbn_nets_of_random_terms_are_iso_to_renumbered_copies(term, seed):
    net = translate_cbn(prepare("random", term).initial)
    assert iso_check(net, renumbered(net, seed))


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(), st.integers(0, 99))
def test_cbv_nets_of_random_terms_are_iso_to_renumbered_copies(term, seed):
    net = translate_cbv(prepare("random", term).initial)
    assert iso_check(net, renumbered(net, seed))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(closed_lambda_terms(max_size=12))
def test_nets_of_random_configurations_are_iso_to_renumbered_copies(term):
    # each calculus translates as criteria 6 and 7 pair them
    initial = prepare("random", term).initial
    for calc, paired in ((LCF, translate_cbv), (LCA, translate_cbn)):
        graph = reduction_graph(Configuration(initial), calc, fuel=300)
        for config in graph.edges:
            net = paired(config.term)
            copy = renumbered(net)
            assert iso_check(net, copy)
            assert shape(net) == shape(copy)


def test_a_door_in_an_erased_arguments_island_is_signed():
    # x02 leaves the \x1 box through a door into the island of the erased
    # argument; signing the box once looked that door up in the component
    term = parse("(\\x1.eps[x1].\\x2.eps[x2].(eps[x3].x01)[\\x0.x0/x01]"
                 "[\\x3.eps[x3].\\x4.eps[x4].x02/x3])[\\x0.x0/x02]")
    for translate in (translate_cbv, translate_cbn):
        net = translate(term)
        for seed in range(5):
            assert iso_check(net, renumbered(net, seed))


def test_criterion_8_signs_each_net_it_compares_once(monkeypatch):
    # every net criterion 8 compares is signed once, however many partners
    # it meets, and keeps its signature
    compared, signed = [], []
    real_iso_check = checks.iso_check
    real_signature = nets.canonical_signature

    def recorded(a, b):
        same = real_iso_check(a, b)
        compared.append((a, b, same))
        return same

    def counted(net):
        signed.append(net)
        return real_signature(net)

    monkeypatch.setattr(checks, "iso_check", recorded)
    monkeypatch.setattr(nets, "canonical_signature", counted)
    assert check_net_simulation(corpus(7))["ok"]
    monkeypatch.undo()
    distinct = {id(net): net for a, b, _ in compared for net in (a, b)}
    # canonical_signature signs the net it is given
    assert sorted(map(id, signed)) == sorted(distinct)
    for net in distinct.values():
        assert net._signature == canonical_signature(net)
    accepted = [(a, b) for a, b, same in compared if same]
    assert accepted and all(shape(a) == shape(b) for a, b in accepted)


def test_whole_nets_of_different_node_kinds_compare_false(monkeypatch):
    signed = []
    real_signature = nets.canonical_signature

    def counted(net):
        signed.append(net)
        return real_signature(net)

    monkeypatch.setattr(nets, "canonical_signature", counted)
    a = translate_cbn(parse_lambda("\\x.x"))
    b = translate_cbn(parse_lambda("(\\x.x) (\\y.y)"))
    assert whole(a) and whole(b) and shape(a)[0] != shape(b)[0]
    assert not iso_check(a, b)
    # each net is signed once, however often it is compared
    assert iso_check(a, renumbered(a)) and iso_check(a, a) and not iso_check(b, a)
    assert len(signed) == len(set(map(id, signed))) == 3
    # a net that is not whole raises unsigned, whatever its counts; it is
    # built fresh, since a translated net keeps the verdict validate gave it
    broken = renumbered(translate_cbn(parse_lambda("(\\x.x) (\\y.y)")))
    eid = next(eid for eid, e in broken.edges.items() if e.ends[0][0] == "node")
    broken.edges[eid].ends[0] = None
    with pytest.raises(NetError, match="has a dangling end"):
        iso_check(a, broken)
    # the gate judges both nets before it signs either, so a fresh partner
    # stays unsigned too
    partner = renumbered(b)
    with pytest.raises(NetError, match="has a dangling end"):
        iso_check(partner, broken)
    assert len(signed) == 3 and broken._signature is partner._signature is None


def snapshot(net):
    """The export of ``net`` and its port map, as plain values."""
    return to_json(net), dict(net.ports)


def test_net_operations_leave_their_input_unchanged():
    # a step shares the edges and boxes it does not edit with its input and
    # with the other steps of that input, so each must still read as it was
    # made, and a fresh walk of it must give the verdict it keeps
    rules = Counter()
    for entry in corpus(6):
        for calc, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
            graph = reduction_graph(Configuration(entry.initial), calc)
            for config, succ in graph.edges.items():
                left = translate(config.term)
                before = snapshot(left)
                made = []
                for cut in eligible_cuts(left):
                    rules[nets._cut_redex(left, cut).rule] += 1
                    out = closed_cut_step(left, cut)
                    made.append((out, snapshot(out)))
                for _, dst in succ:
                    right = translate(dst.term)
                    for net in (left, *(out for out, _ in made)):
                        iso_check(net, right)
                validate(left)
                for out, _ in made:
                    for cut in eligible_cuts(out):
                        closed_cut_step(out, cut)
                assert snapshot(left) == before, entry.name
                assert [snapshot(out) for out, _ in made] == [
                    taken for _, taken in made], entry.name
                for net in (left, *(out for out, _ in made)):
                    assert validate(net.copy()) == validate(net) == [], entry.name
    assert rules == {"mult": 76, "derelict": 187, "weaken": 3, "fan": 12, "commute": 69}


def test_simulation_stops_on_a_term_without_normal_form():
    omega = prepare("omega", parse_lambda("(\\x.x x) (\\x.x x)"))
    report = check_net_simulation([omega], fuel=50)
    assert report["fuel_exhausted"] == ["omega"]
    assert report["steps_checked"] == 0
    assert report["ok"]  # nine source nodes: beyond desk size
    identity = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))
    report = check_net_simulation([identity], fuel=1)
    assert report["fuel_exhausted"] == ["id"]
    assert report["failures"] == [failure("fuel exhausted at desk size", "id", LCA)]


def test_simulation_reports_an_eligible_cut_that_does_not_step(monkeypatch):
    def broken(net, cut):
        raise NetError("no rewrite")

    monkeypatch.setattr(checks, "closed_cut_step", broken)
    identity = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))
    report = check_net_simulation([identity])
    assert not report["ok"]
    assert failure("eligible cut does not step", "id", LCA, "Beta", (),
                   error="NetError", detail="no rewrite") in report["failures"]


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
    assert all((f["error"], f["detail"]) == ("NetError", "no signature")
               for f in report["failures"] if f["problem"] == "nets cannot be compared")
    assert not any(f["problem"] == "expected identical nets"
                   for f in report["failures"])


def test_simulation_reports_a_net_it_cannot_build(monkeypatch):
    entry = prepare("apply", parse_lambda("(\\x.\\y.x y) (\\z.z)"))
    expected = check_net_simulation([entry])["steps_checked"]
    real = checks.translate_cbn

    def broken(term):
        if term == entry.initial:
            raise TranslationError("no net")
        return real(term)

    monkeypatch.setattr(checks, "translate_cbn", broken)
    report = check_net_simulation([entry])
    assert not report["ok"]
    assert failure("net cannot be built", "apply", LCA, "Beta", (),
                   error="TranslationError", detail="no net") in report["failures"]
    assert report["steps_checked"] == expected > 1


def test_simulation_reports_an_identity_step_that_changes_the_net(monkeypatch):
    # Beta taken as an identity rule: its two nets differ by a cut
    monkeypatch.setattr(checks, "IDENTITY_RULES", checks.IDENTITY_RULES + ("Beta",))
    identity = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))
    assert check_net_simulation([identity])["failures"] == [
        failure("expected identical nets", "id", LCA, "Beta", ())]


def test_simulation_reports_a_malformed_rewritten_net(monkeypatch):
    # iso_check refuses a stepped net that validate rejects, in its words
    real_step = checks.closed_cut_step

    def malformed(net, cut):
        out = real_step(net, cut)
        out.free["ghost"] = 99
        return out

    monkeypatch.setattr(checks, "closed_cut_step", malformed)
    identity = prepare("id", parse_lambda("(\\x.x) (\\y.y)"))
    report = check_net_simulation([identity])
    assert report["failures"] == [
        record for rule in ("Beta", "Var") for record in (
            failure("nets cannot be compared", "id", LCA, rule, (),
                    error="NetError", detail="free edge for ghost missing"),
            failure("no cut step reaches the reduct", "id", LCA, rule, ()))]
    assert report["steps_checked"] == 2


def _swap_r_and_s(base, level=0, star=False):
    return watom({"r": "s", "s": "r"}.get(base, base), level, star)


def _no_t(base, level=0, star=False):
    return () if base == "t" else watom(base, level, star)


def _cpy1_swaps_r_and_s(direction, kind):
    return mark(direction, {"R": "S", "S": "R"}.get(kind, kind))


@pytest.mark.parametrize("module, name, mutant", (
    (nets, "watom", _swap_r_and_s),
    (nets, "watom", _no_t),
    (calculus, "mark", _cpy1_swaps_r_and_s)))
def test_simulation_compares_the_weights_cut_elimination_moves(
        monkeypatch, module, name, mutant):
    # each mutant changes weights only, never the shape of a net
    monkeypatch.setattr(module, name, mutant)
    assert not check_net_simulation(corpus(6))["ok"]


def test_box_holding_an_island_is_iso_and_simulated():
    # the Beta reduct's net has an interface-free island inside a box
    entry = prepare("closed_08_356", parse_lambda("\\x0.x0 ((\\x1.x0) (\\x1.x1))"))
    report = check_net_simulation([entry])
    assert report["ok"], report
    assert report["steps_checked"] == 2
    graph = reduction_graph(Configuration(entry.initial), LCA)
    for src, _, dst in graph.steps():
        for term in (src.term, dst.term):
            net = translate_cbn(term)
            for seed in range(3):
                assert iso_check(net, renumbered(net, seed))


def test_iso_check_sees_whether_a_box_holds_an_island():
    # root -> bang P -> weakening W0, boxed alone or together with the
    # island W -> Q <- W2, where the bang Q opens a box of its own around W2
    def net_with(island_boxed):
        net = Net()
        principal, q = net.new_node("bang"), net.new_node("bang")
        w0, w, w2 = (net.new_node("weaken") for _ in range(3))
        net.root = net.new_edge(("root",), ("node", principal, "out"))
        net.new_edge(("node", principal, "in"), ("node", w0, "out"))
        net.new_edge(("node", w, "out"), ("node", q, "out"))
        net.new_edge(("node", q, "in"), ("node", w2, "out"))
        inner = net.new_id()
        net.boxes[inner] = Box(q, (), {q, w2})
        contents = {principal, w0, w, inner} if island_boxed else {principal, w0}
        net.boxes[net.new_id()] = Box(principal, (), contents)
        return net

    boxed, apart = net_with(True), net_with(False)
    assert iso_check(boxed, renumbered(boxed))
    assert iso_check(apart, renumbered(apart))
    assert not iso_check(boxed, apart)


def test_iso_check_compares_edge_weights():
    # root -> tensor -> free x and y; only the weight on the edge to x varies
    def net_with(weight):
        net = Net()
        t = net.new_node("tensor")
        net.root = net.new_edge(("root",), ("node", t, "out"))
        net.free = {"x": net.new_edge(("node", t, "left"), ("free", "x"), weight),
                    "y": net.new_edge(("node", t, "right"), ("free", "y"))}
        return net

    weights = (ZERO, ONE, watom("p"))
    for a in weights:
        for b in weights:
            assert iso_check(net_with(a), net_with(b)) == (a == b), (a, b)


def two_tensors(first, second, out=ONE):
    """root -> free x, beside an island of two tensors A and B wired out to
    out, A's left to B's right (``first``) and A's right to B's left
    (``second``)."""
    net = Net()
    a, b = net.new_node("tensor"), net.new_node("tensor")
    net.root = net.new_edge(("root",), ("free", "x"))
    net.free = {"x": net.root}
    net.new_edge(("node", a, "out"), ("node", b, "out"), out)
    net.new_edge(("node", a, "left"), ("node", b, "right"), first)
    net.new_edge(("node", a, "right"), ("node", b, "left"), second)
    return net


def test_an_island_signs_the_zero_apart_from_every_word():
    # signed from the one tensor, the zero sits where the word sits when
    # signed from the other, and the two signatures are compared
    net = two_tensors(ZERO, watom("d"))
    assert iso_check(net, renumbered(net))
    assert iso_check(net, two_tensors(watom("d", star=True), ZERO))
    assert not iso_check(net, two_tensors(ZERO, ONE))
    assert not iso_check(net, two_tensors(ONE, watom("d")))


class _EveryAnchor(nets._Islands):
    """Island signing as it was before the least-key rule, kept as the
    reference: the least signature over every edge of the island, each
    explored from both ends."""

    def signature(self, k):
        if k not in self.signatures:
            best = None
            for eid in self.extents[k]:
                for flipped in (None, eid):
                    ce, cn = {}, {}
                    nets._explore(self.net, [eid], ce, cn, flipped)
                    sig = nets._signature_part(self.net, ce, cn, self)
                    if best is None or sig < best:
                        best = sig
            self.signatures[k] = best
        return self.signatures[k]


def least_key_edges(net, extent):
    """The edges of an island that an isomorphism must map onto each other:
    those whose sorted end kinds and ports, with the lesser of their weight
    read either way, come first."""
    def key(eid):
        e = net.edges[eid]
        ends = sorted((net.nodes[end[1]], end[2]) for end in e.ends)
        readings = [(0,) if w is None else (1, w)
                    for w in (e.weight, involute(e.weight))]
        return ends, min(readings)

    keys = {eid: key(eid) for eid in extent}
    least = min(keys.values())
    return {eid for eid, k in keys.items() if k == least}


def compared_by_criterion_8(monkeypatch, entries):
    pairs = []
    real_iso_check = checks.iso_check

    def recorded(a, b):
        pairs.append((a, b))
        return real_iso_check(a, b)

    with monkeypatch.context() as m:
        m.setattr(checks, "iso_check", recorded)
        assert check_net_simulation(entries)["ok"]
    return pairs


def test_criterion_8_walks_each_net_it_compares_once(monkeypatch):
    # validate walks each net a translation builds there, and keeps the
    # verdict for iso_check's gate, which walks each stepped net when it
    # first meets it: every net compared is walked, and no net twice,
    # however many pairs it is in
    walked, translated, stepped = [], [], []
    real_validate = nets.validate
    real_translate, real_step = checks.translate_cbn, checks.closed_cut_step

    def validate(net):
        if net._verdict is None:  # a net that keeps a verdict is not walked
            walked.append(net)
        return real_validate(net)

    def translate(term):
        walks = len(walked)
        translated.append(real_translate(term))
        assert walked[walks:] == translated[-1:]
        return translated[-1]

    def step(net, cut):
        stepped.append(real_step(net, cut))
        return stepped[-1]

    monkeypatch.setattr(nets, "validate", validate)
    monkeypatch.setattr(checks, "translate_cbn", translate)
    monkeypatch.setattr(checks, "closed_cut_step", step)
    pairs = compared_by_criterion_8(monkeypatch, corpus(7))
    compared = Counter(id(net) for pair in pairs for net in pair)
    assert max(compared.values()) > 1
    walks = Counter(id(net) for net in walked)
    assert max(walks.values()) == 1
    assert compared.keys() <= walks.keys() == {id(net) for net in translated + stepped}


def test_least_key_anchors_decide_as_every_anchor_does(monkeypatch):
    pairs = compared_by_criterion_8(monkeypatch, corpus(6))
    reference = {}

    def signed(net):
        if id(net) not in reference:
            with monkeypatch.context() as m:
                m.setattr(nets, "_Islands", _EveryAnchor)
                reference[id(net)] = canonical_signature(net)
        return reference[id(net)]

    verdicts = []
    for seed, (a, b) in enumerate(pairs):
        verdicts.append(signed(a) == signed(b))
        assert iso_check(a, b) == verdicts[-1]
        assert iso_check(renumbered(a, seed), renumbered(b, seed + 1)) == verdicts[-1]
    assert any(verdicts) and not all(verdicts)
    assert sum(bool(islands) for _, islands in reference.values()) >= 4


def test_a_vf2_oracle_decides_every_criterion_8_comparison_as_iso_check_does(
        monkeypatch):
    # tests/iso_oracle.py reads each net as a labelled graph, with none of
    # the signature's code, and matches the graphs with networkx's VF2++.
    # The oracle adds about 1.5 s: 370 comparisons of 306 nets
    pairs = compared_by_criterion_8(monkeypatch, corpus(6))
    graphs = {id(net): labelled_graph(net) for pair in pairs for net in pair}
    verdicts = [iso_check(a, b) for a, b in pairs]
    assert [vf2_iso(graphs[id(a)], graphs[id(b)]) for a, b in pairs] == verdicts
    assert (len(pairs), sum(verdicts)) == (370, 192)


def test_an_island_with_an_automorphism_is_signed_from_its_least_key_edges():
    # swapping the tensors maps each crossing edge onto the other reversed,
    # so the two share the least key; the out-to-out edge anchors nothing,
    # and its weight is still signed
    net = two_tensors(watom("d"), watom("d", star=True))
    island = set(net.edges) - {net.root}
    assert len(least_key_edges(net, island)) == 2
    reversed_edges = renumbered(net)
    for e in reversed_edges.edges.values():
        e.ends.reverse()
        e.weight = involute(e.weight)
    for seed in range(4):
        assert iso_check(net, renumbered(net, seed))
    assert iso_check(net, reversed_edges)
    twin = two_tensors(watom("d"), watom("d", star=True), out=watom("p"))
    assert least_key_edges(twin, island) == least_key_edges(net, island)
    assert not iso_check(net, twin)
    assert iso_check(twin, renumbered(twin))


def test_each_island_is_explored_from_its_least_key_edges_twice(monkeypatch):
    explored = []  # one list of (seeds, flipped) per island being signed
    real_explore, real_signature = nets._explore, nets._Islands.signature
    signed = []

    def explore(net, seeds, edge_ids, node_ids, flipped=None):
        if explored:
            explored[-1].append((tuple(seeds), flipped))
        real_explore(net, seeds, edge_ids, node_ids, flipped)

    def signature(self, k):
        fresh = k not in self.signatures
        explored.append([])
        try:
            sig = real_signature(self, k)
        finally:
            calls = explored.pop()
        if fresh:
            least = least_key_edges(self.net, self.extents[k])
            expected = [((eid,), flipped) for eid in least for flipped in (None, eid)]
            assert Counter(calls) == Counter(expected)
            signed.append((len(least), len(self.extents[k])))
        return sig

    monkeypatch.setattr(nets, "_explore", explore)
    monkeypatch.setattr(nets._Islands, "signature", signature)
    compared_by_criterion_8(monkeypatch, corpus(7))
    # one island with two least-key edges, one where weights leave one
    for second in (watom("d", star=True), watom("p")):
        canonical_signature(two_tensors(watom("d"), second))
    assert [least for least, _ in signed[-2:]] == [2, 1]
    assert len(signed) > 10
    assert sum(least for least, _ in signed) < sum(size for _, size in signed)


@pytest.mark.parametrize("build, problem", [
    # root -> derelict, whose premise edge ends nowhere
    pytest.param(lambda net, d: net.new_edge(("node", d, "in"), None),
                 r"edge 3 has a dangling end", id="dangling-end"),
    # an axiom, an edge, with neither end attached, beside a wired derelict
    pytest.param(lambda net, d: (net.new_edge(("node", d, "in"), ("free", "x")),
                                 net.new_edge()),
                 r"edge 4 has a dangling endpoint", id="bare-axiom"),
    # a tensor reached from the derelict, its right port empty
    pytest.param(lambda net, d: (net.new_edge(("node", d, "in"), ("node", 4, "out")),
                                 net.new_node("tensor"),
                                 net.new_edge(("node", 4, "left"), ("free", "x"))),
                 r"tensor node 4 has empty port right", id="empty-port"),
    # a tensor with no edge at all, which no numbering reaches
    pytest.param(lambda net, d: (net.new_edge(("node", d, "in"), ("free", "x")),
                                 net.new_node("tensor")),
                 r"tensor node 4 has empty port left", id="bare-tensor"),
    # an end that is not at a node, the root or a free name
    pytest.param(lambda net, d: net.new_edge(("node", d, "in"), ("loose", "x")),
                 r"edge 3 has unknown endpoint \('loose', 'x'\)", id="unknown-end"),
    # two ends at the derelict's premise port
    pytest.param(lambda net, d: (net.new_edge(("node", d, "in"), ("free", "x")),
                                 net.new_edge(("node", d, "in"), ("free", "y"))),
                 r"port \(1, 'in'\) attached twice", id="shared-port"),
    # a whole net whose box is left through the principal door's premise
    pytest.param(lambda net, d: (net.new_node("bang"),
                                 net.new_edge(("node", d, "in"), ("node", 3, "out")),
                                 net.new_edge(("node", 3, "in"), ("free", "x")),
                                 net.boxes.update({6: Box(3, (), {3})})),
                 r"^edge 5 crosses box 6 away from a door$", id="box-crossed"),
    # a whole net with an atom below level 0
    pytest.param(lambda net, d: net.new_edge(("node", d, "in"), ("free", "x"),
                                             negative_level()),
                 r"^edge 3 carries a negative level$", id="negative-level"),
    # a box around a wired bang that also holds a node the net lacks
    pytest.param(lambda net, d: (net.new_node("bang"),
                                 net.new_edge(("node", d, "in"), ("node", 3, "out")),
                                 net.new_edge(("node", 3, "in"), ("free", "x")),
                                 net.boxes.update({6: Box(3, (), {3, 99})})),
                 r"box 6 lists 99, neither a node nor a box",
                 id="box-of-a-missing-node"),
    # a free edge with one end, which a signature would read two ends of
    pytest.param(lambda net, d: (net.new_edge(("node", d, "in"), ("free", "x")),
                                 net.edges.update({9: Edge([("free", "y")])})),
                 r"edge 9 lacks two endpoints", id="one-ended-edge"),
    # a root that names no edge of the net
    pytest.param(lambda net, d: (net.new_edge(("node", d, "in"), ("free", "x")),
                                 setattr(net, "root", 99)),
                 r"root edge missing", id="missing-root-edge"),
])
def test_iso_check_names_the_edge_or_port_it_cannot_sign(build, problem):
    # iso_check's gate refuses each net validate rejects before it is
    # signed, in validate's words
    net = Net()
    d = net.new_node("derelict")
    net.root = net.new_edge(("root",), ("node", d, "out"))
    build(net, d)
    net.free = {end[1]: eid for eid, e in net.edges.items()
                for end in e.ends if end is not None and end[0] == "free"}
    plain = translate_cbn(Var("x"))
    with pytest.raises(NetError, match=problem):
        iso_check(net, plain)


def test_dot_export_has_box_clusters():
    net = translate_cbv(identity_application())
    dot = to_dot(net)
    assert dot.count("subgraph cluster_") == 2
    assert "digraph net" in dot


@pytest.mark.parametrize("translate", [translate_cbv, translate_cbn])
def test_dot_export_nests_clusters_and_prints_free_names(translate):
    net = translate(initialize(compile_term(parse_lambda("\\f.f (\\x.f x) z"))))
    lines = to_dot(net).splitlines()
    # a cluster opened inside another is indented one level further
    openings = [line for line in lines if "subgraph cluster_" in line]
    assert {len(line) - len(line.lstrip()) for line in openings} >= {2, 4}
    assert '  free_z [shape=point,label="z"];' in lines
    assert any(line.endswith(" -> free_z [label=\"t*\"];") for line in lines)
    # every node is printed once, in a box or outside every box
    printed = [line.split()[0] for line in lines
               if " [label=" in line and " -> " not in line]
    assert sorted(printed) == sorted(f"n{nid}" for nid in net.nodes)


# --- closed cut elimination --------------------------------------------------

def test_multiplicative_step_matches_translation():
    entry = prepare("idapp", parse_lambda("(\\x.x) (\\y.y)"))
    t = entry.initial
    config = Configuration(t)
    site = find_redexes(config, LCA)[0]
    reduct = step(config, site, LCA).term
    left = translate_cbn(t)
    before_nodes = len(left.nodes)
    cuts = eligible_cuts(left)
    assert cuts
    out = closed_cut_step(left, cuts[0])
    assert validate(out) == []
    # the tensor and the par disappear, and the cut with them; their
    # premise edges are joined pairwise
    assert len(out.nodes) == before_nodes - 2
    assert iso_check(out, translate_cbn(reduct))


def test_dereliction_step_opens_the_box():
    entry = prepare("idapp", parse_lambda("(\\x.x) (\\y.y)"))
    config = Configuration(entry.initial)
    site = find_redexes(config, LCA)[0]
    after_beta = step(config, site, LCA)
    var_site = find_redexes(after_beta, LCA)[0]
    assert var_site.rule == "Var"
    reduct = step(after_beta, var_site, LCA).term
    left = translate_cbn(after_beta.term)
    assert len(left.boxes) == 1
    hits = [closed_cut_step(left, c) for c in eligible_cuts(left)]
    matching = [n for n in hits if iso_check(n, translate_cbn(reduct))]
    assert matching
    assert all(len(n.boxes) == 0 for n in matching)


def far_end(net, nid, port):
    """The other end of the edge at port ``port`` of node ``nid``."""
    eid, i = net.ports[(nid, port)]
    return net.edges[eid].ends[1 - i]


def test_each_cbv_dereliction_step_leaves_a_multiplicative_cut():
    # in a call-by-value net a dereliction step opens the box of the
    # abstraction an application's dereliction meets, and joins the tensor
    # of the application to the par of the abstraction, principal port to
    # principal port: a cut that a multiplicative step fires next, so a
    # Beta step is two cut steps (ROADMAP item 3)
    steps = 0
    for entry in corpus(6):
        for config in reduction_graph(Configuration(entry.initial), LCF).edges:
            try:
                net = translate_cbv(config.term)
            except (NetError, LevelUnderflowError):
                continue
            for cut in eligible_cuts(net):
                der, bang = nets._cut_redex(net, cut).nodes
                if net.nodes[der] != "derelict":
                    continue
                (_, tensor, _), (_, par, _) = far_end(net, der, "in"), far_end(net, bang, "in")
                assert (net.nodes[tensor], net.nodes[par]) == ("tensor", "par")
                out = closed_cut_step(net, cut)
                assert far_end(out, tensor, "out") == ("node", par, "out")
                joined = out.ports[(tensor, "out")][0]
                assert joined in eligible_cuts(out)
                assert nets._cut_redex(out, joined).rule == "mult"
                steps += 1
    assert steps == 89


def test_weakening_step_deletes_box_contents():
    entry = prepare("k", parse_lambda("(\\x.\\y.y) (\\z.z)"))
    config = Configuration(entry.initial)
    site = find_redexes(config, LCA)[0]
    after_beta = step(config, site, LCA)
    ers = [s for s in find_redexes(after_beta, LCA) if s.rule == "Ers1"]
    assert ers
    reduct = step(after_beta, ers[0], LCA).term
    left = translate_cbn(after_beta.term)
    results = [closed_cut_step(left, c) for c in eligible_cuts(left)]
    good = [n for n in results if iso_check(n, translate_cbn(reduct))]
    assert good
    assert all(len(n.nodes) < len(left.nodes) for n in good)


def test_dereliction_against_open_box_is_not_closed():
    t = Subst(Var("x"), App(Var("y"), Var("z")), "x")
    net = translate_cbn(t)
    # the substitution cut meets a box with two auxiliary doors
    (cut,) = cuts(net)
    assert any(net.ports[(box.principal, "out")][0] == cut and len(box.auxiliaries) == 2
               for box in net.boxes.values())
    assert cut not in eligible_cuts(net)
    with pytest.raises(NotClosedError):
        closed_cut_step(net, cut)


def test_classification_rejects_a_non_cut_and_a_cut_against_the_interface():
    # a cut is an edge between two principal ports: not a node, not an
    # edge at a premise, and not an edge from a principal port to the
    # interface
    net = translate_cbn(Var("x"))
    (der,) = net.nodes
    assert cuts(net) == eligible_cuts(net) == []
    for cut in (der, *net.edges, max(net.edges) + 1):
        with pytest.raises(NotACutError):
            closed_cut_step(net, cut)
    # a principal port met by a premise is no cut either
    net = translate_cbn(parse_lambda("\\x.x"))
    assert cuts(net) == eligible_cuts(net) == []
    # a cut that no rule matches: two tensors' conclusions
    net = Net()
    a, b = net.new_node("tensor"), net.new_node("tensor")
    cut = net.new_edge(("node", a, "out"), ("node", b, "out"))
    net.free = {name: net.new_edge(("node", node, port), ("free", name))
                for name, node, port in (("w", a, "left"), ("x", a, "right"),
                                         ("y", b, "left"), ("z", b, "right"))}
    assert validate(net) == [] and cuts(net) == [cut] and eligible_cuts(net) == []
    with pytest.raises(NetError, match="not reducible"):
        closed_cut_step(net, cut)


def test_no_net_operation_rescans_a_translated_net(monkeypatch):
    # translation keeps the port map from the net's first edge, recording
    # each end as it is placed, so validate reads it and builds none; a
    # step carries it over to its copy and keeps it current, so no map is
    # built for a stepped net, not even to compare it
    built = []
    ports = Net.ports

    def counted(net):
        if net._ports is None:
            built.append(net)
        return ports.fget(net)

    def maps_built(fn, *args):
        built.clear()
        result = fn(*args)
        return result, len(built)

    monkeypatch.setattr(Net, "ports", property(counted))
    stepped = 0
    for text in ("(\\x.x x) (\\y.y)", dict(CLASSICS)["church_two_twice"]):
        config = Configuration(prepare("t", parse_lambda(text)).initial)
        for calc, translate in ((LCF, translate_cbv), (LCA, translate_cbn)):
            for src, _, dst in reduction_graph(config, calc).steps():
                (left, maps), (right, more) = (maps_built(translate, t)
                                               for t in (src.term, dst.term))
                assert maps == more == 0
                cuts, maps = maps_built(eligible_cuts, left)
                assert maps == 0
                assert maps_built(iso_check, left, right)[1] == 0
                for cut in cuts:
                    out, maps = maps_built(closed_cut_step, left, cut)
                    assert maps == 0
                    assert maps_built(iso_check, out, right)[1] == 0
                    stepped += 1
    assert stepped > 50


def test_each_cut_step_keeps_the_port_map_current():
    # a translated net keeps the map its edges give from its first edge, and
    # every rule edits the port map its copy carries as it edits the edges,
    # so a stepped net holds the map its edges give without building one.
    # A step's copy shares the boxes it leaves alone: it edits the box that
    # holds both ends of the cut and, in commutation, the box the auxiliary
    # door leaves; only contraction makes new boxes
    rules = Counter()
    for entry in corpus(6):
        for config in reduction_graph(Configuration(entry.initial), LCA).edges:
            for translate in (translate_cbv, translate_cbn):
                try:
                    net = translate(config.term)
                except (NetError, LevelUnderflowError):
                    continue
                assert net.ports == port_scan(net)
                for cut in eligible_cuts(net):
                    out = closed_cut_step(net, cut)
                    redex = nets._cut_redex(net, cut)
                    rule = redex.rule
                    assert out._ports is not None, rule
                    assert out.ports == port_scan(out), rule
                    edited = {nets._box_listing(net, redex.nodes[0] if rule == "mult"
                                                else redex.box)}
                    if rule == "commute":
                        edited.add(nets._box_listing(net, redex.nodes[1]))
                    replaced = {bid for bid in net.boxes.keys() & out.boxes.keys()
                                if out.boxes[bid] is not net.boxes[bid]}
                    assert replaced == edited - {None}, rule
                    assert rule == "fan" or out.boxes.keys() <= net.boxes.keys(), rule
                    rules[rule] += 1
    assert rules == {"mult": 76, "derelict": 202, "weaken": 4, "fan": 13, "commute": 68}


def test_a_step_of_an_open_net_renames_the_free_edge_it_joins():
    # the call-by-value mult step of the first three terms joins the edge
    # out to the free y, so the free map names the joined edge; each net is
    # stepped to cut normal form at its first eligible cut
    renamed = 0
    for text in ("(\\x.x) y", "(\\x.x x) y", "(\\x.\\z.x z) y", "(\\x.x) (y z)"):
        term = initialize(compile_term(parse_lambda(text)))
        for translate, expected in ((translate_cbv, ["derelict", "mult"]),
                                    (translate_cbn, ["mult"])):
            net = translate(term)
            words, taken = weight_set(net), []
            while cut_at := eligible_cuts(net):
                taken.append(nets._cut_redex(net, cut_at[0]).rule)
                before, net = net.free, closed_cut_step(net, cut_at[0])
                renamed += net.free != before
                assert validate(net) == [], (text, taken)
                assert all(("free", name) in net.edges[eid].ends
                           for name, eid in net.free.items()), (text, taken)
                assert weight_set(net) == words, (text, taken)
            assert taken == expected, text
    assert renamed == 3


def test_contraction_step_duplicates_box():
    entry = prepare("dup", parse_lambda("(\\x.x x) (\\y.y)"))
    config = Configuration(entry.initial)
    site = find_redexes(config, LCA)[0]
    after_beta = step(config, site, LCA)
    cpy = [s for s in find_redexes(after_beta, LCA) if s.rule == "Cpy1"]
    assert cpy
    reduct = step(after_beta, cpy[0], LCA).term
    left = translate_cbn(after_beta.term)
    closed_boxes = [b for b in left.boxes.values() if not b.auxiliaries]
    assert len(closed_boxes) == 1
    results = [closed_cut_step(left, c) for c in eligible_cuts(left)]
    good = [n for n in results if iso_check(n, translate_cbn(reduct))]
    assert good
    assert all(len(n.boxes) == len(left.boxes) + 1 for n in good)


def test_contraction_step_places_the_copies_in_the_enclosing_box():
    # in call-by-value the copied box sits inside the abstraction's box, so
    # both copies must join it; the term is in the lcf graph of closed_08_410
    net = translate_cbv(parse("\\x0.eps[x0].(copy[x1->x11,x12].x11 x12)[\\x1.x1/x1]"))
    fans = [c for c in eligible_cuts(net) if nets._cut_redex(net, c).rule == "fan"]
    assert len(fans) == 1 and len(net.boxes) == 2
    out = closed_cut_step(net, fans[0])
    assert len(out.boxes) == 3
    assert validate(out) == box_depth_problems(out) == []


def test_commutative_step_moves_box_inside():
    # drive App2 on (M N)[P/x] with x free in N: a closed box commutes
    # through an auxiliary door
    entry = prepare("t", parse_lambda("(\\x.\\y.y x) (\\z.z)"))
    config = Configuration(entry.initial)
    trace_sites = []
    while True:
        sites = find_redexes(config, LCA)
        if not sites:
            break
        app2 = [s for s in sites if s.rule == "App2"]
        if app2:
            src = config.term
            dst = step(config, app2[0], LCA).term
            left = translate_cbn(src)
            results = [closed_cut_step(left, c) for c in eligible_cuts(left)]
            assert any(iso_check(n, translate_cbn(dst)) for n in results)
            return
        config = step(config, sites[0], LCA)
        trace_sites.append(sites[0].rule)
    raise AssertionError(f"no App2 step found along {trace_sites}")


def test_initialized_translations_have_strict_levels_corpus():
    # weight levels equal box depths everywhere on freshly initialised nets.
    # This is the one place every initial net of the default corpus is built
    # and validated: `goilab check` builds none for an entry that takes no
    # step and ends on the empty weight.
    for entry in corpus(7):
        for translate in (translate_cbv, translate_cbn):
            net = translate(entry.initial)
            assert validate(net) == box_depth_problems(net) == [], entry.name
