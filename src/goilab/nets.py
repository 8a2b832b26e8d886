"""Weighted proof-nets with boxes, the call-by-value and call-by-name
translations of labelled terms, closed cut elimination, and net isomorphism.

Edges are oriented for weight bookkeeping only: traversing an edge from
``ends[0]`` to ``ends[1]`` reads its weight, the other way its involution.
Straightness and direction semantics live in the paths module.

Conventions fixed by the label/weight correspondence (certified by the
invariance suites rather than assumed):

* application: tensor whose right premise is the result edge, carrying the
  node label composed with q at the label's output level; the conclusion is
  cut against the function, through a dereliction (call-by-value) or
  directly (call-by-name); the argument enters the left premise behind p*.
* abstraction: par of (variable edge behind p, body behind q*), boxed with
  auxiliary doors for free variables in call-by-value, unboxed in
  call-by-name.
* copy is a fan whose premises carry r (left target) and s (right target);
  erase is a weakening with an absorbing weight.
* substitution is a cut; in call-by-name the argument sits in a box behind
  a dereliction on the variable side, and the argument label up to its
  trailing box marker is read on the box's external edge.
* every variable is an axiom link (two half-wires through an axiom node);
  in call-by-name each variable additionally ends in a dereliction, the
  physical counterpart of the D marker emitted by the Var rule.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .algebra import (ONE, ZERO, LevelledWeight, LevelUnderflowError, WAtom,
                      Weight, compose, entry_level_needed, involute,
                      format_weight, lw, watom)
from .labels import LEFT, RIGHT, Label, Marker, Under
from .labelled import label_of
from .terms import Abs, App, Copy, Erase, Subst, Term, Var

PORTS = {
    "ax": ("a", "b"),
    "cut": ("a", "b"),
    "tensor": ("left", "right", "out"),
    "par": ("left", "right", "out"),
    "fan": ("left", "right", "out"),
    "bang": ("in", "out"),
    "whynot": ("in", "out"),
    "derelict": ("in", "out"),
    "weaken": ("out",),
}

# port pairs a straight path may connect through a node
TRANSITIONS = {
    "ax": (("a", "b"),),
    "cut": (("a", "b"),),
    "tensor": (("left", "out"), ("right", "out")),
    "par": (("left", "out"), ("right", "out")),
    "fan": (("left", "out"), ("right", "out")),
    "bang": (("in", "out"),),
    "whynot": (("in", "out"),),
    "derelict": (("in", "out"),),
    "weaken": (),
}


class NetError(Exception):
    pass


class NotACutError(NetError):
    pass


class NotClosedError(NetError):
    pass


class TranslationError(NetError):
    pass


@dataclass
class Edge:
    ends: list
    weight: Weight = ONE

    def weight_from(self, end_index: int) -> Weight:
        return self.weight if end_index == 0 else involute(self.weight)

    def compose_incoming(self, end_index: int, w: Weight) -> None:
        """Traversals entering at ``end_index`` read ``w`` first."""
        if end_index == 0:
            self.weight = compose(w, self.weight)
        else:
            self.weight = compose(self.weight, involute(w))

    def compose_outgoing(self, end_index: int, w: Weight) -> None:
        """Traversals leaving through ``end_index`` read ``w`` last."""
        if end_index == 1:
            self.weight = compose(self.weight, w)
        else:
            self.weight = compose(involute(w), self.weight)


@dataclass
class Box:
    principal: int
    auxiliaries: tuple
    contents: set


class Net:
    def __init__(self):
        self.nodes: dict[int, str] = {}
        self.edges: dict[int, Edge] = {}
        self.boxes: dict[int, Box] = {}
        self.root: Optional[int] = None
        self.free: dict[str, int] = {}
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def new_node(self, kind: str) -> int:
        nid = self.new_id()
        self.nodes[nid] = kind
        return nid

    def new_edge(self, end0=None, end1=None, weight: Weight = ONE) -> int:
        eid = self.new_id()
        self.edges[eid] = Edge([end0, end1], weight)
        return eid

    def attach(self, eid: int, end_index: int, end) -> None:
        self.edges[eid].ends[end_index] = end

    def port_map(self) -> dict:
        ports = {}
        for eid, e in self.edges.items():
            for i, end in enumerate(e.ends):
                if end is not None and end[0] == "node":
                    ports[(end[1], end[2])] = (eid, i)
        return ports

    def edge_depth(self, eid: int) -> int:
        ends = self.edges[eid].ends
        count = 0
        for b in self.boxes.values():
            if all(e is not None and e[0] == "node" and e[1] in b.contents for e in ends):
                count += 1
        return count

    def box_of_principal(self, nid: int) -> Optional[int]:
        for bid, b in self.boxes.items():
            if b.principal == nid:
                return bid
        return None

    def box_of_auxiliary(self, nid: int) -> Optional[int]:
        for bid, b in self.boxes.items():
            if nid in b.auxiliaries:
                return bid
        return None

    def copy(self) -> "Net":
        out = Net()
        out.nodes = dict(self.nodes)
        out.edges = {eid: Edge(list(e.ends), e.weight) for eid, e in self.edges.items()}
        out.boxes = {bid: Box(b.principal, tuple(b.auxiliaries), set(b.contents))
                     for bid, b in self.boxes.items()}
        out.root = self.root
        out.free = dict(self.free)
        out._next = self._next
        return out


# ---------------------------------------------------------------------------
# validation

def validate(net: Net, strict_levels: bool = False) -> list:
    """Structural violations as strings; empty means well-formed."""
    problems = []
    ports = {}
    for eid, e in net.edges.items():
        if len(e.ends) != 2:
            problems.append(f"edge {eid} lacks two endpoints")
            continue
        for i, end in enumerate(e.ends):
            if end is None:
                problems.append(f"edge {eid} has a dangling endpoint")
            elif end[0] == "node":
                _, nid, port = end
                if nid not in net.nodes:
                    problems.append(f"edge {eid} references missing node {nid}")
                elif port not in PORTS[net.nodes[nid]]:
                    problems.append(f"edge {eid} uses bad port {port} on {net.nodes[nid]}")
                else:
                    key = (nid, port)
                    if key in ports:
                        problems.append(f"port {key} attached twice")
                    ports[key] = (eid, i)
            elif end[0] == "root":
                if net.root != eid:
                    problems.append(f"edge {eid} claims the root interface")
            elif end[0] == "free":
                if net.free.get(end[1]) != eid:
                    problems.append(f"edge {eid} claims free variable {end[1]}")
            else:
                problems.append(f"edge {eid} has unknown endpoint {end}")
    for nid, kind in net.nodes.items():
        for port in PORTS[kind]:
            if (nid, port) not in ports:
                problems.append(f"{kind} node {nid} has empty port {port}")
    for name, eid in net.free.items():
        if eid not in net.edges:
            problems.append(f"free edge for {name} missing")
    if net.root is not None and net.root not in net.edges:
        problems.append("root edge missing")
    for bid, b in net.boxes.items():
        if net.nodes.get(b.principal) != "bang":
            problems.append(f"box {bid} principal is not an of-course node")
        for a in b.auxiliaries:
            if net.nodes.get(a) != "whynot":
                problems.append(f"box {bid} auxiliary {a} is not a why-not node")
        doors = {b.principal, *b.auxiliaries}
        if not doors <= b.contents:
            problems.append(f"box {bid} doors must belong to the box")
        for nid in b.contents:
            if nid not in net.nodes:
                problems.append(f"box {bid} contains missing node {nid}")
    for b1, box1 in net.boxes.items():
        for b2, box2 in net.boxes.items():
            if b1 < b2:
                inter = box1.contents & box2.contents
                if inter and not (box1.contents <= box2.contents
                                  or box2.contents <= box1.contents):
                    problems.append(f"boxes {b1},{b2} overlap without nesting")
    for bid, b in net.boxes.items():
        for eid, e in net.edges.items():
            if len(e.ends) != 2 or any(end is None for end in e.ends):
                continue
            sides = [end[0] == "node" and end[1] in b.contents for end in e.ends]
            if sides[0] != sides[1]:
                inside = e.ends[0] if sides[0] else e.ends[1]
                _, nid, port = inside
                if not (nid in (b.principal, *b.auxiliaries) and port == "out"):
                    problems.append(f"edge {eid} crosses box {bid} away from a door")
    for eid, e in net.edges.items():
        if not e.weight.is_zero:
            for a in e.weight.atoms:
                if a.level < 0:
                    problems.append(f"edge {eid} carries a negative level")
                elif strict_levels and a.level != net.edge_depth(eid):
                    problems.append(
                        f"edge {eid} atom level {a.level} != box depth {net.edge_depth(eid)}")
    return problems


# ---------------------------------------------------------------------------
# translation

@dataclass
class _Sub:
    root: int
    free: dict
    levels: dict


class _Translator:
    def __init__(self, net: Net, cbn: bool, weighted: bool):
        self.net = net
        self.cbn = cbn
        self.weighted = weighted
        self.box_stack: list[set] = []

    def node(self, kind: str) -> int:
        nid = self.net.new_node(kind)
        for contents in self.box_stack:
            contents.add(nid)
        return nid

    def lw_here(self, label: Optional[Label], level: int) -> LevelledWeight:
        if not self.weighted:
            return LevelledWeight(ONE, 0)
        if label is None:
            return LevelledWeight(ONE, level)
        return lw(label, level)

    def const(self, base: str, level: int, star: bool = False) -> Weight:
        if not self.weighted:
            return ONE
        return watom(base, level, star)

    def go(self, term: Term, level: int, override: Optional[Label] = None) -> _Sub:
        net = self.net
        match term:
            case Var(name, label):
                r = self.lw_here(override if override is not None else label, level)
                ax = self.node("ax")
                e_body = net.new_edge(None, ("node", ax, "a"), r.weight)
                e_var = net.new_edge(("node", ax, "b"), None, ONE)
                out_level = r.out_level
                if self.cbn:
                    d = self.node("derelict")
                    net.attach(e_var, 1, ("node", d, "in"))
                    e_d = net.new_edge(("node", d, "out"), None,
                                       self.const("d", out_level))
                    free_edge = e_d
                else:
                    free_edge = e_var
                return _Sub(e_body, {name: free_edge}, {name: out_level})

            case Abs(binder, body, label):
                r = self.lw_here(override if override is not None else label, level)
                o = r.out_level
                if self.cbn:
                    sub = self.go(body, o)
                    par = self.node("par")
                    self._bind(sub, binder, par, o)
                    e_root = net.new_edge(None, ("node", par, "out"), r.weight)
                    return _Sub(e_root, sub.free, sub.levels)
                contents: set = set()
                self.box_stack.append(contents)
                sub = self.go(body, o + 1)
                par = self.node("par")
                self._bind(sub, binder, par, o + 1)
                bang = self.node("bang")
                net.new_edge(("node", par, "out"), ("node", bang, "in"), ONE)
                free, levels, auxiliaries = self._aux_doors(sub)
                self.box_stack.pop()
                net.boxes[net.new_id()] = Box(bang, tuple(auxiliaries), contents)
                e_root = net.new_edge(None, ("node", bang, "out"), r.weight)
                return _Sub(e_root, free, levels)

            case App(fun, arg, label):
                r = self.lw_here(override if override is not None else label, level)
                o = r.out_level
                fsub = self.go(fun, o)
                tensor = self.node("tensor")
                cut = self.node("cut")
                e_root = net.new_edge(None, ("node", tensor, "right"),
                                      compose(r.weight, self.const("q", o)))
                if self.cbn:
                    net.new_edge(("node", tensor, "out"), ("node", cut, "a"), ONE)
                    net.attach(fsub.root, 0, ("node", cut, "b"))
                    ext, afree, alevels = self._arg_box(
                        arg, o, self.const("p", o, star=True), split=False)
                    net.attach(ext, 0, ("node", tensor, "left"))
                else:
                    der = self.node("derelict")
                    net.new_edge(("node", tensor, "out"), ("node", der, "in"), ONE)
                    net.new_edge(("node", der, "out"), ("node", cut, "a"),
                                 self.const("d", o))
                    net.attach(fsub.root, 0, ("node", cut, "b"))
                    asub = self.go(arg, o)
                    net.edges[asub.root].compose_incoming(
                        0, self.const("p", o, star=True))
                    net.attach(asub.root, 0, ("node", tensor, "left"))
                    ext, afree, alevels = asub.root, asub.free, asub.levels
                self._merge_check(fsub.free, afree)
                return _Sub(e_root, {**fsub.free, **afree},
                            {**fsub.levels, **alevels})

            case Erase(binder, body):
                sub = self.go(body, level, override)
                weaken = self.node("weaken")
                e_x = net.new_edge(("node", weaken, "out"), None,
                                   ZERO if self.weighted else ONE)
                free = {**sub.free, binder: e_x}
                levels = {**sub.levels, binder: level if self.weighted else 0}
                return _Sub(sub.root, free, levels)

            case Copy(source, left, right, body):
                sub = self.go(body, level, override)
                fan = self.node("fan")
                ly, lz = sub.levels[left], sub.levels[right]
                if self.weighted and ly != lz:
                    raise TranslationError(
                        f"copy targets at different levels ({ly} vs {lz})")
                net.edges[sub.free[left]].compose_outgoing(1, self.const("r", ly))
                net.attach(sub.free[left], 1, ("node", fan, "left"))
                net.edges[sub.free[right]].compose_outgoing(1, self.const("s", lz))
                net.attach(sub.free[right], 1, ("node", fan, "right"))
                e_x = net.new_edge(("node", fan, "out"), None, ONE)
                free = {k: v for k, v in sub.free.items() if k not in (left, right)}
                levels = {k: v for k, v in sub.levels.items() if k not in (left, right)}
                free[source] = e_x
                levels[source] = ly
                return _Sub(sub.root, free, levels)

            case Subst(body, arg, target):
                sub = self.go(body, level, override)
                lx = sub.levels[target]
                cut = self.node("cut")
                if self.cbn:
                    net.attach(sub.free[target], 1, ("node", cut, "a"))
                    ext, afree, alevels = self._arg_box(arg, lx, ONE, split=True)
                    net.attach(ext, 0, ("node", cut, "b"))
                else:
                    net.attach(sub.free[target], 1, ("node", cut, "a"))
                    asub = self.go(arg, self._arg_level(arg, lx))
                    net.attach(asub.root, 0, ("node", cut, "b"))
                    afree, alevels = asub.free, asub.levels
                free = {k: v for k, v in sub.free.items() if k != target}
                levels = {k: v for k, v in sub.levels.items() if k != target}
                self._merge_check(free, afree)
                return _Sub(sub.root, {**free, **afree}, {**levels, **alevels})

        raise AssertionError

    def _bind(self, sub: _Sub, binder: str, par: int, inner_level: int) -> None:
        net = self.net
        if binder not in sub.free:
            raise TranslationError(f"binder {binder} unused (term not linear)")
        e_x = sub.free.pop(binder)
        sub.levels.pop(binder)
        net.edges[e_x].compose_outgoing(1, self.const("p", inner_level))
        net.attach(e_x, 1, ("node", par, "left"))
        net.edges[sub.root].compose_incoming(
            0, self.const("q", inner_level, star=True))
        net.attach(sub.root, 0, ("node", par, "right"))

    def _aux_doors(self, sub: _Sub):
        # free edges dangle at ends[1]; leaving through the door reads t*,
        # so entering the box reads t at the outer level
        net = self.net
        auxiliaries = []
        free = {}
        levels = {}
        for name in sorted(sub.free):
            why = self.node("whynot")
            net.attach(sub.free[name], 1, ("node", why, "in"))
            ly = sub.levels[name]
            if self.weighted and ly < 1:
                raise LevelUnderflowError(f"auxiliary door for {name} at level 0")
            e_aux = net.new_edge(("node", why, "out"), None,
                                 self.const("t", max(ly - 1, 0), star=True))
            auxiliaries.append(why)
            free[name] = e_aux
            levels[name] = ly - 1 if self.weighted else 0
        return free, levels, auxiliaries

    def _arg_level(self, arg: Term, entry: int) -> int:
        """Entry level for a substitution argument.

        A substitution onto an erased binder loses the level its variable
        occupied; the argument's own label still records the descent, so
        raise the entry just enough for its translation to stay above zero.
        """
        if not self.weighted:
            return entry
        try:
            need = entry_level_needed(label_of(arg))
        except Exception:
            return entry
        return max(entry, need)

    def _arg_box(self, arg: Term, entry: int, prefix: Weight, split: bool):
        """Box the translation of an argument.

        With ``split`` (substitution arguments) the label prefix up to and
        including its trailing box marker is read on the external edge and
        the remainder stays on the interior root; otherwise (application
        arguments) the label is read inside and the door itself raises the
        level.
        """
        net = self.net
        override = None
        ext_weight = prefix
        if split and self.weighted:
            outside, inside = split_argument_label(label_of(arg))
            entry = max(entry, entry_level_needed(outside))
            r = lw(outside, entry)
            ext_weight = compose(prefix, r.weight)
            interior_entry = r.out_level
            override = inside
        else:
            interior_entry = entry + 1 if self.weighted else 0
        contents: set = set()
        self.box_stack.append(contents)
        sub = self.go(arg, interior_entry, override)
        bang = self.node("bang")
        net.attach(sub.root, 0, ("node", bang, "in"))
        free, levels, auxiliaries = self._aux_doors(sub)
        self.box_stack.pop()
        net.boxes[net.new_id()] = Box(bang, tuple(auxiliaries), contents)
        e_ext = net.new_edge(None, ("node", bang, "out"), ext_weight)
        return e_ext, free, levels

    @staticmethod
    def _merge_check(a: dict, b: dict) -> None:
        shared = set(a) & set(b)
        if shared:
            raise TranslationError(f"free variables not linear: {sorted(shared)}")


def split_argument_label(label: Label) -> tuple[Label, Label]:
    """Split an argument label into (markers + underline + box marker, rest).

    Reachable substitution arguments have labels of this shape; anything
    else is rejected.
    """
    i = 0
    while i < len(label) and isinstance(label[i], Marker) and label[i].direction == RIGHT:
        i += 1
    if i >= len(label) or not isinstance(label[i], Under):
        raise TranslationError("argument label lacks an underlined block")
    i += 1
    if i >= len(label) or label[i] != Marker(LEFT, "!"):
        raise TranslationError("argument label lacks its box marker")
    i += 1
    if i >= len(label):
        raise TranslationError("argument label ends at its box marker")
    return label[:i], label[i:]


def _translate(term: Term, cbn: bool, weighted: bool) -> Net:
    net = Net()
    tr = _Translator(net, cbn, weighted)
    sub = tr.go(term, 0)
    net.attach(sub.root, 0, ("root",))
    net.root = sub.root
    for name in sorted(sub.free):
        net.attach(sub.free[name], 1, ("free", name))
        net.free[name] = sub.free[name]
    problems = validate(net)
    if problems:
        raise TranslationError("; ".join(problems))
    return net


def translate_cbv(term: Term, weighted: bool = True) -> Net:
    return _translate(term, cbn=False, weighted=weighted)


def translate_cbn(term: Term, weighted: bool = True) -> Net:
    return _translate(term, cbn=True, weighted=weighted)


# ---------------------------------------------------------------------------
# closed cut elimination

def remove_binary_node(net: Net, nid: int, port_a: str, port_b: str) -> int:
    """Delete a two-port node, fusing its edges into one oriented edge.

    The fused edge reads (edge at port_a towards the node) then (edge at
    port_b away from the node).
    """
    return _splice(net, net.port_map(), nid, port_a, port_b)


def _splice(net: Net, pm: dict, nid: int, port_a: str, port_b: str) -> int:
    """``remove_binary_node`` on a port map ``pm`` of ``net``, which is kept
    current: the node's ports leave it and the outer ends point at the fused
    edge.  A self-loop raises before anything changes."""
    ea, ia = pm[(nid, port_a)]
    eb, ib = pm[(nid, port_b)]
    if ea == eb:
        raise NetError("cannot fuse a self-loop")
    edge_a, edge_b = net.edges[ea], net.edges[eb]
    outer_a = edge_a.ends[1 - ia]
    outer_b = edge_b.ends[1 - ib]
    weight = compose(edge_a.weight_from(1 - ia), edge_b.weight_from(ib))
    fused = net.new_edge(outer_a, outer_b, weight)
    del pm[(nid, port_a)], pm[(nid, port_b)]
    for i, end in enumerate((outer_a, outer_b)):
        if end is not None and end[0] == "node":
            pm[(end[1], end[2])] = (fused, i)
    for old in (ea, eb):
        net.edges.pop(old)
        if net.root == old:
            net.root = fused
        for name, fe in list(net.free.items()):
            if fe == old:
                net.free[name] = fused
    net.nodes.pop(nid)
    for b in net.boxes.values():
        b.contents.discard(nid)
    return fused


@dataclass(frozen=True)
class _CutRedex:
    """A cut classified for closed elimination.

    ``nodes`` are the cut's two neighbours, the one the rule is named after
    first: the axiom; tensor, par; dereliction, contraction or weakening,
    then the box's principal door; for commutation the principal door,
    then the auxiliary door it enters.  ``box`` is the closed box the step
    opens, erases, copies or moves, and ``crossing`` the weight read across
    the cut from ``nodes[0]``.
    """

    cut: int
    rule: str
    nodes: tuple
    box: Optional[int]
    crossing: Weight


def _classify_cut(net: Net, pm: dict, cut: int) -> _CutRedex:
    """The closed elimination step at ``cut``, or ``NetError`` when there is
    none; ``NotClosedError`` when its box has auxiliary doors."""
    if net.nodes.get(cut) != "cut":
        raise NotACutError(f"node {cut} is not a cut")
    fars, edges = [], []
    for port in ("a", "b"):
        eid, idx = pm[(cut, port)]
        far = net.edges[eid].ends[1 - idx]
        if far is None or far[0] != "node":
            raise NetError("cut against the interface cannot fire")
        fars.append(far)
        edges.append((net.edges[eid], idx))
    kinds = [net.nodes[far[1]] for far in fars]
    rule = box = None
    if "ax" in kinds:
        rule, first = "ax", kinds.index("ax")
    elif sorted(kinds) == ["par", "tensor"] and fars[0][2] == fars[1][2] == "out":
        rule, first = "mult", kinds.index("tensor")
    elif "bang" in kinds:
        door = kinds.index("bang")
        other = 1 - door
        box = net.box_of_principal(fars[door][1])
        if box is not None and fars[door][2] == fars[other][2] == "out":
            if kinds[other] in ("derelict", "fan", "weaken"):
                rule, first = kinds[other], other
            elif kinds[other] == "whynot" and \
                    net.box_of_auxiliary(fars[other][1]) is not None:
                rule, first = "commute", door
    if rule is None:
        raise NetError("cut is not reducible by closed elimination")
    if box is not None and net.boxes[box].auxiliaries:
        raise NotClosedError(f"{rule} cut needs a box with no auxiliary doors")
    (edge_near, i_near), (edge_far, i_far) = edges[first], edges[1 - first]
    crossing = compose(edge_near.weight_from(1 - i_near), edge_far.weight_from(i_far))
    return _CutRedex(cut, rule, (fars[first][1], fars[1 - first][1]), box, crossing)


def eligible_cuts(net: Net) -> list:
    """Cut nodes where a closed elimination step applies, in id order."""
    pm = net.port_map()
    out = []
    for nid in sorted(net.nodes):
        if net.nodes[nid] == "cut":
            try:
                _classify_cut(net, pm, nid)
            except NetError:
                continue
            out.append(nid)
    return out


def closed_cut_step(net: Net, cut: int) -> Net:
    """One step of closed cut elimination at the given cut node."""
    net = net.copy()
    pm = net.port_map()
    redex = _classify_cut(net, pm, cut)
    _STEPS[redex.rule](net, pm, redex)
    return net


def _axiom_step(net: Net, pm: dict, redex: _CutRedex) -> None:
    _splice(net, pm, redex.cut, "a", "b")
    _splice(net, pm, redex.nodes[0], "a", "b")


def _mult_step(net: Net, pm: dict, redex: _CutRedex) -> None:
    tensor, par = redex.nodes
    for side in ("left", "right"):
        c = _new_cut(net, redex.cut)
        net.attach(*pm[(tensor, side)], ("node", c, "a"))
        pe, pi = pm[(par, side)]
        net.attach(pe, pi, ("node", c, "b"))
        net.edges[pe].compose_incoming(pi, redex.crossing)
    _delete_nodes(net, {tensor, par, redex.cut})


def _derelict_step(net: Net, pm: dict, redex: _CutRedex) -> None:
    _splice(net, pm, redex.cut, "a", "b")
    _splice(net, pm, redex.nodes[0], "in", "out")
    _splice(net, pm, redex.nodes[1], "in", "out")
    del net.boxes[redex.box]


def _weaken_step(net: Net, pm: dict, redex: _CutRedex) -> None:
    _drop_box(net, redex.box, {redex.cut, redex.nodes[0]})


def _fan_step(net: Net, pm: dict, redex: _CutRedex) -> None:
    fan = redex.nodes[0]
    new_bangs = [_copy_closed_box(net, redex.box, redex.cut) for _ in range(2)]
    for side, new_bang in zip(("left", "right"), new_bangs):
        c = _new_cut(net, redex.cut)
        net.attach(*pm[(fan, side)], ("node", c, "a"))
        # traversal premise -> cut -> new box reads the old crossing weight
        net.new_edge(("node", new_bang, "out"), ("node", c, "b"),
                     involute(redex.crossing))
    _drop_box(net, redex.box, {redex.cut, fan})


def _commute_step(net: Net, pm: dict, redex: _CutRedex) -> None:
    whynot = redex.nodes[1]
    target = net.boxes[net.box_of_auxiliary(whynot)]
    _splice(net, pm, whynot, "in", "out")
    target.auxiliaries = tuple(a for a in target.auxiliaries if a != whynot)
    target.contents |= net.boxes[redex.box].contents | {redex.cut}


_STEPS = {"ax": _axiom_step, "mult": _mult_step, "derelict": _derelict_step,
          "weaken": _weaken_step, "fan": _fan_step, "commute": _commute_step}


def _new_cut(net: Net, beside: int) -> int:
    """A new cut node in every box that holds node ``beside``."""
    c = net.new_node("cut")
    for b in net.boxes.values():
        if beside in b.contents:
            b.contents.add(c)
    return c


def _delete_nodes(net: Net, doomed: set) -> None:
    """Delete the ``doomed`` nodes and every edge at one of them."""
    for eid, e in list(net.edges.items()):
        if any(end is not None and end[0] == "node" and end[1] in doomed
               for end in e.ends):
            del net.edges[eid]
    for nid in doomed:
        del net.nodes[nid]
    for b in net.boxes.values():
        b.contents -= doomed


def _drop_box(net: Net, bid: int, extra: set) -> None:
    """Delete box ``bid`` with the boxes inside it and their contents, and
    the nodes ``extra``, together with every edge at a deleted node."""
    contents = net.boxes[bid].contents
    for inner in [b2 for b2, bx in net.boxes.items() if bx.contents <= contents]:
        del net.boxes[inner]
    _delete_nodes(net, contents | extra)


def _copy_closed_box(net: Net, bid: int, beside: int) -> int:
    """Duplicate a closed box into every box that holds node ``beside``;
    returns the new principal node."""
    box = net.boxes[bid]
    mapping = {}
    for nid in sorted(box.contents):
        mapping[nid] = net.new_node(net.nodes[nid])
    for eid, e in sorted(net.edges.items()):
        ins = [end is not None and end[0] == "node" and end[1] in mapping
               for end in e.ends]
        if all(ins):
            net.new_edge(("node", mapping[e.ends[0][1]], e.ends[0][2]),
                         ("node", mapping[e.ends[1][1]], e.ends[1][2]),
                         e.weight)
    for b2, bx in sorted(net.boxes.items()):
        if bx.contents <= box.contents:
            net.boxes[net.new_id()] = Box(
                mapping[bx.principal],
                tuple(mapping[a] for a in bx.auxiliaries),
                {mapping[n] for n in bx.contents})
    new_nodes = set(mapping.values())
    for b in net.boxes.values():
        if beside in b.contents:
            b.contents |= new_nodes
    return mapping[box.principal]


# ---------------------------------------------------------------------------
# isomorphism

def contracted(net: Net) -> Net:
    """Copy with axiom and cut nodes spliced out (they only carry linking).

    One pass in node order: splicing never turns a self-loop back into two
    edges, so restarting after each splice would make the same splices.
    A node whose two ports share one edge closes a loop and is kept.
    """
    return _contract(net)[0]


def _contract(net: Net) -> tuple[Net, dict]:
    """``contracted`` with the port map its splices keep current."""
    out = net.copy()
    pm = out.port_map()
    for nid, kind in list(out.nodes.items()):
        if kind in ("ax", "cut") and pm[(nid, "a")][0] != pm[(nid, "b")][0]:
            _splice(out, pm, nid, "a", "b")
    return out, pm


def _explore(net: Net, pm: dict, seeds, edge_ids: dict, node_ids: dict,
             first_end: Optional[int] = None) -> None:
    """Deterministic breadth-first numbering of edges and nodes from seeds."""
    queue = deque()
    for eid in seeds:
        if eid not in edge_ids:
            edge_ids[eid] = len(edge_ids)
            queue.append(eid)
    first = True
    while queue:
        eid = queue.popleft()
        ends = net.edges[eid].ends

        def rank(item):
            i, end = item
            if end is None or end[0] != "node":
                return (0, 0)
            if first and first_end is not None:
                return (1, 0 if i == first_end else 1)
            return (1, 0) if end[1] in node_ids else (2, 0)

        for _, end in sorted(enumerate(ends), key=rank):
            if end is None or end[0] != "node":
                continue
            nid = end[1]
            if nid in node_ids:
                continue
            node_ids[nid] = len(node_ids)
            for port in PORTS[net.nodes[nid]]:
                e2, _ = pm[(nid, port)]
                if e2 not in edge_ids:
                    edge_ids[e2] = len(edge_ids)
                    queue.append(e2)
        first = False


class _Islands:
    """The interface-free islands of a net, each signed once, when first
    asked for."""

    def __init__(self, net: Net, pm: dict, leftovers: set):
        self.net, self.pm = net, pm
        self.extents = []  # the edges of each island
        self.island_of = {}  # node -> its island
        while leftovers:
            probe_e: dict = {}
            probe_n: dict = {}
            _explore(net, pm, [next(iter(leftovers))], probe_e, probe_n)
            self.island_of.update(dict.fromkeys(probe_n, len(self.extents)))
            self.extents.append(set(probe_e))
            leftovers -= self.extents[-1]
        self.signatures: dict = {}

    def signature(self, k: int):
        """Canonical signature of island ``k``: the least over its possible
        anchor edges."""
        if k not in self.signatures:
            best = None
            for eid in self.extents[k]:
                for first_end in (0, 1):
                    ce: dict = {}
                    cn: dict = {}
                    _explore(self.net, self.pm, [eid], ce, cn, first_end=first_end)
                    sig = _signature_part(self.net, ce, cn, self)
                    if best is None or sig < best:
                        best = sig
            self.signatures[k] = best
        return self.signatures[k]

    def holding(self, nodes) -> tuple:
        """Sorted signatures of the islands that hold ``nodes``."""
        try:
            held = {self.island_of[nid] for nid in nodes}
        except KeyError:
            raise NetError("box contents outside every component") from None
        return tuple(sorted(self.signature(k) for k in held))


def _signature_part(net: Net, edge_ids: dict, node_ids: dict,
                    islands: _Islands):
    """Signature of the component numbered by ``edge_ids`` and ``node_ids``;
    box contents outside it are described by the islands that hold them."""
    def end_repr(end) -> str:
        if end[0] == "root":
            return "root"
        if end[0] == "free":
            return f"free:{end[1]}"
        return f"n{node_ids[end[1]]:06d}:{end[2]}"

    nodes = tuple(kind for _, kind in sorted(
        ((cid, net.nodes[nid]) for nid, cid in node_ids.items())))
    edges = []
    for eid in edge_ids:
        e = net.edges[eid]
        if any(end is not None and end[0] == "node" and end[1] not in node_ids
               for end in e.ends):
            raise NetError("component boundary crossed")
        r0, r1 = end_repr(e.ends[0]), end_repr(e.ends[1])
        if r0 <= r1:
            edges.append((r0, r1, format_weight(e.weight)))
        else:
            edges.append((r1, r0, format_weight(involute(e.weight))))
    boxes = []
    for b in net.boxes.values():
        if b.principal in node_ids:
            inside = [node_ids[n] for n in b.contents if n in node_ids]
            boxes.append((node_ids[b.principal],
                          tuple(sorted(node_ids[a] for a in b.auxiliaries)),
                          tuple(sorted(inside)),
                          islands.holding(n for n in b.contents if n not in node_ids)
                          if len(inside) < len(b.contents) else ()))
    return (nodes, tuple(sorted(edges)), tuple(sorted(boxes)))


def canonical_signature(net: Net):
    """Order-independent description of the net.

    The interface-reachable part is numbered from the root and the free
    edges; interface-free islands (erased substitutions produce them) are
    canonicalised by minimising over their possible anchor edges.  A box
    that holds an island describes it by the island's signature.
    """
    return _signature(net, net.port_map())


def _signature(net: Net, pm: dict):
    """``canonical_signature`` of ``net`` read through its port map ``pm``."""
    anchors = []
    if net.root is not None:
        anchors.append(net.root)
    anchors.extend(net.free[name] for name in sorted(net.free))
    edge_ids: dict[int, int] = {}
    node_ids: dict[int, int] = {}
    _explore(net, pm, anchors, edge_ids, node_ids)
    islands = _Islands(net, pm, set(net.edges) - set(edge_ids))
    main = _signature_part(net, edge_ids, node_ids, islands)
    return (main, tuple(sorted(islands.signature(k)
                               for k in range(len(islands.extents)))))


def iso_check(a: Net, b: Net) -> bool:
    """Kind-, port-, box- and weight-preserving isomorphism, after splicing
    out axiom/cut linking nodes on both sides.  Raises ``NetError`` when a
    net cannot be signed, for example when a box holds a node outside every
    component."""
    return _signature(*_contract(a)) == _signature(*_contract(b))


# ---------------------------------------------------------------------------
# export

def to_json(net: Net) -> str:
    def end_json(end):
        return list(end)

    data = {
        "nodes": [{"id": nid, "kind": kind} for nid, kind in sorted(net.nodes.items())],
        "edges": [
            {
                "id": eid,
                "ends": [end_json(e.ends[0]), end_json(e.ends[1])],
                "weight": None if e.weight.is_zero else [
                    [a.base, a.star, a.level] for a in e.weight.atoms],
            }
            for eid, e in sorted(net.edges.items())
        ],
        "boxes": [
            {
                "id": bid,
                "principal": b.principal,
                "auxiliaries": list(b.auxiliaries),
                "contents": sorted(b.contents),
            }
            for bid, b in sorted(net.boxes.items())
        ],
        "root": net.root,
        "free": {name: eid for name, eid in sorted(net.free.items())},
    }
    return json.dumps(data, indent=2, sort_keys=True)


def from_json(text: str) -> Net:
    data = json.loads(text)
    net = Net()
    for nd in data["nodes"]:
        net.nodes[nd["id"]] = nd["kind"]
    for ed in data["edges"]:
        weight = ZERO if ed["weight"] is None else Weight(
            tuple(WAtom(base, star, level) for base, star, level in ed["weight"]))
        net.edges[ed["id"]] = Edge([tuple(ed["ends"][0]), tuple(ed["ends"][1])], weight)
    for bd in data["boxes"]:
        net.boxes[bd["id"]] = Box(bd["principal"], tuple(bd["auxiliaries"]),
                                  set(bd["contents"]))
    net.root = data["root"]
    net.free = dict(data["free"])
    net._next = max([0, *net.nodes, *net.edges, *net.boxes]) + 1
    return net


def to_dot(net: Net) -> str:
    lines = ["digraph net {", "  rankdir=TB;", "  node [fontsize=10];"]
    children: dict[Optional[int], list] = {}
    order = sorted(net.boxes, key=lambda b: len(net.boxes[b].contents))

    def parent_of(bid):
        best = None
        for other in net.boxes:
            if other == bid:
                continue
            if net.boxes[bid].contents < net.boxes[other].contents:
                if best is None or net.boxes[other].contents < net.boxes[best].contents:
                    best = other
        return best

    for bid in order:
        children.setdefault(parent_of(bid), []).append(bid)
    placed = set()

    def node_line(nid):
        placed.add(nid)
        return f'    n{nid} [label="{net.nodes[nid]}"];'

    def emit_box(bid, indent):
        pad = " " * indent
        out = [f"{pad}subgraph cluster_{bid} {{", f'{pad}  label="box";']
        direct = set(net.boxes[bid].contents)
        for sub in children.get(bid, []):
            direct -= net.boxes[sub].contents
            out.extend(emit_box(sub, indent + 2))
        for nid in sorted(direct):
            out.append(" " * (indent + 2) + node_line(nid).strip())
            placed.add(nid)
        out.append(f"{pad}}}")
        return out

    for bid in sorted(children.get(None, [])):
        lines.extend(emit_box(bid, 2))
    for nid in sorted(net.nodes):
        if nid not in placed:
            lines.append(node_line(nid))
    lines.append('  root [shape=point,label=""];')
    for name in sorted(net.free):
        lines.append(f'  free_{name} [shape=point,label="{name}"];')

    def end_dot(end):
        if end[0] == "root":
            return "root"
        if end[0] == "free":
            return f"free_{end[1]}"
        return f"n{end[1]}"

    for eid, e in sorted(net.edges.items()):
        label = format_weight(e.weight)
        attr = f' [label="{label}"]' if label != "1" else ""
        lines.append(f"  {end_dot(e.ends[0])} -> {end_dot(e.ends[1])}{attr};")
    lines.append("}")
    return "\n".join(lines)
