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
from .labels import ArgumentLabelError, Label, Over, split_argument_label
from .labelled import UnlabelledTermError, label_of
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
    """A proof-net.  A net is a value once built: every operation here that
    changes one (``closed_cut_step``, ``contracted``) works on a copy, so
    ``iso_check`` signs each net at most once and keeps the signature on it.
    """

    def __init__(self):
        self.nodes: dict[int, str] = {}
        self.edges: dict[int, Edge] = {}
        self.boxes: dict[int, Box] = {}
        self.root: Optional[int] = None
        self.free: dict[str, int] = {}
        self._next = 0
        self._signature = None  # set by the first iso_check that compares it

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
    # an edge crosses the boxes that hold one of its ends but not the other,
    # and lies as deep as the number of boxes that hold both
    boxes_of: dict = {}
    for bid, b in net.boxes.items():
        for nid in b.contents:
            boxes_of.setdefault(nid, set()).add(bid)
    outside: frozenset = frozenset()
    crossings = {bid: [] for bid in net.boxes}
    depth = {}
    for eid, e in net.edges.items():
        if len(e.ends) != 2 or None in e.ends:
            continue
        held = [boxes_of.get(end[1], outside) if end[0] == "node" else outside
                for end in e.ends]
        if not (held[0] or held[1]):
            continue
        depth[eid] = len(held[0] & held[1])
        for bid in held[0] ^ held[1]:
            _, nid, port = e.ends[0] if bid in held[0] else e.ends[1]
            b = net.boxes[bid]
            if not (nid in (b.principal, *b.auxiliaries) and port == "out"):
                crossings[bid].append(f"edge {eid} crosses box {bid} away from a door")
    for found in crossings.values():
        problems.extend(found)
    for eid, e in net.edges.items():
        if not e.weight.is_zero:
            for a in e.weight.atoms:
                if a.level < 0:
                    problems.append(f"edge {eid} carries a negative level")
                elif strict_levels and a.level != depth.get(eid, 0):
                    problems.append(
                        f"edge {eid} atom level {a.level} != box depth {depth.get(eid, 0)}")
    return problems


# ---------------------------------------------------------------------------
# translation

class _Translator:
    """Builds one net.  ``go`` returns a term's root edge and a map from
    each free variable to its dangling edge and the box level it sits at.
    ``weighted`` decides the weights only: an unweighted net reads every
    label as absent, so its levels are box depths, as for an unlabelled
    term."""

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
        if label is None or not self.weighted:
            return LevelledWeight(ONE, level)
        return lw(label, level)

    def entry_level(self, label: Optional[Label], level: int) -> int:
        """The lowest level from ``level`` up at which ``label`` reads
        without underflow; like ``lw_here``, an absent label reads nothing."""
        if not self.weighted or label is None:
            return level
        return max(level, entry_level_needed(label))

    def const(self, base: str, level: int, star: bool = False) -> Weight:
        if not self.weighted:
            return ONE
        return watom(base, level, star)

    def go(self, term: Term, level: int,
           override: Optional[Label] = None) -> tuple[int, dict]:
        net = self.net
        match term:
            case Var(name, label):
                r = self.lw_here(override if override is not None else label, level)
                ax = self.node("ax")
                e_body = net.new_edge(None, ("node", ax, "a"), r.weight)
                e_var = net.new_edge(("node", ax, "b"), None, ONE)
                if self.cbn:
                    d = self.node("derelict")
                    net.attach(e_var, 1, ("node", d, "in"))
                    e_var = net.new_edge(("node", d, "out"), None,
                                         self.const("d", r.out_level))
                return e_body, {name: (e_var, r.out_level)}

            case Abs(binder, body, label):
                r = self.lw_here(override if override is not None else label, level)
                o = r.out_level
                if self.cbn:
                    root, free = self.go(body, o)
                    par = self._bind(root, free, binder, o)
                    return net.new_edge(None, ("node", par, "out"), r.weight), free
                self.box_stack.append(set())
                root, free = self.go(body, o + 1)
                par = self._bind(root, free, binder, o + 1)
                bang = self.node("bang")
                net.new_edge(("node", par, "out"), ("node", bang, "in"), ONE)
                free = self._close_box(bang, free)
                return net.new_edge(None, ("node", bang, "out"), r.weight), free

            case App(fun, arg, label):
                r = self.lw_here(override if override is not None else label, level)
                o = r.out_level
                froot, ffree = self.go(fun, o)
                tensor = self.node("tensor")
                cut = self.node("cut")
                e_root = net.new_edge(None, ("node", tensor, "right"),
                                      compose(r.weight, self.const("q", o)))
                net.attach(froot, 0, ("node", cut, "b"))
                if self.cbn:
                    net.new_edge(("node", tensor, "out"), ("node", cut, "a"), ONE)
                    aroot, afree = self._arg_box(
                        arg, o, self.const("p", o, star=True), split=False)
                else:
                    der = self.node("derelict")
                    net.new_edge(("node", tensor, "out"), ("node", der, "in"), ONE)
                    net.new_edge(("node", der, "out"), ("node", cut, "a"),
                                 self.const("d", o))
                    aroot, afree = self.go(arg, o)
                    net.edges[aroot].compose_incoming(
                        0, self.const("p", o, star=True))
                net.attach(aroot, 0, ("node", tensor, "left"))
                return e_root, self._merged(ffree, afree)

            case Erase(binder, body):
                root, free = self.go(body, level, override)
                weaken = self.node("weaken")
                e_x = net.new_edge(("node", weaken, "out"), None,
                                   ZERO if self.weighted else ONE)
                label = override if override is not None else self._label(body)
                erased = {binder: (e_x, self._erased_level(label, level))}
                return root, self._merged(free, erased)

            case Copy(source, left, right, body):
                root, free = self.go(body, level, override)
                fan = self.node("fan")
                ey, ly = self._taken(free, left, "copy target")
                ez, lz = self._taken(free, right, "copy target")
                if ly != lz:
                    raise TranslationError(
                        f"copy targets at different levels ({ly} vs {lz})")
                net.edges[ey].compose_outgoing(1, self.const("r", ly))
                net.attach(ey, 1, ("node", fan, "left"))
                net.edges[ez].compose_outgoing(1, self.const("s", lz))
                net.attach(ez, 1, ("node", fan, "right"))
                e_source = net.new_edge(("node", fan, "out"), None, ONE)
                return root, self._merged(free, {source: (e_source, ly)})

            case Subst(body, arg, target):
                root, free = self.go(body, level, override)
                ex, lx = self._taken(free, target, "substitution target")
                cut = self.node("cut")
                net.attach(ex, 1, ("node", cut, "a"))
                if self.cbn:
                    aroot, afree = self._arg_box(arg, lx, ONE, split=True)
                else:
                    aroot, afree = self.go(
                        arg, self.entry_level(self._label(arg), lx))
                net.attach(aroot, 0, ("node", cut, "b"))
                return root, self._merged(free, afree)

        raise AssertionError

    @staticmethod
    def _label(term: Term) -> Optional[Label]:
        try:
            return label_of(term)
        except UnlabelledTermError:
            return None

    def _erased_level(self, label: Optional[Label], level: int) -> int:
        """The level of a binder erased above a body labelled ``label``.

        The Beta step that takes the binder's abstraction away prefixes the
        body's label with ``β.<(D>.α.<!)>`` (``lcf``) or ``β.<(α)>``
        (``lca``); the overline ends where the binder lived, inside the
        function's box in call-by-value.  Later steps add to the label in
        front of that overline (an enclosing Beta) or after it (a Var step
        appends the argument's label), so the binder sits where the label's
        last overline ends.  With no overline, or no label, it sits at the
        erase node's level.
        """
        ends = [i + 1 for i, a in enumerate(label or ()) if isinstance(a, Over)]
        return self.lw_here(label[:ends[-1]] if ends else None, level).out_level

    def _bind(self, root: int, free: dict, binder: str, inner_level: int) -> int:
        """The par node that binds ``binder`` (taken out of ``free``) on its
        left and the body ``root`` on its right."""
        net = self.net
        par = self.node("par")
        e_x, _ = self._taken(free, binder, "binder")
        net.edges[e_x].compose_outgoing(1, self.const("p", inner_level))
        net.attach(e_x, 1, ("node", par, "left"))
        net.edges[root].compose_incoming(
            0, self.const("q", inner_level, star=True))
        net.attach(root, 0, ("node", par, "right"))
        return par

    def _close_box(self, bang: int, free: dict) -> dict:
        """Close the innermost open box behind ``bang`` with one auxiliary
        door per free variable, and return the free map outside it."""
        # free edges dangle at ends[1]; leaving through the door reads t*,
        # so entering the box reads t at the outer level
        net = self.net
        auxiliaries = []
        outside = {}
        for name in sorted(free):
            edge, ly = free[name]
            why = self.node("whynot")
            net.attach(edge, 1, ("node", why, "in"))
            if ly < 1:
                raise LevelUnderflowError(f"auxiliary door for {name} at level 0")
            e_aux = net.new_edge(("node", why, "out"), None,
                                 self.const("t", ly - 1, star=True))
            auxiliaries.append(why)
            outside[name] = (e_aux, ly - 1)
        net.boxes[net.new_id()] = Box(bang, tuple(auxiliaries), self.box_stack.pop())
        return outside

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
            try:
                outside, override = split_argument_label(label_of(arg))
            except ArgumentLabelError as exc:
                raise TranslationError(f"argument label: {exc}") from exc
            r = lw(outside, self.entry_level(outside, entry))
            ext_weight = compose(prefix, r.weight)
            interior_entry = r.out_level
        else:
            interior_entry = entry + 1
        self.box_stack.append(set())
        root, free = self.go(arg, interior_entry, override)
        bang = self.node("bang")
        net.attach(root, 0, ("node", bang, "in"))
        free = self._close_box(bang, free)
        return net.new_edge(None, ("node", bang, "out"), ext_weight), free

    @staticmethod
    def _taken(free: dict, name: str, role: str) -> tuple:
        """The wire and level of ``name``, taken out of ``free``."""
        if name not in free:
            raise TranslationError(f"{role} {name} unused (term not linear)")
        return free.pop(name)

    @staticmethod
    def _merged(a: dict, b: dict) -> dict:
        shared = a.keys() & b.keys()
        if shared:
            raise TranslationError(f"free variables not linear: {sorted(shared)}")
        return {**a, **b}


def _translate(term: Term, cbn: bool, weighted: bool) -> Net:
    net = Net()
    root, free = _Translator(net, cbn, weighted).go(term, 0)
    net.attach(root, 0, ("root",))
    net.root = root
    for name in sorted(free):
        edge, _ = free[name]
        net.attach(edge, 1, ("free", name))
        net.free[name] = edge
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

def _splice(net: Net, pm: dict, nid: int, port_a: str, port_b: str) -> int:
    """Delete a two-port node of ``net`` in place, fusing its edges into one
    oriented edge that reads (edge at port_a towards the node) then (edge at
    port_b away from the node).  The port map ``pm`` of ``net`` is kept
    current: the node's ports leave it and the outer ends point at the fused
    edge, as does the interface an outer end is.  A self-loop raises before
    anything changes."""
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
        if end is None:
            continue
        if end[0] == "node":
            pm[(end[1], end[2])] = (fused, i)
        elif end[0] == "root":
            net.root = fused
        else:
            net.free[end[1]] = fused
    del net.edges[ea], net.edges[eb]
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
             flipped: Optional[int] = None) -> None:
    """Deterministic breadth-first numbering of edges and nodes from seeds,
    visiting each edge's ends in order; ``flipped`` names an edge whose ends
    are visited last first."""
    queue = deque()
    for eid in seeds:
        if eid not in edge_ids:
            edge_ids[eid] = len(edge_ids)
            queue.append(eid)
    while queue:
        eid = queue.popleft()
        ends = net.edges[eid].ends
        for end in reversed(ends) if eid == flipped else ends:
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
                for flipped in (None, eid):
                    ce: dict = {}
                    cn: dict = {}
                    _explore(self.net, self.pm, [eid], ce, cn, flipped)
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
    box contents outside it, doors included, are described by the islands
    that hold them."""
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
                          tuple(sorted(node_ids[a] for a in b.auxiliaries
                                       if a in node_ids)),
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
    out axiom/cut linking nodes on both sides.  Each net is signed the first
    time it is compared.  Raises ``NetError`` when a net cannot be signed,
    for example when a box holds a node outside every component."""
    return _signed(a) == _signed(b)


def _signed(net: Net):
    """The signature of ``net`` contracted, computed once per net."""
    if net._signature is None:
        net._signature = _signature(*_contract(net))
    return net._signature


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
