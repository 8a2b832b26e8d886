"""Weighted proof-nets with boxes, the call-by-value and call-by-name
translations of labelled terms, closed cut elimination, and net isomorphism.

Edges are oriented for weight bookkeeping only: traversing an edge from
``ends[0]`` to ``ends[1]`` reads its weight, the other way its involution.
Straightness and direction semantics live in the paths module.

Conventions fixed by the label/weight correspondence (certified by the
invariance suites rather than assumed):

* application: tensor whose right premise is the result edge, carrying the
  node label composed with q at the label's output level; the function's
  wire attaches to the conclusion, through a dereliction (call-by-value) or
  directly (call-by-name); the argument enters the left premise behind p*.
* abstraction: par of (variable edge behind p, body behind q*), boxed with
  auxiliary doors for free variables in call-by-value, unboxed in
  call-by-name.
* copy is a fan whose premises carry r (left target) and s (right target);
  erase is a weakening with an absorbing weight.
* substitution joins the target's wire and the argument's root wire into
  one edge; in call-by-name the argument sits in a box behind a
  dereliction on the variable side, and the argument label up to its
  trailing box marker is read on the box's external edge.
* every variable is one edge, an axiom link; in call-by-name it runs into
  a dereliction, the physical counterpart of the D marker emitted by the
  Var rule.

Axioms and cuts are edges, not nodes.  The last port of every kind, its
``out``, is its principal port, and a cut is an edge between two
principal ports (Lafont, *Interaction nets*, POPL 1990).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .algebra import (ONE, ZERO, LevelUnderflowError, Weight, compose,
                      entry_level_needed, involute, format_weight, lw, watom)
from .labels import ArgumentLabelError, Label, Over, split_argument_label
from .labelled import label_of, with_label
from .terms import Abs, App, Copy, Erase, Subst, Term, Var

PORTS = {
    "tensor": ("left", "right", "out"),
    "par": ("left", "right", "out"),
    "fan": ("left", "right", "out"),
    "bang": ("in", "out"),
    "whynot": ("in", "out"),
    "derelict": ("in", "out"),
    "weaken": ("out",),
}

# the number of ports of each node kind
_ARITY = {kind: len(ports) for kind, ports in PORTS.items()}

# port pairs a straight path may connect through a node: each port but the
# last with the last, so no path crosses from one premise to another
TRANSITIONS = {kind: tuple((port, ports[-1]) for port in ports[:-1])
               for kind, ports in PORTS.items()}


class NetError(Exception):
    pass


class NotACutError(NetError):
    pass


class NotClosedError(NetError):
    pass


class TranslationError(NetError):
    pass


@dataclass(slots=True)
class Edge:
    ends: list
    weight: Weight = ONE

    def weight_from(self, end_index: int) -> Weight:
        return self.weight if end_index == 0 else involute(self.weight)


@dataclass
class Box:
    """A box: its doors, and the ids of the nodes and boxes that lie
    directly in it.  Boxes nest or are disjoint, so a net's boxes form a
    forest, and each node or box is listed by at most one box.  Every
    ``bang`` is one box's principal door and every ``whynot`` one box's
    auxiliary, and a box lists its doors."""
    principal: int
    auxiliaries: tuple
    contents: set


class Net:
    """A proof-net.  A net is a value once built: ``closed_cut_step``
    works on a copy, so ``validate`` judges each net at most once,
    ``iso_check`` signs it at most once, and the net keeps both on it.  A
    translated net keeps its port map from its first edge, any other
    builds it on first read, and every edit keeps it current.  A copy
    shares its ``Edge`` and ``Box`` objects with the net it was made from,
    and no step edits one in place: a step adds and drops edges
    (``_fuse``), and puts a new box in the copy's map.
    """

    def __init__(self):
        self.nodes: dict[int, str] = {}
        self.edges: dict[int, Edge] = {}
        self.boxes: dict[int, Box] = {}
        self.root: Optional[int] = None
        self.free: dict[str, int] = {}
        self._next = 0
        self._ports = None  # set by the translator, else by the first read of ports
        self._verdict = None  # set by the first validate
        self._signature = None  # set by the first iso_check that signs it

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def new_node(self, kind: str) -> int:
        self._next = nid = self._next + 1
        self.nodes[nid] = kind
        return nid

    def new_edge(self, end0=None, end1=None, weight: Weight = ONE) -> int:
        """A new edge with both its ends in place, and its node ends in a kept port map."""
        self._next = eid = self._next + 1
        self.edges[eid] = Edge([end0, end1], weight)
        if (ports := self._ports) is not None:
            if end0 and end0[0] == "node":
                ports[end0[1], end0[2]] = (eid, 0)
            if end1 and end1[0] == "node":
                ports[end1[1], end1[2]] = (eid, 1)
        return eid

    def attach(self, eid: int, end_index: int, end, weight: Weight = ONE) -> None:
        """Put the dangling end ``end_index`` of edge ``eid`` at ``end``, with
        ``weight`` composed on that side, and a node end in the port map: the
        one code that edits an ``Edge``, one the translator is building."""
        e = self.edges[eid]
        e.ends[end_index] = end
        if weight != ONE:
            e.weight = (compose(weight, e.weight) if end_index == 0
                        else compose(e.weight, weight))
        if end[0] == "node":
            self._ports[end[1], end[2]] = (eid, end_index)

    @property
    def ports(self) -> dict:
        """``(node, port) -> (edge, end index)`` for every edge end at a node:
        kept from a translated net's first edge, built from the edges on the
        first read of a net assembled field by field (as
        ``bench/reference.renumbered`` does), and kept current by every edit
        after that.  Of two ends at one port, a built map holds the first
        edge's, a kept map the one placed last, and ``validate`` the other."""
        if self._ports is None:
            self._ports = {}
            for eid, e in self.edges.items():
                if len(e.ends) == 2:
                    for i, end in enumerate(e.ends):
                        if end is not None and end[0] == "node":
                            self._ports.setdefault((end[1], end[2]), (eid, i))
        return self._ports

    def copy(self) -> "Net":
        """A net equal to this one that shares its ``Edge`` and ``Box``
        objects, and copies its maps.  It carries nothing else the net
        keeps: a step edits the copy, which is judged and signed afresh."""
        out = Net()
        out.nodes = dict(self.nodes)
        out.edges = dict(self.edges)
        out.boxes = dict(self.boxes)
        out.root = self.root
        out.free = dict(self.free)
        out._next = self._next
        out._ports = dict(self.ports)
        return out


# ---------------------------------------------------------------------------
# validation

def validate(net: Net) -> list:
    """Structural violations as strings; empty means well-formed.  This is
    the one statement of a well-formed net: a translation and ``iso_check``
    both refuse a net it finds a problem in.

    The first call on a net keeps its verdict on the net, and later calls
    read it, so a net is walked at most once; a net edited after it was
    judged must be built afresh.  The boxes must form a forest: each lists
    nodes and boxes, no id is listed by two boxes, and going up from any
    box ends at a box no box lists.  Each box lists its doors and names
    each once, and each ``bang`` and ``whynot`` is a door of the right kind
    of some box.  One loop over the edges then checks each edge's ends, the
    boxes it crosses and the levels of its weight.  An edge crosses the
    boxes that hold one of its ends but not the other; the members of one
    box share one set of the boxes that hold them, so an edge inside one
    box is settled by an ``is`` test.
    """
    if net._verdict is not None:
        return list(net._verdict)
    problems = []
    nodes, boxes, ports = net.nodes, net.boxes, net.ports
    forest = []
    parent: dict = {}  # node or box -> the box that lists it
    for bid, b in boxes.items():
        for member in b.contents:
            if member not in nodes and member not in boxes:
                forest.append(f"box {bid} lists {member}, neither a node nor a box")
            elif member in parent:
                forest.append(f"boxes {parent[member]} and {bid} both list {member}")
            else:
                parent[member] = bid
    outside: frozenset = frozenset()
    # node or box -> the boxes that hold it, from the root boxes down
    boxes_of = {bid: outside for bid in boxes if bid not in parent}
    below = list(boxes_of)
    while below:
        bid = below.pop()
        inside = boxes_of[bid] | {bid}
        for member in boxes[bid].contents:
            if parent.get(member) == bid:
                boxes_of[member] = inside
                if member in boxes:
                    below.append(member)
    # going up from a box no root reaches comes round a cycle of boxes
    forest += [f"box {bid} lies inside a cycle of boxes"
               for bid in sorted(boxes.keys() - boxes_of.keys())]
    crossings = {bid: [] for bid in boxes}
    levels = []
    attached = 0  # ends that hold a port of their node
    for eid, e in net.edges.items():
        ends = e.ends
        if len(ends) != 2:
            problems.append(f"edge {eid} lacks two endpoints")
            ends = ()
        for i, end in enumerate(ends):
            if end is None:
                problems.append(f"edge {eid} has a dangling endpoint")
            elif end[0] == "node":
                _, nid, port = end
                if nid not in nodes:
                    problems.append(f"edge {eid} references missing node {nid}")
                elif port not in PORTS[nodes[nid]]:
                    problems.append(f"edge {eid} uses bad port {port} on {nodes[nid]}")
                elif ports[(nid, port)] != (eid, i):
                    problems.append(f"port {(nid, port)} attached twice")
                else:
                    attached += 1
            elif end[0] == "root":
                if net.root != eid:
                    problems.append(f"edge {eid} claims the root interface")
            elif end[0] == "free":
                if net.free.get(end[1]) != eid:
                    problems.append(f"edge {eid} claims free variable {end[1]}")
            else:
                problems.append(f"edge {eid} has unknown endpoint {end}")
        if ends and None not in ends:
            end0, end1 = ends
            near = boxes_of.get(end0[1], outside) if end0[0] == "node" else outside
            far = boxes_of.get(end1[1], outside) if end1[0] == "node" else outside
            if near is not far:
                for bid in near ^ far:
                    _, nid, port = end0 if bid in near else end1
                    box = boxes[bid]
                    if not (nid in (box.principal, *box.auxiliaries) and port == "out"):
                        crossings[bid].append(
                            f"edge {eid} crosses box {bid} away from a door")
        for _, _, level in e.weight or ():
            if level < 0:
                levels.append(f"edge {eid} carries a negative level")
    kinds = list(nodes.values())
    # a port is empty only if fewer ends hold a port than there are ports
    if attached < sum(map(_ARITY.__getitem__, kinds)):
        for nid, kind in nodes.items():
            for port in PORTS[kind]:
                if (nid, port) not in ports:
                    problems.append(f"{kind} node {nid} has empty port {port}")
    for name, eid in net.free.items():
        if eid not in net.edges:
            problems.append(f"free edge for {name} missing")
        elif ("free", name) not in net.edges[eid].ends:
            problems.append(f"free edge {eid} for {name} does not end at {name}")
    if net.root is not None and net.root not in net.edges:
        problems.append("root edge missing")
    elif net.root is not None and ("root",) not in net.edges[net.root].ends:
        problems.append(f"root edge {net.root} does not end at the root")
    doors = set()  # each bang that is a box's principal, each whynot an auxiliary
    for bid, b in boxes.items():
        if nodes.get(b.principal) != "bang":
            problems.append(f"box {bid} principal is not an of-course node")
        else:
            doors.add(b.principal)
        for a in b.auxiliaries:
            if nodes.get(a) != "whynot":
                problems.append(f"box {bid} auxiliary {a} is not a why-not node")
            else:
                doors.add(a)
        if not (named := {b.principal, *b.auxiliaries}) <= b.contents:
            problems.append(f"box {bid} doors must belong to the box")
        if len(named) <= len(b.auxiliaries):  # a door named twice
            problems += [f"box {bid} names auxiliary {a} twice" for a in
                         dict.fromkeys(b.auxiliaries) if b.auxiliaries.count(a) > 1]
    # a bang or whynot is no box's door only if there are fewer doors than them
    if len(doors) < kinds.count("bang") + kinds.count("whynot"):
        problems += [f"{kind} node {nid} is no box's door" for nid, kind in nodes.items()
                     if kind in ("bang", "whynot") and nid not in doors]
    problems += forest
    for found in crossings.values():
        problems.extend(found)
    problems += levels
    net._verdict = tuple(problems)
    return problems


# ---------------------------------------------------------------------------
# translation

class _Translator:
    """Builds one net.  ``var`` and the generator ``go``, sent the same for
    each subterm it yields, give a term's root edge, dangling at end 0, and
    a map from each free variable to its edge, dangling at end 1, and box
    level.  In call-by-value a variable's root edge is its free edge too.
    Labels are read through ``lw``, an absent one as empty, so unlabelled
    levels are box depths.

    ``open`` holds the members of each box being built, innermost last,
    below those of no box: each node made, and each box closed, joins the
    innermost."""

    def __init__(self, net: Net, cbn: bool):
        self.net = net
        self.cbn = cbn
        self.open = [set()]

    def node(self, kind: str) -> int:
        nid = self.net.new_node(kind)
        self.open[-1].add(nid)
        return nid

    def var(self, term: Var, level: int) -> tuple[int, dict]:
        """One edge, the variable's root and its free wire at once, or in
        call-by-name the edge into its dereliction and the one out of it."""
        net = self.net
        r = lw(term.label or (), level)
        if not self.cbn:
            e = net.new_edge(None, None, r.weight)
            return e, {term.name: (e, r.out_level)}
        d = self.node("derelict")
        e_body = net.new_edge(None, ("node", d, "in"), r.weight)
        e_var = net.new_edge(("node", d, "out"), None, watom("d", r.out_level))
        return e_body, {term.name: (e_var, r.out_level)}

    def go(self, term: Term, level: int):
        net = self.net
        match term:
            case Abs(binder, body, label):
                r = lw(label or (), level)
                o = r.out_level
                if self.cbn:
                    root, free = yield body, o
                    par = self._bind(root, free, binder, o)
                    return net.new_edge(None, ("node", par, "out"), r.weight), free
                self.open.append(set())
                root, free = yield body, o + 1
                par = self._bind(root, free, binder, o + 1)
                bang = self.node("bang")
                net.new_edge(("node", par, "out"), ("node", bang, "in"), ONE)
                return self._close_box(bang, free, r.weight)

            case App(fun, arg, label):
                r = lw(label or (), level)
                o = r.out_level
                froot, ffree = yield fun, o
                tensor = self.node("tensor")
                e_root = net.new_edge(None, ("node", tensor, "right"),
                                      compose(r.weight, watom("q", o)))
                if self.cbn:
                    net.attach(froot, 0, ("node", tensor, "out"))
                    aroot, afree = yield from self._arg_box(
                        arg, o + 1, watom("p", o, star=True))
                    net.attach(aroot, 0, ("node", tensor, "left"))
                else:
                    der = self.node("derelict")
                    net.new_edge(("node", tensor, "out"), ("node", der, "in"), ONE)
                    net.attach(froot, 0, ("node", der, "out"), watom("d", o))
                    aroot, afree = yield arg, o
                    net.attach(aroot, 0, ("node", tensor, "left"),
                               watom("p", o, star=True))
                return e_root, self._merged(ffree, afree)

            case Erase(binder, body):
                root, free = yield body, level
                weaken = self.node("weaken")
                e_x = net.new_edge(("node", weaken, "out"), None, ZERO)
                erased = {binder: (e_x, self._erased_level(label_of(body), level))}
                return root, self._merged(free, erased)

            case Copy(source, left, right, body):
                root, free = yield body, level
                fan = self.node("fan")
                ey, ly = self._taken(free, left, "copy target")
                ez, lz = self._taken(free, right, "copy target")
                if ly != lz:
                    raise TranslationError(
                        f"copy targets at different levels ({ly} vs {lz})")
                net.attach(ey, 1, ("node", fan, "left"), watom("r", ly))
                net.attach(ez, 1, ("node", fan, "right"), watom("s", lz))
                e_source = net.new_edge(("node", fan, "out"), None, ONE)
                return root, self._merged(free, {source: (e_source, ly)})

            case Subst(body, arg, target):
                root, free = yield body, level
                ex, lx = self._taken(free, target, "substitution target")
                if self.cbn:
                    aroot, afree = yield from self._arg_box(*self._split_argument(arg, lx))
                else:
                    entry = entry_level_needed(label_of(arg) or ())
                    aroot, afree = yield arg, max(lx, entry)
                # the target's free end meets the argument's root end
                joined = _fuse(net, (ex, 1), (aroot, 0))
                renamed = {ex: joined, aroot: joined}
                return renamed.get(root, root), {
                    name: (renamed.get(e, e), lz)
                    for name, (e, lz) in self._merged(free, afree).items()}

        raise AssertionError

    @staticmethod
    def _erased_level(label: Optional[Label], level: int) -> int:
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
        return lw(label[:ends[-1]] if ends else (), level).out_level

    def _bind(self, root: int, free: dict, binder: str, inner_level: int) -> int:
        """The par node that binds ``binder`` (taken out of ``free``) on its
        left and the body ``root`` on its right."""
        net = self.net
        par = self.node("par")
        e_x, _ = self._taken(free, binder, "binder")
        net.attach(e_x, 1, ("node", par, "left"), watom("p", inner_level))
        net.attach(root, 0, ("node", par, "right"), watom("q", inner_level, star=True))
        return par

    def _close_box(self, bang: int, free: dict, weight: Weight) -> tuple:
        """Close the innermost open box behind ``bang`` with an auxiliary
        door per free variable, and put it in the box around it; return its
        external edge, of ``weight``, and the free map outside."""
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
                                 watom("t", ly - 1, star=True))
            auxiliaries.append(why)
            outside[name] = (e_aux, ly - 1)
        bid = net.new_id()
        net.boxes[bid] = Box(bang, tuple(auxiliaries), self.open.pop())
        self.open[-1].add(bid)
        return net.new_edge(None, ("node", bang, "out"), weight), outside

    @staticmethod
    def _split_argument(arg: Term, entry: int) -> tuple:
        """A call-by-name substitution argument entering at level ``entry``,
        as ``_arg_box`` takes it: its label's prefix up to and including the
        trailing box marker is read on the box's external edge, and the
        argument goes inside with the rest as its label.  An unlabelled
        argument is read inside, one level up, behind weight 1."""
        label = label_of(arg)
        if label is None:
            return arg, entry + 1, ONE
        try:
            outside, rest = split_argument_label(label)
        except ArgumentLabelError as exc:
            raise TranslationError(f"argument label: {exc}") from exc
        r = lw(outside, max(entry, entry_level_needed(outside)))
        return with_label(arg, rest), r.out_level, r.weight

    def _arg_box(self, arg: Term, interior: int, ext_weight: Weight):
        """Box the translation of ``arg`` at level ``interior``, behind an
        external edge of weight ``ext_weight``."""
        self.open.append(set())
        root, free = yield arg, interior
        bang = self.node("bang")
        self.net.attach(root, 0, ("node", bang, "in"))
        return self._close_box(bang, free, ext_weight)

    @staticmethod
    def _taken(free: dict, name: str, role: str) -> tuple:
        """The wire and level of ``name``, taken out of ``free``."""
        if name not in free:
            raise TranslationError(f"{role} {name} unused (term not linear)")
        return free.pop(name)

    @staticmethod
    def _merged(a: dict, b: dict) -> dict:
        if a and b and (shared := a.keys() & b.keys()):
            raise TranslationError(f"free variables not linear: {sorted(shared)}")
        return {**a, **b} if a and b else a or b  # either map itself if one is empty


def _translate(term: Term, cbn: bool) -> Net:
    """The weighted net of ``term``, built in one loop, its port map kept from the start."""
    net = Net()
    net._ports = {}  # each end is recorded as it is placed, so validate builds no map
    translator = _Translator(net, cbn)
    waiting = []  # generators, each waiting for the subterm it yielded
    t, level = term, 0
    while True:
        while type(t) is not Var:  # down to the next variable
            waiting.append(translator.go(t, level))
            t, level = next(waiting[-1])
        given = translator.var(t, level)
        while waiting:  # back up to a generator that asks for another subterm
            try:
                t, level = waiting[-1].send(given)
                break
            except StopIteration as done:
                waiting.pop()
                given = done.value
        if not waiting:
            break
    root, free = given
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


def translate_cbv(term: Term) -> Net:
    return _translate(term, cbn=False)


def translate_cbn(term: Term) -> Net:
    return _translate(term, cbn=True)


# ---------------------------------------------------------------------------
# closed cut elimination

def _fuse(net: Net, a: tuple, b: tuple, middle: Weight = ONE) -> int:
    """Join two edge ends into one edge, in place.  ``a`` and ``b`` are
    ``(edge, end index)``; the new edge runs from the far end of ``a``'s
    edge to the far end of ``b``'s, and reads ``a``'s edge towards the end
    joined, then ``middle``, then ``b``'s edge away from its end.  The
    joined ends leave the port map, and an interface at a far end names the
    new edge.  Joining an edge to itself would close a loop with no end: it
    raises before anything changes."""
    (ea, ia), (eb, ib) = a, b
    if ea == eb:
        raise NetError(f"joining edge {ea} to itself closes a loop with no end")
    edge_a, edge_b = net.edges.pop(ea), net.edges.pop(eb)
    for end in (edge_a.ends[ia], edge_b.ends[ib]):
        if end is not None and end[0] == "node":
            del net.ports[end[1:]]
    outer_a, outer_b = edge_a.ends[1 - ia], edge_b.ends[1 - ib]
    fused = net.new_edge(outer_a, outer_b, compose(
        edge_a.weight_from(1 - ia), middle, edge_b.weight_from(ib)))
    for end in (outer_a, outer_b):
        if end == ("root",):
            net.root = fused
        elif end is not None and end[0] == "free":
            net.free[end[1]] = fused
    return fused


def _box_listing(net: Net, member: int) -> Optional[int]:
    """The box that lists the node or box ``member``, or None.  In a net
    ``validate`` accepts, a door's box lists it, so this is the box of a
    ``bang`` or a ``whynot`` too."""
    return next((bid for bid, b in net.boxes.items() if member in b.contents), None)


@dataclass(frozen=True)
class _CutRedex:
    """A cut classified for closed elimination.

    ``nodes`` are the cut's two ends, the one the rule is named after
    first: tensor, par; dereliction, contraction or weakening, then the
    box's principal door; for commutation the principal door, then the
    auxiliary door it enters.  ``box`` is the box the step opens, erases,
    copies or moves, ``closed`` says that it has no auxiliary doors (or
    that the rule needs no box), and ``crossing`` is the weight read
    across the cut from ``nodes[0]``.  ``joins`` are the pairs of ports
    whose edges the step joins (``_fuse``), in the order it joins them.
    An edge crosses a box's border only at a door's ``out``, so both ends
    of the cut lie in the box that lists the tensor or ``box``, and so does
    every id the step takes out of a box or puts in one, but in commutation,
    where the auxiliary door's box loses the door and gains ``box``.
    """

    cut: int
    rule: str
    nodes: tuple
    box: Optional[int]
    closed: bool
    crossing: Weight
    joins: tuple


def _is_cut(net: Net, eid: int) -> bool:
    """Whether ``eid`` is an edge between two principal ports."""
    edge = net.edges.get(eid)
    if edge is None:
        return False
    a, b = edge.ends
    return a is not None and b is not None and a[0] == b[0] == "node" \
        and a[2] == b[2] == "out"


def _cut_redex(net: Net, cut: int) -> Optional[_CutRedex]:
    """The closed elimination step at the cut ``cut`` of a net ``validate``
    accepts, or None when no rule matches the kinds of the cut's ends."""
    ends = net.edges[cut].ends
    kinds = [net.nodes[end[1]] for end in ends]
    rule = box = None
    if sorted(kinds) == ["par", "tensor"]:
        rule, first = "mult", kinds.index("tensor")
    elif "bang" in kinds:
        door = kinds.index("bang")
        other = 1 - door
        if kinds[other] in ("derelict", "fan", "weaken"):
            rule, first = kinds[other], other
        elif kinds[other] == "whynot":
            rule, first = "commute", door
        box = _box_listing(net, ends[door][1])
    if rule is None:
        return None
    near, far = ends[first][1], ends[1 - first][1]
    if rule == "mult":
        joins = (((near, "left"), (far, "left")), ((near, "right"), (far, "right")))
    elif rule == "derelict":
        joins = (((near, "in"), (near, "out")), ((far, "in"), (far, "out")))
    elif rule == "commute":
        joins = (((far, "in"), (far, "out")),)
    else:
        joins = ()
    closed = box is None or not net.boxes[box].auxiliaries
    return _CutRedex(cut, rule, (near, far), box, closed,
                     net.edges[cut].weight_from(first), joins)


def _closes_loop(net: Net, joins: tuple) -> bool:
    """Whether joining the port pairs ``joins`` would join some edge to
    itself: whether a chain of edges and joined ports comes back to the
    port it left."""
    partner = {}
    for a, b in joins:
        partner[a], partner[b] = b, a
    for start in partner:
        port = start
        while True:
            eid, i = net.ports[port]
            far = net.edges[eid].ends[1 - i]
            if far[0] != "node" or far[1:] not in partner:
                break
            port = partner[far[1:]]
            if port == start:
                return True
    return False


def eligible_cuts(net: Net) -> list:
    """Cuts where a closed elimination step applies, in id order, in a net
    ``validate`` accepts."""
    return [eid for eid in sorted(net.edges) if _is_cut(net, eid)
            and (redex := _cut_redex(net, eid)) is not None and redex.closed]


def closed_cut_step(net: Net, cut: int) -> Net:
    """One step of closed cut elimination at the given cut edge, on a copy
    of ``net``.  ``NotACutError`` when ``cut`` is not an edge between two
    principal ports, ``NetError`` when no rule matches it or when the step
    would close a loop with no end, and ``NotClosedError`` when its box
    has auxiliary doors; each before anything is copied.  ``net`` must be
    one ``validate`` accepts, which this does not check: a door's box is
    the box that lists it.  The step joins the ports of ``joins``, the rule
    says what the cut's box loses and gains, and one new ``Box`` for it
    goes in the copy's map.  The copy stepped carries its port map."""
    if not _is_cut(net, cut):
        raise NotACutError(f"edge {cut} is not a cut")
    redex = _cut_redex(net, cut)
    if redex is None:
        raise NetError("cut is not reducible by closed elimination")
    if not redex.closed:
        raise NotClosedError(f"{redex.rule} cut needs a box with no auxiliary doors")
    if _closes_loop(net, redex.joins):
        raise NetError(f"{redex.rule} step would close a loop with no end")
    outer = _box_listing(net, redex.nodes[0] if redex.rule == "mult" else redex.box)
    net = net.copy()
    middle = redex.crossing if redex.rule == "mult" else ONE
    for a, b in redex.joins:
        _fuse(net, net.ports[a], net.ports[b], middle)
    lost, gained = _STEPS[redex.rule](net, redex)
    if outer is not None:
        box = net.boxes[outer]
        net.boxes[outer] = Box(box.principal, box.auxiliaries, box.contents - lost | gained)
    return net


def _mult_step(net: Net, redex: _CutRedex) -> tuple[set, set]:
    _delete_nodes(net, set(redex.nodes))
    return set(redex.nodes), set()


def _derelict_step(net: Net, redex: _CutRedex) -> tuple[set, set]:
    dereliction, bang = redex.nodes
    _delete_nodes(net, {dereliction, bang})
    return {dereliction, redex.box}, net.boxes.pop(redex.box).contents - {bang}


def _weaken_step(net: Net, redex: _CutRedex) -> tuple[set, set]:
    _drop_box(net, redex.box, {redex.nodes[0]})
    return {redex.nodes[0], redex.box}, set()


def _fan_step(net: Net, redex: _CutRedex) -> tuple[set, set]:
    fan = redex.nodes[0]
    copies = [_copy_closed_box(net, redex.box) for _ in range(2)]
    for side, (_, new_bang) in zip(("left", "right"), copies):
        # each copy's cut reads the old crossing from the premise it joins
        cut = net.new_edge(("node", new_bang, "out"), None, involute(redex.crossing))
        _fuse(net, net.ports[(fan, side)], (cut, 1))
    _drop_box(net, redex.box, {fan})
    return {fan, redex.box}, {new_box for new_box, _ in copies}


def _commute_step(net: Net, redex: _CutRedex) -> tuple[set, set]:
    whynot = redex.nodes[1]
    bid = _box_listing(net, whynot)
    _delete_nodes(net, {whynot})
    target = net.boxes[bid]
    net.boxes[bid] = Box(target.principal,
                         tuple(a for a in target.auxiliaries if a != whynot),
                         target.contents - {whynot} | {redex.box})
    return {redex.box}, set()


# each rule's step after its joins: it gives the ids the cut's box loses and gains
_STEPS = {"mult": _mult_step, "derelict": _derelict_step, "weaken": _weaken_step,
          "fan": _fan_step, "commute": _commute_step}


def _delete_nodes(net: Net, doomed: set) -> None:
    """Delete the ``doomed`` nodes and every edge at one of them, found
    through their ports, with both ends of each such edge from the map.
    The box that lists a doomed node is left as it is."""
    ports = net.ports
    for nid in doomed:
        for port in PORTS[net.nodes.pop(nid)]:
            if (nid, port) in ports:  # not when an edge here is gone already
                for end in net.edges.pop(ports[(nid, port)][0]).ends:
                    if end[0] == "node":
                        del ports[end[1:]]


def _inside(net: Net, bid: int) -> tuple[list, list]:
    """The boxes of the subtree of box ``bid``, ``bid`` first, and the
    nodes nested in it at any depth, in a net ``validate`` accepts: its
    boxes form a forest, so the walk meets each box once and ends."""
    boxes, nodes = [bid], []
    for b in boxes:  # grows as the boxes inside are found
        for member in net.boxes[b].contents:
            (boxes if member in net.boxes else nodes).append(member)
    return boxes, nodes


def _drop_box(net: Net, bid: int, extra: set) -> None:
    """Delete box ``bid`` with the boxes inside it and their contents, and
    the nodes ``extra``, together with every edge at a deleted node.  The
    box that lists ``bid`` is left as it is."""
    boxes, nodes = _inside(net, bid)
    for inner in boxes:
        del net.boxes[inner]
    _delete_nodes(net, {*nodes, *extra})


def _copy_closed_box(net: Net, bid: int) -> tuple[int, int]:
    """Duplicate a closed box, with no box listing the copy; returns the
    copy's box id and its principal node."""
    boxes, nodes = _inside(net, bid)
    mapping = {}
    for nid in sorted(nodes):
        mapping[nid] = net.new_node(net.nodes[nid])
    for eid in sorted({net.ports[(nid, port)][0] for nid in nodes
                       for port in PORTS[net.nodes[nid]]}):
        e = net.edges[eid]
        if all(end[0] == "node" and end[1] in mapping for end in e.ends):
            net.new_edge(("node", mapping[e.ends[0][1]], e.ends[0][2]),
                         ("node", mapping[e.ends[1][1]], e.ends[1][2]),
                         e.weight)
    boxes.sort()
    mapping.update((b2, net.new_id()) for b2 in boxes)
    for b2 in boxes:
        bx = net.boxes[b2]
        net.boxes[mapping[b2]] = Box(mapping[bx.principal],
                                     tuple(mapping[a] for a in bx.auxiliaries),
                                     {mapping[m] for m in bx.contents})
    return mapping[bid], mapping[net.boxes[bid].principal]


# ---------------------------------------------------------------------------
# isomorphism

def _explore(net: Net, seeds, edge_ids: dict, node_ids: dict,
             flipped: Optional[int] = None) -> list:
    """Deterministic breadth-first numbering of the edges and nodes of a
    net, from seeds, visiting each edge's ends in order; ``flipped`` names
    an edge whose ends are visited last first.  Returns the key of each
    edge, keyed as the walk leaves it, when both its ends are numbered, so
    in numbering order: its lesser end key, its greater one and its weight
    read from the lesser.  An end key is ``(0, node number, port)`` at a
    node, ``(-2, 0, "")`` at the root and ``(-1, 0, name)`` at a free
    variable."""
    def end_key(end) -> tuple:
        if end[0] == "node":
            return (0, node_ids[end[1]], end[2])
        if end[0] == "root":
            return (-2, 0, "")
        return (-1, 0, end[1])

    ports = net.ports
    queue = deque()
    for eid in seeds:
        if eid not in edge_ids:
            edge_ids[eid] = len(edge_ids)
            queue.append(eid)
    keys = []
    while queue:
        eid = queue.popleft()
        e = net.edges[eid]
        for end in reversed(e.ends) if eid == flipped else e.ends:
            if end[0] != "node" or end[1] in node_ids:
                continue
            nid = end[1]
            node_ids[nid] = len(node_ids)
            for port in PORTS[net.nodes[nid]]:
                e2 = ports[(nid, port)][0]
                if e2 not in edge_ids:
                    edge_ids[e2] = len(edge_ids)
                    queue.append(e2)
        k0, k1 = end_key(e.ends[0]), end_key(e.ends[1])
        keys.append((k0, k1, _sortable(e.weight)) if k0 <= k1
                    else (k1, k0, _sortable(involute(e.weight))))
    return keys


class _Islands:
    """The interface-free islands of a net, each signed once, when first
    asked for.

    An island has no interface to number it from, so it is numbered from
    anchors, each an edge of the island and the end the numbering starts
    from, and signed by the least result.  Only the edges of least
    ``_anchor_key`` anchor it, each from both ends: an isomorphism keeps
    that key, so it maps those edges of one island onto those of the other,
    and both islands are signed from the same set of numberings.
    """

    def __init__(self, net: Net, leftovers: set):
        self.net = net
        self.extents = []  # the edges of each island
        self.island_of = {}  # node -> its island
        while leftovers:
            probe_e: dict = {}
            probe_n: dict = {}
            _explore(net, [next(iter(leftovers))], probe_e, probe_n)
            self.island_of.update(dict.fromkeys(probe_n, len(self.extents)))
            self.extents.append(set(probe_e))
            leftovers -= self.extents[-1]
        self.signatures: dict = {}

    def signature(self, k: int):
        """Canonical signature of island ``k``: the least over its anchors."""
        if k not in self.signatures:
            keys = {eid: _anchor_key(self.net, eid) for eid in self.extents[k]}
            least = min(keys.values())
            best = None
            for eid, key in keys.items():
                if key != least:
                    continue
                for flipped in (None, eid):
                    ce: dict = {}
                    cn: dict = {}
                    edges = _explore(self.net, [eid], ce, cn, flipped)
                    sig = _signature_part(self.net, edges, cn, self)
                    if best is None or sig < best:
                        best = sig
            self.signatures[k] = best
        return self.signatures[k]

    def holding(self, nodes) -> tuple:
        """Sorted signatures of the islands that hold ``nodes``."""
        held = {self.island_of[nid] for nid in nodes}
        return tuple(sorted(self.signature(k) for k in held))


def _anchor_key(net: Net, eid: int) -> tuple:
    """What every isomorphism keeps of edge ``eid``: the sorted kinds and
    ports of its ends, and the lesser of its weight read either way."""
    e = net.edges[eid]
    ends = tuple(sorted((net.nodes[end[1]], end[2]) if end[0] == "node" else end
                        for end in e.ends))
    return ends, min(_sortable(e.weight), _sortable(involute(e.weight)))


def _signature_part(net: Net, edges: list, node_ids: dict,
                    islands: Optional[_Islands]):
    """Signature of the component numbered by ``node_ids``, whose edge
    keys ``_explore`` gave as ``edges``.  A box is described by what it
    lists directly, a box among them by its principal door, and the members
    outside the component by the islands that hold them."""
    boxes = []
    for bid, b in net.boxes.items():
        if b.principal in node_ids:
            members = [net.boxes[m].principal if m in net.boxes else m
                       for m in b.contents]
            inside = [node_ids[n] for n in members if n in node_ids]
            boxes.append((node_ids[b.principal],
                          tuple(sorted(node_ids[a] for a in b.auxiliaries
                                       if a in node_ids)),
                          tuple(sorted(inside)),
                          islands.holding(n for n in members if n not in node_ids)
                          if len(inside) < len(members) else ()))
    return (tuple(net.nodes[nid] for nid in node_ids), tuple(edges),
            tuple(sorted(boxes)))


def _sortable(w: Weight) -> tuple:
    """A weight as a signature sorts it: ``(0,)`` for the zero and
    ``(1, word)`` for a word, so the zero is never compared with a word."""
    return (0,) if w is None else (1, w)


def canonical_signature(net: Net):
    """Order-independent description of a net ``validate`` accepts.

    The interface-reachable part is numbered from the root and the free
    edges; interface-free islands (erased substitutions produce them) are
    numbered from each of their least-key anchors (see ``_Islands``) and
    described by the least result.  Each node has an edge at every port,
    so one numbering or the other reaches it.  A box that holds an island
    describes it by the island's signature.
    """
    anchors = []
    if net.root is not None:
        anchors.append(net.root)
    anchors.extend(net.free[name] for name in sorted(net.free))
    edge_ids: dict[int, int] = {}
    node_ids: dict[int, int] = {}
    edges = _explore(net, anchors, edge_ids, node_ids)
    if len(edge_ids) == len(net.edges):
        return _signature_part(net, edges, node_ids, None), ()
    islands = _Islands(net, net.edges.keys() - edge_ids.keys())
    main = _signature_part(net, edges, node_ids, islands)
    return (main, tuple(sorted(islands.signature(k)
                               for k in range(len(islands.extents)))))


def iso_check(a: Net, b: Net) -> bool:
    """Kind-, port-, box- and weight-preserving isomorphism.  Axioms and
    cuts are edges, so an isomorphism maps them as it maps every edge.

    Both nets pass the gate, ``validate``, before either is signed, so a
    net that ``validate`` rejects raises ``NetError`` with its problems.
    """
    for net in (a, b):
        if problems := validate(net):
            raise NetError("; ".join(problems))
    return _signed(a) == _signed(b)


def _signed(net: Net):
    """The signature of ``net``, computed once per net."""
    if net._signature is None:
        net._signature = canonical_signature(net)
    return net._signature


# ---------------------------------------------------------------------------
# export

def to_json(net: Net) -> str:
    """JSON text for ``net``.  A box's ``contents`` are its ``Box.contents``:
    the ids of the nodes and boxes that lie directly in it."""
    data = {
        "nodes": [{"id": nid, "kind": kind} for nid, kind in sorted(net.nodes.items())],
        "edges": [
            {
                "id": eid,
                "ends": [list(e.ends[0]), list(e.ends[1])],
                "weight": e.weight,
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


def to_dot(net: Net) -> str:
    """Graphviz text for ``net``: each box a cluster in the cluster of the
    box that lists it (the first, if two do), the boxes in it first and
    then its nodes, each in id order, and the nodes in no box last."""
    lines = ["digraph net {", "  rankdir=TB;", "  node [fontsize=10];"]
    parent: dict = {}  # node or box -> the box that lists it
    for bid, b in net.boxes.items():
        for member in b.contents:
            parent.setdefault(member, bid)
    # a stack of boxes to open, each with its indent, and of lines that
    # close a box once the boxes inside it are done
    pending: list = [(bid, 2) for bid in sorted(net.boxes, reverse=True)
                     if bid not in parent]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        bid, indent = item
        pad = " " * indent
        lines += [f"{pad}subgraph cluster_{bid} {{", f'{pad}  label="box";']
        pending.append(f"{pad}}}")
        members = sorted(m for m in net.boxes[bid].contents if parent[m] == bid)
        pending.extend(f'{pad}  n{nid} [label="{net.nodes[nid]}"];'
                       for nid in reversed(members) if nid in net.nodes)
        pending.extend((sub, indent + 2) for sub in reversed(members)
                       if sub in net.boxes)
    lines.extend(f'    n{nid} [label="{kind}"];'
                 for nid, kind in sorted(net.nodes.items()) if nid not in parent)
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
