"""An isomorphism oracle for nets, independent of ``nets.canonical_signature``:
networkx's VF2++ matcher on a labelled directed graph of each net.

- Each node is a vertex labelled by its kind.
- Each edge is a vertex labelled by the lesser of its weight and its
  involution.  It is joined to each of its ends through a link vertex
  labelled by the port, and by whether the lesser reading starts at that
  end (None when both readings are equal).
- The root and each free name are vertices of their own.
- Each box is a vertex joined to its principal door, its auxiliary doors
  and the other nodes and boxes it lists, each through a vertex labelled by
  its role, the arcs pointing from the box inwards.

VF2++ (``nx.vf2pp_is_isomorphic``) matches the vertex labels.  The plain
VF2 matcher (``nx.is_isomorphic`` with a label match) gives the same
verdicts on the criterion-8 pairs of ``corpus(6)`` in about 3.5 times the
time.
"""

import networkx as nx

from goilab.algebra import involute


def _sortable(w):
    return (0,) if w is None else (1, w)


def labelled_graph(net) -> nx.DiGraph:
    g = nx.DiGraph()
    for nid, kind in net.nodes.items():
        g.add_node(("n", nid), label=("node", kind))
    g.add_node("root", label=("root",))
    for eid, e in net.edges.items():
        readings = [_sortable(e.weight), _sortable(involute(e.weight))]
        lesser = min(readings)
        g.add_node(("e", eid), label=("edge", lesser))
        for i, end in enumerate(e.ends):
            if end[0] == "node":
                at, port = ("n", end[1]), end[2]
            elif end[0] == "root":
                at, port = "root", "root"
            else:
                at, port = ("free", end[1]), "free"
                g.add_node(at, label=("free", end[1]))
            first = None if readings[0] == readings[1] else readings[i] == lesser
            g.add_node(("l", eid, i), label=("link", port, first))
            g.add_edge(at, ("l", eid, i))
            g.add_edge(("l", eid, i), ("e", eid))
    for bid, b in net.boxes.items():
        g.add_node(("b", bid), label=("box",))
        roles = [("principal", ("n", b.principal))]
        roles += [("auxiliary", ("n", a)) for a in b.auxiliaries]
        roles += [("member", ("b", m) if m in net.boxes else ("n", m))
                  for m in b.contents - {b.principal, *b.auxiliaries}]
        for role, inner in roles:
            g.add_node(("r", bid, inner), label=(role,))
            g.add_edge(("b", bid), ("r", bid, inner))
            g.add_edge(("r", bid, inner), inner)
    return g


def vf2_iso(a: nx.DiGraph, b: nx.DiGraph) -> bool:
    """Whether two nets are isomorphic, given their ``labelled_graph``s."""
    return nx.vf2pp_is_isomorphic(a, b, node_label="label")
