"""Straight paths over nets, their live weight sets, and the
weight-invariance check for single reduction steps.

A step traverses one edge towards one of its endpoints.  Straightness is
encoded entirely by the per-node transition table: premise/conclusion
transitions preserve direction, axiom and cut links flip it, and no node
admits a premise-to-premise crossing.  Paths start at interface edges; the
weight set of a net holds the static words of the paths that also end at
the interface and are live, not null in the dynamic algebra.  Only those
are observed, and only those must survive a reduction step.

The set is finite on a net whose term normalises: the execution formula is
nilpotent there, so only finitely many straight paths have a non-null
weight (Girard, *Geometry of Interaction I*, 1989; Danos & Regnier,
*Proof-nets and the Hilbert space*, 1995).  A null prefix makes every
extension null, so a search that drops a path at its first null prefix
loses no live word, and it ends.

Both searches read one per-net table of directed edges (``DirectedEdges``),
and every word here, from an edge's weight to a reported weight set, is a
tuple of ``(base, star, level)`` triples: a weight is its word.
"""

from __future__ import annotations

from .algebra import Weight, format_weight, involute, normal_word
from .nets import PORTS, TRANSITIONS, Net

# successor visits a weight-set search may make: no net of the size-9
# corpus but Omega's needs more than 555.  Each visit normalises the whole
# word read so far, so exhausting the budget takes longer as words grow:
# one search whose words reached 4,709 atoms took 6.7 s
MAX_EXPANSIONS = 10_000


class SearchBudgetError(Exception):
    pass


# per node kind and port, the ports a straight path arriving there leaves by
LEAVING = {kind: {port: tuple(b if port == a else a for a, b in pairs if port in (a, b))
                  for port in PORTS[kind]}
           for kind, pairs in TRANSITIONS.items()}


class DirectedEdges:
    """The straight-path transition table of a net, built once per search.

    Its states are the directed edges: traversing the ``k``-th edge of the
    net towards ``ends[to_end]`` is state ``2 * k + to_end``.  Per state it
    keeps the word read along the step (the edge's weight towards
    ``ends[1]``, its involution towards ``ends[0]``, None for the zero of a
    weakening), whether the step arrives at the interface, and the states a
    straight path may move to next, read through the net's port map.
    ``starts`` are the states leaving the interface.
    """

    def __init__(self, net: Net):
        self.edge_ids = tuple(net.edges)
        self.words = []
        self.interface = []
        self.starts = []
        for k, eid in enumerate(self.edge_ids):
            edge = net.edges[eid]
            self.words += [involute(edge.weight), edge.weight]
            for to_end, end in enumerate(edge.ends):
                at_interface = end is not None and end[0] in ("root", "free")
                self.interface.append(at_interface)
                if at_interface:
                    self.starts.append(2 * k + 1 - to_end)
        first = {eid: 2 * k for k, eid in enumerate(self.edge_ids)}
        ports = net.ports
        self.succ = [()] * len(self.words)
        for (nid, port), (eid, i) in ports.items():
            nexts = self.succ[first[eid] + i] = []
            for other in LEAVING[net.nodes[nid]][port]:
                # leaving through a port is arriving there reversed
                e2, i2 = ports[(nid, other)]
                nexts.append((first[e2] + i2) ^ 1)

    def state(self, eid: int, to_end: int) -> int:
        return 2 * self.edge_ids.index(eid) + to_end


def weight_set(net: Net) -> set:
    """The live words of the net's interface-to-interface straight paths,
    as tuples of ``(base, star, level)``.

    A depth-first search over straight paths from the interface.  Each
    path carries the normal form of its word, and a step extends it by the
    step's word through ``normal_word``, the one null test; a path whose
    word is null is dropped with every extension of it.  A path stops at
    the absorbing zero of a weakening too.

    ``MAX_EXPANSIONS``, read at each call, bounds the successor visits,
    starts included; past it ``SearchBudgetError`` is raised.  Only a net
    whose term does not normalise should get there.
    """
    table = DirectedEdges(net)
    words, interface, succ = table.words, table.interface, table.succ
    budget = MAX_EXPANSIONS
    found = set()
    pending = [(table.starts, (), ())]  # (next states, word, its normal form)
    while pending:
        nexts, word, nf = pending.pop()
        budget -= len(nexts)
        if budget < 0:
            raise SearchBudgetError("weight-set search budget exceeded")
        for nxt in nexts:
            step = words[nxt]
            if step is None:
                continue
            longer = word + step
            longer_nf = normal_word(nf + step) if step else nf
            if longer_nf is None:
                continue  # a null prefix: every extension is null
            if interface[nxt]:
                found.add(longer)
            pending.append((succ[nxt], longer, longer_nf))
    return found


def weight_member(net: Net, target: Weight) -> bool:
    """Is ``target`` the weight of some straight path from the root?

    The path may end anywhere in the net (the label of a normal form leads
    from the root to the subnet of the result, not to an interface).  The
    search is depth-first on an explicit stack, as ``weight_set``'s is, so a
    long target cannot exhaust Python's recursion limit.  It is pruned by
    prefix matching against the target word, and bounded by a path length
    and by 2,000,000 visits.
    """
    if target is None:
        return False
    root_end = None
    for i, end in enumerate(net.edges[net.root].ends):
        if end is not None and end[0] == "root":
            root_end = (net.root, 1 - i)
    if root_end is None:
        return False
    if not target:
        return True  # the empty path has weight 1
    table = DirectedEdges(net)
    words, succ = table.words, table.succ
    max_steps = 4 * len(target) + 16
    budget = 2_000_000
    # (path length, target atoms matched before the step, step's state)
    pending = [(1, 0, table.state(*root_end))]
    while pending:
        depth, matched, state = pending.pop()
        if budget <= 0:
            raise SearchBudgetError("membership search budget exceeded")
        budget -= 1
        word = words[state]
        if word is None or target[matched:matched + len(word)] != word:
            continue
        matched += len(word)
        if matched == len(target):
            return True
        if depth < max_steps:
            # reversed, so that the first successor is searched first
            pending += [(depth + 1, matched, nxt) for nxt in reversed(succ[state])]
    return False


def live_words(words: set) -> set:
    """The words of a weight set that are not null in the dynamic algebra."""
    return {w for w in words if normal_word(w) is not None}


def check_invariance(left_words: set, right_words: set) -> dict:
    """Compare the live words of two weight sets, as ``weight_set`` gives
    them.

    ``live_equal`` says whether they are equal; ``live_left_only`` and
    ``live_right_only`` print the words found on one side only.  Each set
    passes through ``live_words``: it drops nothing from a weight set, and
    a wrapper of it sees every word compared.
    """
    left = live_words(left_words)
    right = live_words(right_words)
    return {
        "live_left_only": sorted(format_weight(k) for k in left - right),
        "live_right_only": sorted(format_weight(k) for k in right - left),
        "live_equal": left == right,
    }
