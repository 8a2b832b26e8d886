"""Straight paths over nets, their live weight sets, and the
weight-invariance check for single reduction steps.

A step traverses one edge towards one of its endpoints.  Straightness is
encoded entirely by the per-node transition table: a path crosses a node
between a premise and its conclusion, and no node admits a
premise-to-premise crossing.  Axioms and cuts are edges, not nodes, so a
path passes an axiom or a cut by traversing one edge, as it passes any
other.  Paths start at interface edges; the weight set of a net holds
the static words of the paths that also end at the interface and are
live, not null in the dynamic algebra.  Only those are observed, and only
those must survive a reduction step.

The set is finite on a net whose term normalises: the execution formula is
nilpotent there, so only finitely many straight paths have a non-null
weight (Girard, *Geometry of Interaction I*, 1989; Danos & Regnier,
*Proof-nets and the Hilbert space*, 1995).  A null prefix makes every
extension null, so a search that drops a path once its word is null
loses no live word, and it ends.

Both searches read one per-net table of directed edges (``DirectedEdges``),
and every word here, from an edge's weight to a reported weight set, is a
tuple of ``(base, star, level)`` triples: a weight is its word.
"""

from __future__ import annotations

from .algebra import Weight, format_weight, involute, normal_word
from .calculus import FUEL, FuelExhaustedError
from .nets import TRANSITIONS, Net


class DirectedEdges:
    """The straight-path transition table of a net, built once per search.

    Its states are the directed edges: traversing the ``k``-th edge of the
    net towards ``ends[to_end]`` is state ``2 * k + to_end``.  Per state it
    keeps the word read along the step (the edge's weight towards
    ``ends[1]``, its involution towards ``ends[0]``, None for the zero of a
    weakening), whether the step arrives at the interface, and the states a
    straight path may move to next, read through the net's port map.
    ``starts`` are the states leaving the interface, and ``root`` the one
    leaving the root, or None when no edge end is at the root.
    """

    def __init__(self, net: Net):
        self.words = words = []
        self.interface = interface = []
        self.starts = starts = []
        self.root = None
        first = {}  # edge -> its state towards ends[0]
        for eid, edge in net.edges.items():
            first[eid] = len(words)
            words.append(involute(edge.weight))
            words.append(edge.weight)
            for end in edge.ends:
                if end is not None and end[0] in ("root", "free"):
                    # leaving the interface is arriving there reversed
                    starts.append(len(interface) ^ 1)
                    if end[0] == "root":
                        self.root = starts[-1]
                    interface.append(True)
                else:
                    interface.append(False)
        # the state arriving at each port; leaving through it is its reverse
        arriving = {key: first[eid] + i for key, (eid, i) in net.ports.items()}
        self.succ = succ = [[] for _ in words]
        for nid, kind in net.nodes.items():
            for a, b in TRANSITIONS[kind]:
                at_a, at_b = arriving[(nid, a)], arriving[(nid, b)]
                succ[at_a].append(at_b ^ 1)
                succ[at_b].append(at_a ^ 1)


def weight_set(net: Net, fuel: int = FUEL) -> set:
    """The live words of the net's interface-to-interface straight paths,
    as tuples of ``(base, star, level)``.

    A depth-first search over straight paths from the interface.  Each
    path carries the normal form of its word, and a step extends it by the
    step's word through ``normal_word``, the one null test; a path whose
    word is null is dropped with every extension of it.  A path stops at
    the absorbing zero of a weakening too.  Where a path has one way on
    and has not arrived at the interface, it takes the whole run of such
    steps at once (``_run``), and is extended and null-tested once per run.

    ``fuel`` bounds the successor visits, starts included.  Every step of
    a run is one visit, a step past a null prefix too, so a run never costs
    fewer visits than its steps taken one by one.  Past the bound
    ``FuelExhaustedError`` is raised; at the default fuel only a net whose
    term does not normalise gets there (no net of ``corpus(8)`` needs more
    than 643 visits: the cbv net of church_two_twice).  Each run
    normalises the whole word read so far, so running out takes longer as
    words grow.
    """
    table = DirectedEdges(net)
    words, interface, succ = table.words, table.interface, table.succ
    runs = [None] * len(words)  # per state, its run, found on first entry
    found = set()
    pending = [(table.starts, (), ())]  # (next states, word, its normal form)
    while pending:
        nexts, word, nf = pending.pop()
        fuel -= len(nexts)
        if fuel < 0:
            raise FuelExhaustedError("weight-set search ran out of fuel")
        for nxt in nexts:
            run = runs[nxt]
            if run is None:
                run = runs[nxt] = _run(nxt, words, interface, succ)
            end, step, hops = run
            fuel -= hops
            if fuel < 0:
                raise FuelExhaustedError("weight-set search ran out of fuel")
            if step is None:
                continue
            longer = word + step
            longer_nf = normal_word(nf + step) if step else nf
            if longer_nf is None:
                continue  # a null prefix: every extension is null
            if interface[end]:
                found.add(longer)
            pending.append((succ[end], longer, longer_nf))
    return found


def _run(state: int, words: list, interface: list, succ: list) -> tuple:
    """``(end, word, hops)``: the run of steps from entering ``state`` while
    the path has exactly one way on and has not arrived at the interface.
    ``word`` is read along it, None if it enters a weakening's zero, and
    ``hops`` counts its steps after the first.  A run takes at most as many
    hops as there are states, so a cycle of such steps does not hold it."""
    word = words[state]
    hops = 0
    while word is not None and not interface[state] and len(succ[state]) == 1 \
            and hops < len(words):
        state = succ[state][0]
        hops += 1
        step = words[state]
        word = None if step is None else word + step
    return state, word, hops


def weight_member(net: Net, target: Weight, fuel: int = FUEL) -> bool:
    """Is ``target`` the weight of some straight path from the root?

    The path may end after any whole edge, at a node (the label of a
    normal form leads from the root to the subnet of the result, not to an
    interface); it cannot stop partway along an axiom or a cut, since each
    is one edge.  The
    search is depth-first on an explicit stack, as ``weight_set``'s is, so a
    long target cannot exhaust Python's recursion limit.  It is pruned by
    prefix matching against the target word.  A straight path's next steps
    depend only on the directed edge it is on, so each pair of a state and
    the target atoms matched before it is pushed at most once: the search
    ends, and its answer is exact.  ``fuel`` bounds the visits; past it
    ``FuelExhaustedError`` is raised.
    """
    if target is None:
        return False
    table = DirectedEdges(net)
    if table.root is None:
        return False
    if not target:
        return True  # the empty path has weight 1
    words, succ = table.words, table.succ
    # (target atoms matched before the step, step's state)
    pending = [(0, table.root)]
    seen = set(pending)
    while pending:
        matched, state = pending.pop()
        if fuel <= 0:
            raise FuelExhaustedError("membership search ran out of fuel")
        fuel -= 1
        word = words[state]
        if word is None or target[matched:matched + len(word)] != word:
            continue
        matched += len(word)
        if matched == len(target):
            return True
        # reversed, so that the first successor is searched first
        for nxt in reversed(succ[state]):
            if (matched, nxt) not in seen:
                seen.add((matched, nxt))
                pending.append((matched, nxt))
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
