"""Straight paths over nets, path weights, observable weight sets, and the
weight-invariance checks for single reduction steps.

A step traverses one edge towards one of its endpoints.  Straightness is
encoded entirely by the per-node transition table: premise/conclusion
transitions preserve direction, axiom and cut links flip it, and no node
admits a premise-to-premise crossing.  Paths start at interface edges; the
observable weight set keeps those that also end at the interface.  Its live
part keeps the words that are not null in the dynamic algebra: only those
are observed, and only those must survive a reduction step.

All three searches read one per-net table of directed edges
(``DirectedEdges``).  ``weight_set`` searches it breadth-first over
deduplicated states, a directed edge and the word read so far, under the
same step bound and length cap as an enumeration of every path, and finds
the same set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .algebra import (CONSTANTS, WAtom, Weight, compose, format_weight,
                      involute, normal_word)
from .nets import Net, PREMISE_LIKE, TRANSITIONS


class SearchBudgetError(Exception):
    pass


@dataclass(frozen=True)
class Step:
    edge: int
    to_end: int  # endpoint index the traversal moves towards

    def direction(self, net: Net) -> str:
        """Forward moves towards a premise port, Backward towards a
        conclusion (or the interface)."""
        end = net.edges[self.edge].ends[self.to_end]
        if end is not None and end[0] == "node":
            nid, port = end[1], end[2]
            if (net.nodes[nid], port) in PREMISE_LIKE:
                return "forward"
        return "backward"


@dataclass(frozen=True)
class Path:
    steps: tuple

    def __len__(self) -> int:
        return len(self.steps)

    def reversed(self) -> "Path":
        return Path(tuple(Step(s.edge, 1 - s.to_end) for s in reversed(self.steps)))


def step_weight(net: Net, step: Step) -> Weight:
    edge = net.edges[step.edge]
    return edge.weight if step.to_end == 1 else involute(edge.weight)


def path_weight(path: Path, net: Net) -> Weight:
    return compose(*(step_weight(net, s) for s in path.steps))


def _encode(atoms: tuple) -> str:
    """A word as a string of one character per atom.  Injective, and within
    latin-1 up to level 20; the star is the lowest bit, so ``ord(c) ^ 1``
    encodes the involution of an atom."""
    return "".join(chr(12 * a.level + 2 * CONSTANTS.index(a.base) + a.star)
                   for a in atoms)


@lru_cache(maxsize=None)
def _decode_atom(char: str) -> tuple:
    level, rest = divmod(ord(char), 12)
    return (CONSTANTS[rest >> 1], bool(rest & 1), level)


def _decode(word: str) -> tuple:
    """The ``(base, star, level)`` triples of an encoded word."""
    return tuple(map(_decode_atom, word))


class DirectedEdges:
    """The straight-path transition table of a net, built once per search.

    Its states are the directed edges: ``Step(edge, to_end)`` is state
    ``2 * k + to_end`` when ``edge`` is the ``k``-th edge of the net.  Per
    state it keeps the encoded word read along the step (None for the zero
    of a weakening), whether the step arrives at the interface, and the
    states a straight path may move to next.  ``starts`` are the states
    leaving the interface.
    """

    def __init__(self, net: Net):
        self.edge_ids = tuple(net.edges)
        self.words = []
        self.interface = []
        self.starts = []
        arriving = {}  # (node, port) -> state arriving there
        for k, eid in enumerate(self.edge_ids):
            edge = net.edges[eid]
            if edge.weight.is_zero:
                self.words += [None, None]
            else:
                forward = _encode(edge.weight.atoms)
                self.words += ["".join(chr(ord(c) ^ 1) for c in reversed(forward)),
                               forward]
            for to_end, end in enumerate(edge.ends):
                at_interface = end is not None and end[0] in ("root", "free")
                self.interface.append(at_interface)
                if at_interface:
                    self.starts.append(2 * k + 1 - to_end)
                elif end is not None:
                    arriving[(end[1], end[2])] = 2 * k + to_end
        self.succ = [()] * len(self.words)
        for (nid, port), state in arriving.items():
            # leaving through a port is arriving there reversed
            self.succ[state] = tuple(
                arriving[(nid, b if port == a else a)] ^ 1
                for a, b in TRANSITIONS[net.nodes[nid]] if port in (a, b))

    def state(self, eid: int, to_end: int) -> int:
        return 2 * self.edge_ids.index(eid) + to_end

    def step(self, state: int) -> Step:
        return Step(self.edge_ids[state >> 1], state & 1)


def enumerate_straight(net: Net, max_steps: int,
                       max_expansions: int = 2_000_000) -> list:
    """All straight paths of at most ``max_steps`` steps between interface
    edges, both orientations included."""
    table = DirectedEdges(net)
    found = []
    budget = [max_expansions]

    def walk(prefix: list, state: int):
        if budget[0] <= 0:
            raise SearchBudgetError("straight-path enumeration budget exceeded")
        budget[0] -= 1
        prefix.append(table.step(state))
        if table.interface[state]:
            found.append(Path(tuple(prefix)))
        if len(prefix) < max_steps:
            for nxt in table.succ[state]:
                walk(prefix, nxt)
        prefix.pop()

    for state in table.starts:
        walk([], state)
    return found


def weight_key(w: Weight):
    if w.is_zero:
        return None
    return tuple((a.base, a.star, a.level) for a in w.atoms)


def weight_set(net: Net, max_steps: int,
               max_expansions: int = 2_000_000,
               length_cap: Optional[int] = None) -> set:
    """Static words of interface-to-interface straight paths of at most
    ``max_steps`` steps, zero excluded, as tuples of ``(base, star, level)``.

    A breadth-first search over states (directed edge, word read up to and
    along it) that visits each state once.  The future of a path depends
    only on its state, and breadth-first order reaches each state first at
    its smallest depth, where the remaining steps reach every word a later
    visit could; so skipping later visits gives the set of the plain
    enumeration of every path, step bound included.  With ``length_cap`` a
    word is dropped once it exceeds that many atoms; words only ever grow,
    so the capped set is exact.  A path stops only at the absorbing zero of
    a weakening; words that are null in the dynamic algebra stay in the set
    and ``live_words`` removes them.  A null prefix makes every extension
    null, so filtering the finished words gives the same live set as
    stopping each path at its first dead prefix.

    ``max_expansions`` bounds the successor visits, starts included, new
    states or not; past it ``SearchBudgetError`` is raised.
    """
    table = DirectedEdges(net)
    words, interface, succ = table.words, table.interface, table.succ
    cap = float("inf") if length_cap is None else length_cap
    seen = [set() for _ in words]  # per state: the words it was reached with
    budget = max_expansions - len(table.starts)
    if budget < 0:
        raise SearchBudgetError("weight-set search budget exceeded")
    frontier = [(state, words[state]) for state in table.starts
                if words[state] is not None and len(words[state]) <= cap]
    for state, word in frontier:
        seen[state].add(word)
    found = set()
    depth = 1
    while frontier:
        found.update(word for state, word in frontier if interface[state])
        if depth >= max_steps:
            break
        depth += 1
        following = []
        for state, word in frontier:
            nexts = succ[state]
            budget -= len(nexts)
            if budget < 0:
                raise SearchBudgetError("weight-set search budget exceeded")
            for nxt in nexts:
                step = words[nxt]
                if step is None:
                    continue  # killed paths are tracked through the erased set
                longer = word + step
                if len(longer) <= cap and longer not in seen[nxt]:
                    seen[nxt].add(longer)
                    following.append((nxt, longer))
        frontier = following
    return {_decode(word) for word in found}


def weight_member(net: Net, target: Weight, max_steps: Optional[int] = None,
                  max_expansions: int = 2_000_000) -> bool:
    """Is ``target`` the weight of some straight path from the root?

    The path may end anywhere in the net (the label of a normal form leads
    from the root to the subnet of the result, not to an interface).  The
    search is pruned by prefix matching against the target word.
    """
    if target.is_zero:
        return False
    goal = _encode(target.atoms)
    if max_steps is None:
        max_steps = 4 * len(goal) + 16
    budget = [max_expansions]

    root_end = None
    for i, end in enumerate(net.edges[net.root].ends):
        if end is not None and end[0] == "root":
            root_end = (net.root, 1 - i)
    if root_end is None:
        return False
    if not goal:
        return True  # the empty path has weight 1
    table = DirectedEdges(net)
    words, succ = table.words, table.succ

    def walk(depth: int, matched: int, state: int) -> bool:
        if budget[0] <= 0:
            raise SearchBudgetError("membership search budget exceeded")
        budget[0] -= 1
        word = words[state]
        if word is None or not goal.startswith(word, matched):
            return False
        matched += len(word)
        if matched == len(goal):
            return True
        if depth >= max_steps:
            return False
        return any(walk(depth + 1, matched, nxt) for nxt in succ[state])

    return walk(1, 0, table.state(*root_end))


def format_weight_key(key) -> str:
    if key is None:
        return "0"
    return format_weight(Weight(tuple(WAtom(b, s, l) for b, s, l in key)))


def live_words(words: set) -> set:
    """The words of a weight set that are not null in the dynamic algebra."""
    return {w for w in words if normal_word(w) is not None}


def check_invariance(net_left: Net, net_right: Net,
                     max_steps: Optional[int] = None,
                     max_expansions: int = 2_000_000,
                     length_cap: Optional[int] = None) -> dict:
    """Compare bounded observable weight sets of two nets.

    The default step bound is four times the edge count of the larger net;
    the comparison is exact equality of static words.  Because reduction
    fuses edges, the same path may need more steps on one side than on the
    other, so by default words are additionally capped at the larger edge
    count: within the step bound both nets realise every word up to that
    length, which makes the bounded approximation stable across a reduction
    step.  Each set comes from the breadth-first search of ``weight_set``
    over deduplicated states, which keeps this bound and cap.

    ``equal``, ``left_only`` and ``right_only`` compare all words;
    ``live_equal``, ``live_left_only`` and ``live_right_only`` compare the
    live words only, those that are not null in the dynamic algebra.
    ``null_left`` and ``null_right`` count the null words dropped on each
    side.
    """
    edges = max(len(net_left.edges), len(net_right.edges))
    if max_steps is None:
        max_steps = 4 * edges
    if length_cap is None:
        length_cap = edges
    left = weight_set(net_left, max_steps, max_expansions, length_cap)
    right = weight_set(net_right, max_steps, max_expansions, length_cap)
    live_left, live_right = live_words(left), live_words(right)
    return {
        "bound": max_steps,
        "length_cap": length_cap,
        "left_only": sorted(format_weight_key(k) for k in left - right),
        "right_only": sorted(format_weight_key(k) for k in right - left),
        "common_count": len(left & right),
        "equal": left == right,
        "live_left_only": sorted(format_weight_key(k)
                                 for k in live_left - live_right),
        "live_right_only": sorted(format_weight_key(k)
                                  for k in live_right - live_left),
        "live_equal": live_left == live_right,
        "null_left": len(left) - len(live_left),
        "null_right": len(right) - len(live_right),
    }
