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

Both searches read one per-net table of directed edges (``DirectedEdges``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import CONSTANTS, WAtom, Weight, format_weight, normal_word
from .nets import Net, TRANSITIONS

# successor visits a weight-set search may make: no net of the size-9
# corpus but Omega's needs more than 555, and a net whose term does not
# normalise exhausts 10,000 in about a tenth of a second
MAX_EXPANSIONS = 10_000


class SearchBudgetError(Exception):
    pass


@dataclass(frozen=True)
class Step:
    edge: int
    to_end: int  # endpoint index the traversal moves towards


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
    of a weakening) and the same word as ``(base, star, level)`` triples,
    whether the step arrives at the interface, and the states a straight
    path may move to next.  ``starts`` are the states leaving the interface.
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
        self.atoms = [None if word is None else _decode(word)
                      for word in self.words]
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


def weight_set(net: Net, max_expansions: int = MAX_EXPANSIONS) -> set:
    """The live words of the net's interface-to-interface straight paths,
    as tuples of ``(base, star, level)``.

    A depth-first search over straight paths from the interface.  Each
    path carries the normal form of its word, and a step extends it by the
    step's atoms through ``normal_word``, the one null test; a path whose
    word is null is dropped with every extension of it.  A path stops at
    the absorbing zero of a weakening too.

    ``max_expansions`` bounds the successor visits, starts included; past
    it ``SearchBudgetError`` is raised.  Only a net
    whose term does not normalise should get there.
    """
    table = DirectedEdges(net)
    words, atoms, interface, succ = (table.words, table.atoms,
                                     table.interface, table.succ)
    budget = max_expansions
    found = set()
    pending = [(table.starts, "", ())]  # (next states, word, its normal form)
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
            longer_nf = normal_word(nf + atoms[nxt]) if step else nf
            if longer_nf is None:
                continue  # a null prefix: every extension is null
            if interface[nxt]:
                found.add(longer)
            pending.append((succ[nxt], longer, longer_nf))
    return {_decode(word) for word in found}


def weight_member(net: Net, target: Weight) -> bool:
    """Is ``target`` the weight of some straight path from the root?

    The path may end anywhere in the net (the label of a normal form leads
    from the root to the subnet of the result, not to an interface).  The
    search is pruned by prefix matching against the target word, and
    bounded by a path length and by 2,000,000 visits.
    """
    if target.is_zero:
        return False
    goal = _encode(target.atoms)
    max_steps = 4 * len(goal) + 16
    budget = [2_000_000]

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
    """Print a word of ``(base, star, level)`` triples as ``format_weight``
    does."""
    return format_weight(Weight(tuple(WAtom(b, s, l) for b, s, l in key)))


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
        "live_left_only": sorted(format_weight_key(k) for k in left - right),
        "live_right_only": sorted(format_weight_key(k) for k in right - left),
        "live_equal": left == right,
    }
