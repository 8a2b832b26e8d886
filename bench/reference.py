"""Computations the benchmark checks goilab's outputs against, made apart
from the code under test, and their self-tests.

Run ``python3 bench/reference.py`` to run the self-tests alone.
"""

from __future__ import annotations

import random
from collections import Counter

# ---------------------------------------------------------------------------
# the dynamic-algebra null test, from the laws as the goilab.algebra
# docstring states them
#
# A word is a tuple of (base, star, level) atoms read in traversal order.
# Generators are the constants a path reads going down through a node
# (p q r s d unstarred, and t*); the other atoms are their involutions.

# level change of an atom ``u`` that an exponential generator moves past:
# d.!(u) = u.d, t*.!(u) = !!(u).t*, r.!(u) = !(u).r, s.!(u) = !(u).s,
# and for the involutions !(u).d* = d*.u, !(u).t = t.!!(u),
# !(u).r* = r*.!(u), !(u).s* = s*.!(u)
COMMUTE = {"d": -1, "t": +1, "r": 0, "s": 0}


def is_generator(atom) -> bool:
    base, star, _ = atom
    return star if base == "t" else not star


def _rewrites(word: tuple) -> list:
    """Every law that applies to two adjacent atoms of ``word``, as
    (index, replacement for word[index:index+2]); None means the word is 0."""
    out = []
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if x[2] == y[2] and is_generator(x) and not is_generator(y):
            # annihilation: x.x~ = 1, x.y~ = 0 for distinct constants
            out.append((i, () if x[0] == y[0] else None))
        elif is_generator(x) and x[0] in COMMUTE and y[2] > x[2]:
            out.append((i, ((y[0], y[1], y[2] + COMMUTE[x[0]]), x)))
        elif not is_generator(y) and y[0] in COMMUTE and x[2] > y[2]:
            out.append((i, (y, (x[0], x[1], x[2] + COMMUTE[y[0]]))))
    return out


def reference_null(word: tuple, rng: random.Random) -> bool:
    """Rewrite ``word`` by the laws, each time at a position drawn by
    ``rng``, until none applies; True when it reaches 0."""
    word = tuple(word)
    while True:
        options = _rewrites(word)
        if not options:
            return False
        i, replacement = rng.choice(options)
        if replacement is None:
            return True
        word = word[:i] + replacement + word[i + 2:]


def parse_word(text: str) -> tuple:
    """``q.d.!(q*).!^2(p)`` as (base, star, level) atoms."""
    atoms = []
    for token in text.split("."):
        level = 0
        if token.startswith("!^"):
            head, _, token = token.partition("(")
            level, token = int(head[2:]), token[:-1]
        elif token.startswith("!("):
            level, token = 1, token[2:-1]
        atoms.append((token.rstrip("*"), token.endswith("*"), level))
    return tuple(atoms)


# ---------------------------------------------------------------------------
# from explicit-substitution labels to Levy labels

def levy_shape(label) -> tuple:
    """A label as nested tuples: ``"a"`` for an atom, ``("over", ...)`` and
    ``("under", ...)`` for over- and underlines.  Markers are dropped and
    underline contents read reversed, nested lines included, since the Beta
    rules of both calculi write redex history into underlines backwards."""
    out = []
    for atom in label:
        kind = type(atom).__name__
        if kind == "Atomic":
            out.append(atom.name)
        elif kind == "Over":
            out.append(("over", *levy_shape(atom.inner)))
        elif kind == "Under":
            out.append(("under", *_mirror(levy_shape(atom.inner))))
    return tuple(out)


def _mirror(shape: tuple) -> tuple:
    return tuple(x if isinstance(x, str) else (x[0], *_mirror(x[1:]))
                 for x in reversed(shape))


def plain_shape(label) -> tuple:
    """A Levy label (no markers) as nested tuples, read as it stands."""
    out = []
    for atom in label:
        kind = type(atom).__name__
        if kind == "Atomic":
            out.append(atom.name)
        elif kind in ("Over", "Under"):
            out.append((kind.lower(), *plain_shape(atom.inner)))
        else:
            raise ValueError(f"marker {atom} in a Levy label")
    return tuple(out)


# ---------------------------------------------------------------------------
# nets

def renumbered(net, rng: random.Random):
    """A copy of ``net`` with node, edge and box ids permuted at random."""
    from goilab.nets import Box, Edge, Net

    ids = sorted({*net.nodes, *net.edges, *net.boxes})
    fresh = [i + 1000 for i in range(len(ids))]
    rng.shuffle(fresh)
    new = dict(zip(ids, fresh))

    def end(e):
        if e is not None and e[0] == "node":
            return ("node", new[e[1]], e[2])
        return e

    out = Net()
    out.nodes = {new[n]: kind for n, kind in net.nodes.items()}
    out.edges = {}
    for eid in rng.sample(list(net.edges), len(net.edges)):
        edge = net.edges[eid]
        out.edges[new[eid]] = Edge([end(x) for x in edge.ends], edge.weight)
    out.boxes = {new[b]: Box(new[box.principal],
                             tuple(new[a] for a in box.auxiliaries),
                             {new[n] for n in box.contents})
                 for b, box in net.boxes.items()}
    out.root = None if net.root is None else new[net.root]
    out.free = {name: new[eid] for name, eid in net.free.items()}
    out._next = max(fresh, default=0) + 1
    return out


def shape(net) -> tuple:
    """What an isomorphism must keep: node kinds other than axiom and cut
    links (those iso_check splices out), and the number of boxes."""
    kinds = Counter(k for k in net.nodes.values() if k not in ("ax", "cut"))
    return tuple(sorted(kinds.items())), len(net.boxes)


# ---------------------------------------------------------------------------
# self-tests

def self_test() -> list:
    """Problems found in the reference computations; empty when they hold."""
    problems = []
    rng = random.Random(0)
    vectors = (("q.p*.d*.q.q*", True),            # also in tests/test_algebra.py
               ("q.d.!(q*).!(p).d*.p*", False),   # also in tests/test_algebra.py
               ("p.p*", False), ("p.q*", True), ("p*.p", False),
               ("t*.!(q).t", False), ("d.!(p).d*.p*", False),
               ("!(q).d*.p*", True), ("r.!(p).r*.!(q*)", True),
               ("r.!(p).r*.p*", False))
    for text, null in vectors:
        for _ in range(8):
            if reference_null(parse_word(text), rng) != null:
                problems.append(f"null test: {text} should be "
                                f"{'null' if null else 'live'}")
                break

    from goilab.labels import Atomic, Marker, Over, Under
    a, b, c, d = (Atomic(n) for n in "abcd")
    right, left = "right", "left"
    # lcf Beta on ((\x.x^d)^a (\y.y^e)^b)^c, and its Levy counterpart
    lcf = (Atomic("c"),
           Over((Marker(right, "D"), a, Marker(left, "!"))),
           Atomic("d"), Marker(right, "?"),
           Under((Marker(right, "!"), a, Marker(left, "D"))), b)
    if levy_shape(lcf) != ("c", ("over", "a"), "d", ("under", "a"), "b"):
        problems.append(f"label mapping: {levy_shape(lcf)}")
    nested = (Under((a, Marker(right, "R"), b, Under((c, d)))),)
    if levy_shape(nested) != (("under", ("under", "c", "d"), "b", "a"),):
        problems.append(f"label mapping of nested underlines: {levy_shape(nested)}")
    if plain_shape((c, Over((a,)), Under((a, b)))) != \
            ("c", ("over", "a"), ("under", "a", "b")):
        problems.append("plain label shape")
    return problems


if __name__ == "__main__":
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    found = self_test()
    print("\n".join(found) or "reference self-tests pass")
    sys.exit(1 if found else 0)
