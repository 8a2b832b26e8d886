"""Shared test helpers."""

import importlib.util
import random
from pathlib import Path

from hypothesis import strategies as st

from goilab.labels import Atomic, Over, Under, mark
from goilab.terms import Abs, App, Var

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the benchmark's reference module, independent of goilab; its parse_word
# reads a word in the format format_weight prints, such as q.d.!(q*).!^2(p)
_spec = importlib.util.spec_from_file_location("reference", BENCH / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)
parse_word = reference.parse_word


@st.composite
def closed_lambda_terms(draw, max_size=10):
    """Closed plain lambda terms of 2 to ``max_size`` nodes, their binders
    named by depth as in the corpus."""
    def build(size, depth):
        if size == 1:
            return Var(f"x{draw(st.integers(0, depth - 1))}")
        splits = [left for left in range(1, size - 1)
                  if depth > 0 or min(left, size - 1 - left) > 1]
        if splits and draw(st.booleans()):
            left = draw(st.sampled_from(splits))
            return App(build(left, depth), build(size - 1 - left, depth))
        return Abs(f"x{depth}", build(size - 1, depth + 1))
    return build(draw(st.integers(2, max_size)), 0)


def random_label(rng: random.Random, depth: int = 2, length: int = 4):
    atoms = []
    for _ in range(rng.randint(1, length)):
        roll = rng.random()
        if roll < 0.45:
            atoms.append(Atomic(rng.choice("abcdefgh")))
        elif roll < 0.65 and depth > 0:
            atoms.append(Over(random_label(rng, depth - 1, length)))
        elif roll < 0.85 and depth > 0:
            atoms.append(Under(random_label(rng, depth - 1, length)))
        else:
            direction = rng.choice(("right", "left"))
            kind = rng.choice(("D", "!", "?", "R", "S"))
            atoms += mark(direction, kind)
    return tuple(atoms)


def port_scan(net):
    """``(node, port) -> (edge, end index)`` read from the edges afresh,
    independent of the map a net keeps."""
    return {(end[1], end[2]): (eid, i) for eid, e in net.edges.items()
            for i, end in enumerate(e.ends)
            if end is not None and end[0] == "node"}


def failure(problem, entry=None, calculus=None, rule=None, position=None,
            error=None, detail=None) -> dict:
    """A failure record as every suite in ``goilab.checks`` reports one,
    spelt out key by key; ``error`` is the exception's type name."""
    return {"entry": entry, "calculus": calculus, "rule": rule,
            "position": position, "problem": problem, "error": error,
            "detail": detail}
