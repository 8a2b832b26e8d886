"""A fixed piece of pure-Python work that measures how fast the machine runs
right now, so that timings made at different moments can be compared.

On a shared machine the speed of one core drifts: the same pass of a
workload has taken anywhere from 1.1 s to 2.1 s within one process, in
regimes that last from seconds to minutes.  The yardstick is timed before
and after every measured interval, and the interval is scaled by
``NOMINAL_S`` over the mean of the two yardstick times, which gives its
length on a machine where the yardstick takes ``NOMINAL_S``.  The work is a small normaliser of de Bruijn
lambda-terms built from tuples (recursion, allocation, hashing), the same
kind of work goilab does, so that it slows down with goilab when the machine
does; it shares no code with goilab, so no change to goilab moves it.

Run ``python3 bench/yardstick.py`` to print a few yardstick times.
"""

from __future__ import annotations

from time import perf_counter

# seconds one measure() takes on a 2-core x86 box in its usual regime
NOMINAL_S = 0.1

# terms: ("v", index) | ("l", body) | ("a", function, argument)
MUL = ("l", ("l", ("l", ("a", ("v", 2), ("a", ("v", 1), ("v", 0))))))


def _shift(t, d, cutoff=0):
    if t[0] == "v":
        return ("v", t[1] + d) if t[1] >= cutoff else t
    if t[0] == "l":
        return ("l", _shift(t[1], d, cutoff + 1))
    return ("a", _shift(t[1], d, cutoff), _shift(t[2], d, cutoff))


def _subst(t, j, s):
    if t[0] == "v":
        return s if t[1] == j else t
    if t[0] == "l":
        return ("l", _subst(t[1], j + 1, _shift(s, 1)))
    return ("a", _subst(t[1], j, s), _subst(t[2], j, s))


def _normal(t):
    if t[0] == "v":
        return t
    if t[0] == "l":
        return ("l", _normal(t[1]))
    f = _normal(t[1])
    if f[0] == "l":
        return _normal(_shift(_subst(f[1], 0, _shift(t[2], 1)), -1))
    return ("a", f, _normal(t[2]))


def _church(n: int):
    body = ("v", 0)
    for _ in range(n):
        body = ("a", ("v", 1), body)
    return ("l", ("l", body))


def _size(t) -> int:
    return 1 if t[0] == "v" else 1 + sum(_size(x) for x in t[1:])


def work() -> int:
    """Normalise a * b for Church numerals 1 <= a, b <= 12, twice over;
    the sum of the normal forms' sizes (the numeral n has size 2n + 3)."""
    total = 0
    for _ in range(2):
        for a in range(1, 13):
            for b in range(1, 13):
                total += _size(_normal(("a", ("a", MUL, _church(a)), _church(b))))
    return total


EXPECTED = 2 * sum(2 * a * b + 3 for a in range(1, 13) for b in range(1, 13))


def measure() -> float:
    """Seconds one ``work()`` takes now."""
    start = perf_counter()
    if work() != EXPECTED:
        raise RuntimeError("yardstick: the reference work changed its result")
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` timed between yardstick times ``before`` and ``after``,
    as seconds at the nominal speed."""
    return seconds * NOMINAL_S / ((before + after) / 2)


if __name__ == "__main__":
    print(" ".join(f"{measure():.4f}" for _ in range(5)))
