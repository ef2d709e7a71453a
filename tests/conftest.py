"""Shared test oracles.

The key device is ReplayBitSource plus exact_distribution: instead of
trusting a sampler's math, we run the real implementation over every bit
string up to a depth, weight each completed run by 2^-bits, and obtain its
output law as exact rationals up to a provable residual.  That turns
"returns i with probability w_i / n" into a checkable statement about the
code as written, independent of how the code arrives at it.  The replay
is a BitSource that overrides only `_fetch`, the one place where bits enter,
so every reader under test is BitSource's own.

ScriptedGenerator does the same for the numpy batch engine, which draws from
a numpy Generator rather than from fair bits.  It stands in for the two
generator calls the engine makes and feeds its n! rows every outcome of
those calls exactly once, so the rows' word counts are the engine's law
times n!, with no residual.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Callable

import pytest

from lukatree import BitSource


class Exhausted(Exception):
    """Raised when a ReplayBitSource runs past its scripted bits."""


_DIGITS = bytes.maketrans(b"\0\1", b"01")


class ReplayBitSource(BitSource):
    """BitSource that plays back a fixed bit sequence.

    It overrides only `_fetch`, the one place where bits enter a BitSource:
    the first fetch hands over every scripted bit, first bit lowest under a
    leading 1, and counts them, and a fetch with no bit left raises
    Exhausted.  So the library's own readers run on the script unchanged.
    Each of them fetches only when it holds fewer bits than it needs, so a
    run raises Exhausted exactly when it needs a bit past the script, and
    `bits_consumed` counts the scripted bits it has read.
    """

    def __init__(self, bits: tuple[int, ...]):
        # BitSource.__init__ would also seed a Random that a replay never reads
        self._bits = bytearray()
        self._fetched = 0
        self._script = bits

    def _fetch(self, m: int) -> int:
        script = self._script
        if not script:
            raise Exhausted
        self._script = ()
        self._fetched += len(script)
        return int(b"1" + bytes(script[::-1]).translate(_DIGITS), 2)


def exact_distribution(
    run: Callable[[ReplayBitSource], object], max_depth: int
) -> tuple[dict, Fraction]:
    """Exact output law of run(source) by exhausting all bit prefixes.

    Returns (probabilities, residual): outcome -> Fraction mass of runs that
    complete within max_depth bits, plus the mass of still-unresolved paths.
    Only prefixes that raised Exhausted are extended, so a completing run has
    always consumed its whole prefix and the masses are exact.
    """
    probs: dict = {}
    residual = Fraction(0)
    frontier: list[tuple[int, ...]] = [()]
    while frontier:
        prefix = frontier.pop()
        source = ReplayBitSource(prefix)
        try:
            outcome = run(source)
        except Exhausted:
            if len(prefix) >= max_depth:
                residual += Fraction(1, 2 ** len(prefix))
            else:
                frontier.append(prefix + (0,))
                frontier.append(prefix + (1,))
            continue
        assert source.bits_consumed == len(prefix)
        probs[outcome] = probs.get(outcome, Fraction(0)) + Fraction(1, 2 ** len(prefix))
    return probs, residual


def motzkin_height_law(u: int, c: int) -> dict[int, Fraction]:
    """Exact law of the height of a uniform Motzkin tree with u unary and c binary nodes.

    M_h[a][b] counts the trees of height at most h with a unary and b binary
    nodes (and b + 1 leaves): M_0 is the lone leaf, and a tree of height at
    most h + 1 is a leaf, a unary root over a tree of M_h, or a binary root
    over an ordered pair of them.  Truncating every polynomial at degree u
    in a and c in b keeps each step exact for the coefficient wanted, and
    P(H <= h) = M_h[u][c] / M_{n-1}[u][c], n = u + 2c + 1 being the tree size.
    """
    def leaf():
        return [[int(a == b == 0) for b in range(c + 1)] for a in range(u + 1)]

    n = u + 2 * c + 1
    counts = leaf()
    at_most = [counts[u][c]]
    for _ in range(n - 1):
        prev = counts
        counts = leaf()
        for a in range(u + 1):
            for b in range(c + 1):
                if a:
                    counts[a][b] += prev[a - 1][b]
                if b:
                    counts[a][b] += sum(
                        prev[a1][b1] * prev[a - a1][b - 1 - b1]
                        for a1 in range(a + 1)
                        for b1 in range(b)
                    )
        at_most.append(counts[u][c])
    total = at_most[-1]
    law = {}
    below = 0
    for h, count in enumerate(at_most):
        if count > below:
            law[h] = Fraction(count - below, total)
        below = count
    return law


class ScriptedGenerator:
    """numpy Generator stand-in that plays every outcome once, one per row.

    It serves n! rows of n letters.  Row r's draw at position pos from
    `integers(0, n - pos, size=n!)` is digit pos of r in the mixed radix
    whose base at position pos is n - pos, so the rows run through every
    sequence of draws once.  `permuted(words, axis=1, out=words)` writes
    permutation r of the (common) base row into row r.  Each call asserts
    that it was asked for exactly that; any other generator method is
    undefined and raises AttributeError.
    """

    def __init__(self, n: int):
        import numpy as np  # only the batch engine's tests need numpy

        self.n = n
        self.reps = math.factorial(n)
        self.rows = np.arange(self.reps, dtype=np.int64)
        self.place = 1  # product of the bases of the positions drawn so far
        self.pos = 0

    def integers(self, low, high, size):
        base = self.n - self.pos
        assert (low, high, size) == (0, base, self.reps), (low, high, size)
        digits = self.rows // self.place % base
        self.place *= base
        self.pos += 1
        return digits

    def permuted(self, words, axis, out):
        import numpy as np

        assert axis == 1 and out is words
        assert words.shape == (self.reps, self.n)
        assert (words == words[0]).all(), "permuted expects one base row, tiled"
        words[:] = words[0][np.array(list(permutations(range(self.n))))]
        return words


@pytest.fixture
def motzkin():
    from lukatree import motzkin_alphabet

    return motzkin_alphabet()


@pytest.fixture
def binary():
    from lukatree import binary_alphabet

    return binary_alphabet()


def checkout_env() -> dict[str, str]:
    """Child environment whose PYTHONPATH starts at the lukatree under test."""
    import lukatree

    env = dict(os.environ)
    paths = [str(Path(lukatree.__file__).parents[1])]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env
