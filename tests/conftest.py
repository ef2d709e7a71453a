"""Shared test oracles.

The key device is ReplayBitSource plus exact_distribution: instead of
trusting a sampler's math, we run the real implementation over every bit
string up to a depth, weight each completed run by 2^-bits, and obtain its
output law as exact rationals up to a provable residual.  That turns
"returns i with probability w_i / n" into a checkable statement about the
code as written, independent of how the code arrives at it.

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

import numpy as np
import pytest


class Exhausted(Exception):
    """Raised when a ReplayBitSource runs past its scripted bits."""


class _ScriptQueue:
    """ReplayBitSource's `_queue`: empty to len() and truth tests, yet pop() plays on.

    Loops that splice a queue in while it is non-empty skip it, and a loop
    that pops a chunk whenever its buffer runs dry gets the next scripted bit
    under its leading 1, without an IndexError to catch.
    """

    __slots__ = ("pop",)

    def __init__(self, pop: Callable[[], int]):
        self.pop = pop

    def __len__(self) -> int:
        return 0


class ReplayBitSource:
    """BitSource stand-in that plays back a fixed bit sequence.

    It keeps BitSource's bulk-reader protocol with one-bit chunks: `_fetch`,
    `_refill` and `_queue.pop` all return the next scripted bit under a
    leading 1, and `_queue` is always empty to len(), so the library's loops
    that read `_buf` or pop `_queue` directly play the script one bit at a
    time too, and the first bit past its end raises Exhausted wherever it is
    read.  Those loops take fresh bits only when they need them, so `_buf`
    is empty again whenever a public call reads the script.
    """

    def __init__(self, bits: tuple[int, ...]):
        self.bits = bits
        self.pos = 0
        self._buf = 1
        self._queue = _ScriptQueue(self._refill)

    @property
    def bits_consumed(self) -> int:
        return self.pos - (self._buf.bit_length() - 1)

    def _fetch(self, m: int) -> int:
        return 2 | self.next_bit()

    def _refill(self) -> int:
        return 2 | self.next_bit()

    def next_bit(self) -> int:
        if self.pos >= len(self.bits):
            raise Exhausted
        bit = self.bits[self.pos]
        self.pos += 1
        return bit

    def next_bits(self, count: int) -> int:
        out = 0
        for i in range(count):
            out |= self.next_bit() << i
        return out


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
