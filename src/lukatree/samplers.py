"""Near-entropy-optimal discrete draws and the two tree-sampling pipelines.

The dichotomic draw picks index i with probability n_i / n from integer
weights (n_1, .., n_k) using fair bits only.  It maintains a dyadic
subinterval of [0, n): each fresh bit keeps the lower or upper half, and the
draw stops the moment the interval fits inside one of the cumulative weight
segments [n_1 + .. + n_{i-1}, n_1 + .. + n_i).  All endpoints are exact
integers scaled by 2^depth, so the output law is exactly n_i / n and the
expected bit cost is below 2 + log2 k regardless of the weights.

The loop never searches the segments: it keeps the candidate segment s (the
one holding the interval's lower end) and its room, the distance from the
interval's lower end to the segment's upper end, in units of n / 2^depth.
A bit doubles the room and, if it is 1, takes n off; a room at or below zero
means the lower end has passed the segment, so s moves on; a room of n or
more means the whole interval fits, so the draw returns s.  Until then the
room stays below 2n, so the loop runs on small integers.

One draw loop serves a single draw and a whole word: it draws a given number
of letters, takes each out of the pool, and reads its bits from a local copy
of the source's buffer with no method call per bit.  dichotomic_draw runs it
once and gives the letter back.

Sampling a uniform tree with letter counts t then goes one of two ways:

permutation -- shuffle 1..n (Theta(n log n) bits), block-fill a valid word,
               rotate it Lukasiewicz;
dichotomic  -- draw the word letter by letter from the shrinking multiset
               (O(n) bits), rotate it Lukasiewicz.

Both are exactly uniform over the trees with counts t; they differ only in
entropy cost, which :func:`lukatree.experiments.run_bitcost_scan` measures
per draw.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .alphabet import CountsLike, TreeAlphabet, f_valid_counts
from .bitstream import _CHUNK_BITS, BitSource, fisher_yates
from .errors import DomainTooSmallError, LimitExceededError
from .tree import PlanarTree
from .words import LukasiewiczWord, _place_blocks, to_lukasiewicz

__all__ = [
    "DiscreteWeights",
    "dichotomic_draw",
    "tuple_to_valid_word",
    "sample_tree",
    "sample_lukasiewicz_word",
    "mean_cost_closed_form",
    "METHODS",
]

METHODS = ("dichotomic", "permutation")


class DiscreteWeights:
    """Non-negative integer weights.

    `total` and `cumulative` (k+1 entries from 0 to the total) are derived
    on each read, so they follow any edit of the public `weights` list, and
    `decrement(i)` is O(1).
    """

    __slots__ = ("weights",)

    def __init__(self, weights: Sequence[int]):
        ws = [int(w) for w in weights]
        if not ws or any(w < 0 for w in ws):
            raise DomainTooSmallError(f"weights must be non-empty and >= 0: {ws!r}")
        if sum(ws) < 1:
            raise DomainTooSmallError("total weight must be at least 1")
        self.weights = ws

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)

    @property
    def cumulative(self) -> list[int]:
        return list(accumulate(self.weights, initial=0))

    def decrement(self, index: int) -> None:
        """Take one unit of weight off index (it must have some left).

        index must lie in 0..k-1: a negative one would silently hit a weight
        counted from the end.  A weight's domain is the integers >= 0, so an
        exhausted weight would drop below it: DomainTooSmallError, as for a
        negative weight given.
        """
        ws = self.weights
        if not 0 <= index < len(ws):
            raise IndexError(f"weight index {index} outside 0..{len(ws) - 1}")
        if ws[index] < 1:
            raise DomainTooSmallError(f"weight {index} already exhausted")
        ws[index] -= 1


def _draw_letters(source: BitSource, left: list[int], total: int, count: int) -> list[int]:
    """The dichotomic draw, count times, each letter taken out of left.

    left holds non-negative weights summing to total >= count.  Each draw
    keeps, after depth bits with low the bits read (first bit most
    significant) and scale = 2^depth, the interval [low, low + 1) * total /
    scale and room = cum[s+1] * scale - low * total for the candidate segment
    s.  The interval fits in s, (low + 1) * total <= cum[s+1] * scale, exactly
    when room >= total.  The bits are read from a local copy of the source's
    buffer, and when it runs dry the next 16-bit chunk is popped off the
    source's queue directly (see :class:`~lukatree.bitstream.BitSource`).
    An empty queue raises IndexError, once per 64 chunks; ``_refill`` then
    fills it and pops.  ``_queued`` is resynced on exit.
    """
    buf = source._buf
    queue = source._queue
    pop = queue.pop
    word = []
    try:
        for total in range(total, total - count, -1):  # the pool's size at each draw
            s = 0
            room = left[0]
            while room <= 0:  # start at the first non-empty segment
                s += 1
                room = left[s]
            scale = 1
            while room < total:
                room <<= 1
                scale <<= 1
                if buf == 1:
                    try:
                        buf = pop()
                    except IndexError:
                        buf = source._refill()
                if buf & 1:
                    room -= total
                    while room <= 0:
                        s += 1
                        room += left[s] * scale
                buf >>= 1
            left[s] -= 1
            word.append(s)
    finally:
        source._buf = buf
        source._queued = _CHUNK_BITS * len(queue)
    return word


def dichotomic_draw(source: BitSource, weights: DiscreteWeights) -> int:
    """Index i (0-based) with probability weights[i] / total, from fair bits.

    Zero-weight indices have zero probability: an empty segment can never
    contain the (always non-empty) interval.  If one index holds all the
    weight the draw is free.  A weight edited below zero, or a total below 1,
    is a DomainTooSmallError, raised before any bit is read.

    After depth bits the interval is [low * total / 2^depth,
    (low + 1) * total / 2^depth): low holds the bits read so far, first bit
    most significant, so a 1-bit keeps the upper half.  The draw tracks the
    candidate segment's room, cum[s+1] * 2^depth - low * total, instead of
    low itself: a bit maps it to 2 * room - bit * total, the segment changes
    only when the room drops to zero or below, and the interval fits once
    the room reaches total.  That is the dyadic-interval test step for step,
    so the index and the bits read are the same.  Everything stays an exact
    integer, so no rounding ever happens.
    """
    ws = weights.weights
    if min(ws, default=0) < 0:
        raise DomainTooSmallError(f"weights must be >= 0: {ws!r}")
    total = sum(ws)
    if total < 1:
        raise DomainTooSmallError("total weight must be at least 1")
    (letter,) = _draw_letters(source, ws, total, 1)
    ws[letter] += 1  # the draw took the letter out; the pool keeps it
    return letter


def tuple_to_valid_word(
    source: BitSource, t: CountsLike, alphabet: TreeAlphabet
) -> tuple[int, ...]:
    """Uniform valid word with letter counts t, letter by letter.

    Each position draws a letter with probability proportional to its
    remaining count, which makes every arrangement of the multiset equally
    likely; the expected cost is below (2 + log2 k) bits per letter.  The
    final letter is forced and free.  The draws and decrements are those of
    :func:`dichotomic_draw` and :meth:`DiscreteWeights.decrement`, in one
    loop over a plain list.
    """
    left = list(f_valid_counts(t, alphabet))
    n = sum(left)
    return tuple(_draw_letters(source, left, n, n))


def sample_lukasiewicz_word(
    source: BitSource,
    t: CountsLike,
    alphabet: TreeAlphabet,
    method: str = "dichotomic",
) -> LukasiewiczWord:
    """Uniform Lukasiewicz word with letter counts t, by either pipeline.

    The counts are checked before any bit is read: they must be f-valid, and
    their total n no more than a list can hold (sys.maxsize), else a
    LimitExceededError.  The shuffle's permutation goes to the unchecked
    block fill, words._place_blocks.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    counts = f_valid_counts(t, alphabet)
    n = sum(counts)
    if n > sys.maxsize:
        raise LimitExceededError(
            f"tuple total {n} is more letters than a list can hold ({sys.maxsize})"
        )
    if method == "dichotomic":
        word = tuple_to_valid_word(source, counts, alphabet)
    else:
        word = _place_blocks(fisher_yates(source, n), counts)
    return to_lukasiewicz(word, alphabet)


def sample_tree(
    source: BitSource,
    t: CountsLike,
    alphabet: TreeAlphabet,
    method: str = "dichotomic",
) -> PlanarTree:
    """Uniform rooted planar tree with letter counts t.

    Thin composition: sample a valid word (by the chosen method), rotate it
    to the Lukasiewicz representative, wrap it as a tree (the rotation has
    proved the word, so word_to_tree's check is skipped).  Uniformity over
    trees follows from uniformity over valid words plus the cycle lemma.
    """
    word = sample_lukasiewicz_word(source, t, alphabet, method)
    return PlanarTree(alphabet, list(word))


def mean_cost_closed_form(k: int) -> Fraction:
    """Exact worst-case mean bit cost of a k-way dichotomic draw.

    floor(log2(k-1)) + 1 + k / 2^floor(log2(k-1)), as an exact rational.
    It is 3 for k = 2, 3.5 for k = 3, 4.25 for k = 5, and never exceeds
    2 + log2 k.
    """
    if k < 2:
        raise DomainTooSmallError(f"closed form needs k >= 2, got {k}")
    j = (k - 1).bit_length() - 1
    return Fraction(j + 1) + Fraction(k, 1 << j)
