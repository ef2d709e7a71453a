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
of letters and takes each out of the pool.  It lives in
:mod:`lukatree.bitstream`, beside the source whose unread bits it reads.
dichotomic_draw runs it once and gives the letter back.

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

import operator
import sys
from fractions import Fraction
from typing import Sequence

from .alphabet import CountsLike, TreeAlphabet, f_valid_counts
from .bitstream import BitSource, _draw_letters, fisher_yates
from .errors import ArityMismatchError, DomainTooSmallError, LimitExceededError, LukatreeError
from .errors import _is_int
from .tree import PlanarTree, _unchecked_tree
from .words import _place_blocks, to_lukasiewicz

__all__ = [
    "DiscreteWeights",
    "dichotomic_draw",
    "sample_tree",
    "sample_lukasiewicz_word",
    "mean_cost_closed_form",
    "METHODS",
]

METHODS = ("dichotomic", "permutation")


class DiscreteWeights:
    """A pool of non-negative integer weights, checked once.

    The pool and its running total are private, and `decrement(i)` is the one
    change, O(1), that keeps them in step, so a draw checks no weight.
    `weights` reads the pool as a tuple.
    """

    __slots__ = ("_left", "_total")

    def __init__(self, weights: Sequence[int]):
        try:  # index takes what _is_int passes, as ints, in one pass in C
            left = list(map(operator.index, weights))
        except TypeError:
            left = []
        if not left or min(left) < 0:
            raise DomainTooSmallError(f"weights must be non-empty integers >= 0: {weights!r}")
        self._left = left
        self._total = sum(left)
        if self._total < 1:
            raise DomainTooSmallError("total weight must be at least 1")

    @property
    def weights(self) -> tuple[int, ...]:
        """The weights left, in index order."""
        return tuple(self._left)

    def decrement(self, index: int) -> None:
        """Take one unit of weight off index (it must have some left).

        index must be an integer position in weights, else ArityMismatchError:
        a negative one would silently hit a weight counted from the end.  A
        weight's domain is the integers >= 0, so an exhausted weight would drop
        below it: DomainTooSmallError, as for a negative weight given.
        """
        ws = self._left
        if not _is_int(index) or not 0 <= index < len(ws):
            raise ArityMismatchError(f"weight index {index!r} outside 0..{len(ws) - 1}")
        if ws[index] < 1:
            raise DomainTooSmallError(f"weight {index} already exhausted")
        ws[index] -= 1
        self._total -= 1


def dichotomic_draw(source: BitSource, weights: DiscreteWeights) -> int:
    """Index i (0-based) with probability weights[i] / total, from fair bits.

    Zero-weight indices have zero probability: an empty segment can never
    contain the (always non-empty) interval.  If one index holds all the
    weight the draw is free.  A pool decremented to a total of 0 is a
    DomainTooSmallError, raised before any bit is read.

    The draw is the room-tracking loop of the module docstring run once: the
    dyadic-interval test step for step, on exact integers, so no rounding
    ever happens.
    """
    total = weights._total
    if total < 1:
        raise DomainTooSmallError("total weight must be at least 1")
    left = weights._left
    (letter,) = _draw_letters(source, left, total, 1)
    left[letter] += 1  # the draw took the letter out; the pool keeps it
    return letter


def sample_lukasiewicz_word(
    source: BitSource,
    t: CountsLike,
    alphabet: TreeAlphabet,
    method: str = "dichotomic",
) -> tuple[int, ...]:
    """Uniform Lukasiewicz word with letter counts t, by either pipeline.

    The counts are checked before any bit is read: they must be f-valid, and
    their total n no more than a list can hold (sys.maxsize), else a
    LimitExceededError.  The dichotomic fill draws each letter with
    probability proportional to its remaining count, so every arrangement of
    the multiset is equally likely, at below (2 + log2 k) expected bits a
    letter; the last letter is forced and free.  Its draws and decrements
    are those of dichotomic_draw and DiscreteWeights.decrement, in one loop
    over a plain list.  The shuffle's permutation goes to the unchecked
    block fill, words._place_blocks.
    """
    if method not in METHODS:
        raise LukatreeError(f"unknown method {method!r}, expected one of {METHODS}")
    counts = f_valid_counts(t, alphabet)
    n = sum(counts)
    if n > sys.maxsize:
        raise LimitExceededError(
            f"tuple total {n} is more letters than a list can hold ({sys.maxsize})"
        )
    if method == "dichotomic":
        word = _draw_letters(source, list(counts), n, n)
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
    to the Lukasiewicz representative, wrap it as a tree.  The rotation has
    proved the word, a tuple of ints, so tree._unchecked_tree wraps it as
    it is, without walking its path again as PlanarTree's constructor
    would.  Uniformity over trees follows from uniformity over valid words plus the cycle lemma.
    """
    word = sample_lukasiewicz_word(source, t, alphabet, method)
    return _unchecked_tree(alphabet, word)


def mean_cost_closed_form(k: int) -> Fraction:
    """Exact worst-case mean bit cost of a k-way dichotomic draw.

    floor(log2(k-1)) + 1 + k / 2^floor(log2(k-1)), as an exact rational.
    It is 3 for k = 2, 3.5 for k = 3, 4.25 for k = 5, and never exceeds
    2 + log2 k.
    """
    if not _is_int(k) or k < 2:
        raise DomainTooSmallError(f"closed form needs an integer k >= 2, got {k!r}")
    j = int(k - 1).bit_length() - 1
    return Fraction(j + 1) + Fraction(k, 1 << j)
