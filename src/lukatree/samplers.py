"""Near-entropy-optimal discrete draws and the two tree-sampling pipelines.

The dichotomic draw picks index i with probability n_i / n from integer
weights (n_1, .., n_k) using fair bits only.  It maintains a dyadic
subinterval of [0, n): each fresh bit keeps the lower or upper half, and the
draw stops the moment the interval fits inside one of the cumulative weight
segments [n_1 + .. + n_{i-1}, n_1 + .. + n_i).  All endpoints are exact
integers scaled by 2^depth, so the output law is exactly n_i / n and the
expected bit cost is below 2 + log2 k regardless of the weights.

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

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from .alphabet import CountsLike, TreeAlphabet, degree_counts, f_valid_counts
from .bitstream import BitSource, fisher_yates
from .errors import DomainTooSmallError
from .tree import PlanarTree, word_to_tree
from .words import LukasiewiczWord, permutation_to_valid_word, to_lukasiewicz

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
    """Non-negative integer weights with cached cumulative sums.

    `cumulative` has k+1 entries starting at 0 and ending at the total.
    `decrement(i)` keeps the cache in step in O(k), which is what the
    letter-by-letter word sampler needs.
    """

    __slots__ = ("weights", "cumulative")

    def __init__(self, weights: Sequence[int]):
        ws = [int(w) for w in weights]
        if not ws or any(w < 0 for w in ws):
            raise DomainTooSmallError(f"weights must be non-empty and >= 0: {ws!r}")
        if sum(ws) < 1:
            raise DomainTooSmallError("total weight must be at least 1")
        self.weights = ws
        cum = [0]
        for w in ws:
            cum.append(cum[-1] + w)
        self.cumulative = cum

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return self.cumulative[-1]

    def decrement(self, index: int) -> None:
        """Take one unit of weight off index (it must have some left)."""
        if self.weights[index] < 1:
            raise DomainTooSmallError(f"weight {index} already exhausted")
        self.weights[index] -= 1
        cum = self.cumulative
        for j in range(index + 1, len(cum)):
            cum[j] -= 1


def dichotomic_draw(source: BitSource, weights: DiscreteWeights) -> int:
    """Index i (0-based) with probability weights[i] / total, from fair bits.

    Zero-weight indices have zero probability: an empty segment can never
    contain the (always non-empty) interval.  If one index holds all the
    weight the draw is free.

    After depth bits the interval is [low * total / 2^depth,
    (low + 1) * total / 2^depth): low holds the bits read so far, first bit
    most significant, so a 1-bit keeps the upper half.  Everything stays an
    exact integer; refining by a bit doubles the scale, so no rounding ever
    happens.
    """
    cum = weights.cumulative
    total = cum[-1]
    next_bit = source.next_bit
    low = depth = 0
    while True:
        # candidate segment: the one containing the interval's lower endpoint
        seg = bisect_right(cum, (low * total) >> depth) - 1
        if (low + 1) * total <= cum[seg + 1] << depth:
            return seg
        low = 2 * low + next_bit()
        depth += 1


def tuple_to_valid_word(
    source: BitSource, t: CountsLike, alphabet: TreeAlphabet
) -> tuple[int, ...]:
    """Uniform valid word with letter counts t, letter by letter.

    Each position draws a letter with probability proportional to its
    remaining count, which makes every arrangement of the multiset equally
    likely; the expected cost is below (2 + log2 k) bits per letter.  The
    final letter is forced and free.
    """
    counts = f_valid_counts(t, alphabet)
    pool = DiscreteWeights(counts)
    word = []
    for _ in range(sum(counts)):
        letter = dichotomic_draw(source, pool)
        pool.decrement(letter)
        word.append(letter)
    return tuple(word)


def sample_lukasiewicz_word(
    source: BitSource,
    t: CountsLike,
    alphabet: TreeAlphabet,
    method: str = "dichotomic",
) -> LukasiewiczWord:
    """Uniform Lukasiewicz word with letter counts t, by either pipeline."""
    if method == "dichotomic":
        word = tuple_to_valid_word(source, t, alphabet)
    elif method == "permutation":
        counts = degree_counts(t)
        sigma = fisher_yates(source, sum(counts))
        word = permutation_to_valid_word(sigma, counts, alphabet)
    else:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    return to_lukasiewicz(word, alphabet)


def sample_tree(
    source: BitSource,
    t: CountsLike,
    alphabet: TreeAlphabet,
    method: str = "dichotomic",
) -> PlanarTree:
    """Uniform rooted planar tree with letter counts t.

    Thin composition: sample a valid word (by the chosen method), rotate it
    to the Lukasiewicz representative, decode the tree.  Uniformity over
    trees follows from uniformity over valid words plus the cycle lemma.
    """
    word = sample_lukasiewicz_word(source, t, alphabet, method)
    return word_to_tree(word, alphabet)


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
