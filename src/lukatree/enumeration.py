"""Exact counting, brute-force enumeration, and chi-square machinery.

The two counting formulas are the yardsticks everything else is measured
against: a counts tuple (n_1, .., n_k) of total n has

    n! / (n_1! .. n_k!)        valid words (all arrangements of the multiset)
    (n-1)! / (n_1! .. n_k!)    Lukasiewicz words, i.e. trees

the second being the first divided by n, which is the cycle lemma in one
line.  The enumerators reproduce the same numbers by exhaustion and give the
uniformity tests their support sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Mapping, Sequence

from .alphabet import CountsLike, TreeAlphabet, f_valid_counts
from .errors import EmptySupportError, LimitExceededError
from .words import LukasiewiczWord

__all__ = [
    "valid_word_count",
    "tutte_count",
    "enumerate_lukasiewicz",
    "enumerate_valid_words",
    "ChiSquareResult",
    "chi_square_uniformity",
    "chi_square_homogeneity",
    "DEFAULT_ENUMERATION_LIMIT",
]

DEFAULT_ENUMERATION_LIMIT = 12


def _multinomial(total: int, counts: Sequence[int]) -> int:
    # product of binomials keeps every intermediate an exact small-ish integer
    out = 1
    acc = 0
    for c in counts:
        acc += c
        out *= math.comb(acc, c)
    assert acc == total
    return out


def valid_word_count(t: CountsLike, alphabet: TreeAlphabet) -> int:
    """Number of valid words with letter counts t: n! / prod n_i!."""
    counts = f_valid_counts(t, alphabet)
    return _multinomial(sum(counts), counts)


def tutte_count(t: CountsLike, alphabet: TreeAlphabet) -> int:
    """Number of rooted planar trees with letter counts t: (n-1)! / prod n_i!.

    Equals valid_word_count / n exactly (cycle lemma).
    """
    counts = f_valid_counts(t, alphabet)
    n = sum(counts)
    words = _multinomial(n, counts)
    trees, rem = divmod(words, n)
    assert rem == 0, "cycle lemma guarantees divisibility for f-valid tuples"
    return trees


def _arrangements(
    counts: Sequence[int], degrees: Sequence[int], prune_prefix: bool
) -> Iterator[tuple[int, ...]]:
    """All distinct arrangements of the letter multiset, lexicographic by index.

    With prune_prefix, branches whose path dips below 0 before the last letter
    are cut, which leaves exactly the Lukasiewicz words.
    """
    n = sum(counts)
    remaining = list(counts)
    word: list[int] = []
    k = len(counts)

    def extend(s: int) -> Iterator[tuple[int, ...]]:
        pos = len(word)
        if pos == n:
            yield tuple(word)
            return
        for letter in range(k):
            if remaining[letter] == 0:
                continue
            s2 = s + degrees[letter]
            if prune_prefix and s2 < 0 and pos < n - 1:
                continue
            remaining[letter] -= 1
            word.append(letter)
            yield from extend(s2)
            word.pop()
            remaining[letter] += 1

    return extend(0)


def enumerate_lukasiewicz(
    t: CountsLike, alphabet: TreeAlphabet, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> list[LukasiewiczWord]:
    """All Lukasiewicz words with letter counts t, lexicographic by letter index.

    Refuses tuples with total above `limit` (default 12): the output grows
    like (n-1)!/prod n_i! and exhaustion is meant for oracle-sized inputs.
    """
    counts = f_valid_counts(t, alphabet)
    n = sum(counts)
    if n > limit:
        raise LimitExceededError(
            f"tuple total {n} exceeds enumeration limit {limit}; raise `limit` "
            "explicitly if you really want exhaustion"
        )
    return [
        LukasiewiczWord(w)
        for w in _arrangements(counts, alphabet.degrees, prune_prefix=True)
    ]


def enumerate_valid_words(
    t: CountsLike, alphabet: TreeAlphabet, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> list[tuple[int, ...]]:
    """All valid words with letter counts t (every arrangement of the multiset)."""
    counts = f_valid_counts(t, alphabet)
    if sum(counts) > limit:
        raise LimitExceededError(
            f"tuple total {sum(counts)} exceeds enumeration limit {limit}"
        )
    return list(_arrangements(counts, alphabet.degrees, prune_prefix=False))


@dataclass(frozen=True)
class ChiSquareResult:
    """Pearson statistic, its degrees of freedom, and the upper-tail p-value."""

    statistic: float
    degrees: int
    p_value: float


def _stirling_remainder(p: float) -> float:
    # lgamma(p+1) - (p log p - p + log(2 pi p)/2), as its asymptotic series
    # 1/(12p) - 1/(360p^3) + 1/(1260p^5) - 1/(1680p^7) + ..., whose first term
    # left out, 1/(1188p^9), is below 2e-15 for p >= 20
    q = 1.0 / (p * p)
    return (1 / 12 - q * (1 / 360 - q * (1 / 1260 - q / 1680))) / p


def _chi_square_p(statistic: float, degrees: int) -> float:
    # upper tail Q(df/2, y) at y = x/2 for integer df, in closed form
    # (Abramowitz & Stegun §26.4):
    #   even df: e^-y * sum_{i<df/2} y^i / i!
    #   odd df:  erfc(sqrt y) + e^-y * sum_{i<(df-1)/2} y^(i+1/2) / Gamma(i+3/2)
    # term i is exp(L(i)), L(i) = p log y - y - lgamma(p+1) with p = i + odd/2,
    # so none overflows.  Near the peak that L is a small difference of parts
    # near p log p, whose rounding grows with p, so from p = 20 on it is taken
    # in Stirling's form, where no part is much larger than d or log p:
    #   L(i) = p log1p(d/p) - d - log(2 pi p)/2 - r(p),   d = y - p,
    # r being Stirling's remainder.  L is concave in i and largest at
    # i = floor(y - odd/2), so the sum walks out both ways from there (clamped
    # to the range) and stops where L falls 50 below that peak; past the stop
    # the terms shrink at least geometrically, so the part left out is of
    # order e^-50 of the sum, and terms that underflow to 0 end the walk too
    if statistic <= 0.0:
        return 1.0
    y = statistic / 2.0
    log_y = math.log(y)
    odd = degrees % 2
    count = degrees // 2
    head = math.erfc(math.sqrt(y)) if odd else 0.0

    def log_term(i: int) -> float:
        p = i + odd / 2
        if p < 20:
            return p * log_y - y - math.lgamma(p + 1)
        d = y - p
        return p * math.log1p(d / p) - d - 0.5 * math.log(2 * math.pi * p) - _stirling_remainder(p)

    peak = max(min(int(y - odd / 2), count - 1), 0)
    floor = log_term(peak) - 50.0

    def walk(i: int, step: int) -> Iterator[float]:
        while 0 <= i < count:
            log = log_term(i)
            if log < floor:
                return
            yield math.exp(log)
            i += step

    return min(1.0, math.fsum(chain([head], walk(peak, 1), walk(peak - 1, -1))))


def chi_square_uniformity(observed: Mapping[object, int], support_size: int) -> ChiSquareResult:
    """Pearson goodness-of-fit of observed counts against the uniform law.

    `observed` maps outcomes to counts; outcomes of the support that were
    never seen may simply be absent.  `support_size` is the true number of
    outcomes (e.g. a tutte_count), so the expected count per cell is
    draws / support_size and the statistic sums over all cells, absent ones
    contributing their full expectation.
    """
    if support_size < 2:
        raise EmptySupportError(
            f"support of size {support_size} leaves nothing to test"
        )
    if len(observed) > support_size:
        raise EmptySupportError(
            f"{len(observed)} distinct outcomes observed on a support of {support_size}"
        )
    draws = sum(observed.values())
    if draws < 1 or any(c < 0 for c in observed.values()):
        raise EmptySupportError("observed counts must be non-negative with positive total")
    expected = draws / support_size
    statistic = sum((c - expected) ** 2 / expected for c in observed.values())
    statistic += (support_size - len(observed)) * expected
    degrees = support_size - 1
    return ChiSquareResult(statistic, degrees, _chi_square_p(statistic, degrees))


def chi_square_homogeneity(
    counts_a: Mapping[object, int], counts_b: Mapping[object, int]
) -> ChiSquareResult:
    """Two-sample chi-square test that both count maps draw from one law.

    Standard contingency-table statistic over the union of observed outcomes,
    with df = (number of outcomes - 1).
    """
    outcomes = set(counts_a) | set(counts_b)
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    if len(outcomes) < 2 or total_a < 1 or total_b < 1:
        raise EmptySupportError("need two non-empty samples over at least two outcomes")
    grand = total_a + total_b
    statistic = 0.0
    for outcome in outcomes:
        combined = counts_a.get(outcome, 0) + counts_b.get(outcome, 0)
        for total, counts in ((total_a, counts_a), (total_b, counts_b)):
            expected = total * combined / grand
            diff = counts.get(outcome, 0) - expected
            statistic += diff * diff / expected
    degrees = len(outcomes) - 1
    return ChiSquareResult(statistic, degrees, _chi_square_p(statistic, degrees))
