"""Exact counting and brute-force enumeration.

The two counting formulas are the yardsticks everything else is measured
against: a counts tuple (n_1, .., n_k) of total n has

    n! / (n_1! .. n_k!)        valid words (all arrangements of the multiset)
    (n-1)! / (n_1! .. n_k!)    Lukasiewicz words, i.e. trees

the second being the first divided by n, which is the cycle lemma in one
line.  The enumerators reproduce the same numbers by exhaustion and give the
exact-law tests their support sets.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from .alphabet import CountsLike, TreeAlphabet, f_valid_counts
from .errors import LimitExceededError

__all__ = [
    "valid_word_count",
    "tutte_count",
    "enumerate_lukasiewicz",
    "enumerate_valid_words",
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
) -> list[tuple[int, ...]]:
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
    return list(_arrangements(counts, alphabet.degrees, prune_prefix=True))


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
