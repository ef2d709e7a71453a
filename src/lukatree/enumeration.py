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
from typing import Sequence

from .alphabet import CountsLike, TreeAlphabet, f_valid_counts
from .errors import DomainTooSmallError, LimitExceededError, _is_int

__all__ = [
    "valid_word_count",
    "tutte_count",
    "enumerate_lukasiewicz",
    "enumerate_valid_words",
    "DEFAULT_ENUMERATION_LIMIT",
]

DEFAULT_ENUMERATION_LIMIT = 12


def _multinomial(counts: Sequence[int]) -> int:
    # product of binomials keeps every intermediate an exact small-ish integer
    out = 1
    acc = 0
    for c in counts:
        acc += c
        out *= math.comb(acc, c)
    return out


def valid_word_count(t: CountsLike, alphabet: TreeAlphabet) -> int:
    """Number of valid words with letter counts t: n! / prod n_i!."""
    return _multinomial(f_valid_counts(t, alphabet))


def tutte_count(t: CountsLike, alphabet: TreeAlphabet) -> int:
    """Number of rooted planar trees with letter counts t: (n-1)! / prod n_i!.

    Equals valid_word_count / n exactly (cycle lemma).
    """
    counts = f_valid_counts(t, alphabet)
    trees, rem = divmod(_multinomial(counts), sum(counts))
    assert rem == 0, "cycle lemma guarantees divisibility for f-valid tuples"
    return trees


def _arrangements(
    t: CountsLike, alphabet: TreeAlphabet, limit: int, prune_prefix: bool
) -> list[tuple[int, ...]]:
    """All distinct arrangements of the letter multiset t, lexicographic by index.

    Refuses a limit that is no integer and tuples with total above limit.
    With prune_prefix, a letter that takes the path below 0 before the last
    position is not tried, which leaves exactly the Lukasiewicz words.  The
    walk is a flat backtracking loop, so its depth is not bound by the
    interpreter's recursion limit.
    """
    counts = f_valid_counts(t, alphabet)
    n = sum(counts)
    if not _is_int(limit):
        raise DomainTooSmallError(f"enumeration limit must be an integer, got {limit!r}")
    if n > limit:
        raise LimitExceededError(
            f"tuple total {n} exceeds enumeration limit {limit}; raise `limit` "
            "explicitly if you really want exhaustion"
        )
    degrees = alphabet.degrees
    k = len(counts)
    left = list(counts)
    word: list[int] = []
    out = []
    level = 0
    letter = 0  # the next letter to try at position len(word)
    while True:
        if letter < k:
            if left[letter] and (
                not prune_prefix or level + degrees[letter] >= 0 or len(word) == n - 1
            ):
                left[letter] -= 1
                level += degrees[letter]
                word.append(letter)
                if len(word) == n:
                    out.append(tuple(word))
                letter = 0
            else:
                letter += 1
        elif word:
            letter = word.pop()
            left[letter] += 1
            level -= degrees[letter]
            letter += 1
        else:
            return out


def enumerate_lukasiewicz(
    t: CountsLike, alphabet: TreeAlphabet, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> list[tuple[int, ...]]:
    """All Lukasiewicz words with letter counts t, lexicographic by letter index.

    Refuses tuples with total above `limit` (default 12): the output grows
    like (n-1)!/prod n_i! and exhaustion is meant for oracle-sized inputs.
    """
    return _arrangements(t, alphabet, limit, prune_prefix=True)


def enumerate_valid_words(
    t: CountsLike, alphabet: TreeAlphabet, limit: int = DEFAULT_ENUMERATION_LIMIT
) -> list[tuple[int, ...]]:
    """All valid words with letter counts t (every arrangement of the multiset)."""
    return _arrangements(t, alphabet, limit, prune_prefix=False)
