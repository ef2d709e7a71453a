"""Lukasiewicz words, the cycle lemma, and the permutation construction.

A word w_1..w_n over a tree alphabet draws a lattice path: step i moves by
f(w_i), the degree of the letter.  Heights are the prefix sums
s_i = f(w_1) + ... + f(w_i).  The word is *valid* when s_n = -1 and a
*Lukasiewicz word* when additionally every proper prefix stays >= 0, i.e.
the path dips below zero only on its very last step.  Lukasiewicz words are
exactly the preorder letter sequences of rooted planar trees.

The cycle lemma says each valid word has exactly one cyclic rotation that is
Lukasiewicz: rotate just past the first position where the path attains its
minimum.  Together with the block construction of :func:`permutation_to_valid_word`
(every permutation of 1..n gives a valid word, and each valid word is hit by
the same number prod_i n_i! of permutations) this yields the uniform sampler:
shuffle, build the valid word, rotate.  The public fill checks that it was
given a permutation; the sampler's own shuffle makes one by construction, so
it calls the unchecked core, _place_blocks, instead.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from typing import Sequence

from .alphabet import CountsLike, TreeAlphabet, f_valid_counts
from .errors import ArityMismatchError, NotAPermutationError, NotAValidWordError

__all__ = [
    "Classification",
    "LukasiewiczWord",
    "path_heights",
    "classify",
    "rotation_index",
    "to_lukasiewicz",
    "rotations_that_are_lukasiewicz",
    "permutation_to_valid_word",
]


class Classification(enum.Enum):
    """Outcome of :func:`classify`."""

    LUKASIEWICZ = "lukasiewicz"
    VALID_NOT_LUKASIEWICZ = "valid,not-lukasiewicz"
    INVALID = "invalid"


class LukasiewiczWord(tuple):
    """A word certified to be Lukasiewicz by one of the constructors here.

    It behaves exactly like the tuple of letter indices it is; the subclass
    only records that the certificate was checked.
    """

    __slots__ = ()


def path_heights(word: Sequence[int], alphabet: TreeAlphabet) -> list[int]:
    """Prefix sums s_1..s_n of the letter degrees (the lattice path)."""
    degrees = alphabet.degrees
    k = alphabet.k
    steps = []
    for letter in word:
        if not 0 <= letter < k:
            raise ArityMismatchError(
                f"letter index {letter} outside alphabet of {k} letters"
            )
        steps.append(degrees[letter])
    return list(accumulate(steps))


def classify(word: Sequence[int], alphabet: TreeAlphabet) -> Classification:
    """Sort a word into invalid / valid / Lukasiewicz by its path.

    The empty word is invalid (its degree total is 0, not -1).
    """
    path = path_heights(word, alphabet)
    if path[-1:] != [-1]:
        return Classification.INVALID
    if min(path[:-1], default=0) < 0:
        return Classification.VALID_NOT_LUKASIEWICZ
    return Classification.LUKASIEWICZ


def rotation_index(word: Sequence[int], alphabet: TreeAlphabet) -> int:
    """Smallest 1-based position where the path attains its minimum.

    For a Lukasiewicz word this is n (the minimum -1 is only reached at the
    end), so the rotation below is the identity.
    """
    path = path_heights(word, alphabet)
    if path[-1:] != [-1]:
        total = path[-1] if path else 0
        raise NotAValidWordError(f"degree total {total} != -1, word is not valid")
    return path.index(min(path)) + 1


def to_lukasiewicz(word: Sequence[int], alphabet: TreeAlphabet) -> LukasiewiczWord:
    """The unique cyclic rotation of a valid word that is Lukasiewicz.

    With l = rotation_index(word), the result is w_{l+1} .. w_n w_1 .. w_l.
    Lukasiewicz inputs come back unchanged (l = n).
    """
    ell = rotation_index(word, alphabet)
    w = tuple(word)
    return LukasiewiczWord(w[ell:] + w[:ell])


def rotations_that_are_lukasiewicz(word: Sequence[int], alphabet: TreeAlphabet) -> int:
    """How many of the n cyclic rotations of the word are Lukasiewicz.

    Quadratic-time oracle used to check the cycle lemma (the answer is 1 for
    every valid word): it classifies every rotation instead of trusting the
    minimum that rotation_index picks.
    """
    w = tuple(word)
    n = len(w)
    hits = 0
    for shift in range(n):
        rotated = w[shift:] + w[:shift]
        if classify(rotated, alphabet) is Classification.LUKASIEWICZ:
            hits += 1
    return hits


def permutation_to_valid_word(
    sigma: Sequence[int], t: CountsLike, alphabet: TreeAlphabet
) -> tuple[int, ...]:
    """Fill a word from a permutation of 1..n by letter blocks.

    The first n_1 entries of sigma name the positions (1-based) that receive
    letter 0, the next n_2 entries the positions of letter 1, and so on.  The
    output is always a valid word, and each valid word of type t is produced
    by exactly prod_i n_i! permutations, so a uniform permutation gives a
    uniform valid word.

    sigma is checked here, before the fill: a wrong length, or an entry out
    of 1..n or repeated, is a NotAPermutationError that names it.  The
    permutation sampler fills through the unchecked core, _place_blocks, as
    its permutation comes from fisher_yates.
    """
    counts = f_valid_counts(t, alphabet)
    n = sum(counts)
    if len(sigma) != n:
        raise NotAPermutationError(
            f"expected a permutation of 1..{n}, got {len(sigma)} entries"
        )
    # n entries that cover 1..n are a permutation of it
    if not set(sigma).issuperset(range(1, n + 1)):
        # find the entry to name; only a sigma that is no permutation gets here
        left = set(range(1, n + 1))
        for p in sigma:
            if p not in left:
                raise NotAPermutationError(
                    f"expected a permutation of 1..{n}, got {p!r} out of range or repeated"
                )
            left.remove(p)
    return _place_blocks(sigma, counts)


def _place_blocks(sigma: Sequence[int], counts: Sequence[int]) -> tuple[int, ...]:
    """The block fill of permutation_to_valid_word, on a sigma known to be a
    permutation of 1..sum(counts): nothing is checked."""
    word = [0] * (len(sigma) + 1)  # slot p is position p; slot 0 is dropped
    pos = 0
    for letter, count in enumerate(counts):
        for p in sigma[pos : pos + count]:
            word[p] = letter
        pos += count
    del word[0]
    return tuple(word)
