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
shuffle, build the valid word, rotate.
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
    "word_height",
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


def _steps(word: Sequence[int], alphabet: TreeAlphabet) -> list[int]:
    degrees = alphabet.degrees
    k = alphabet.k
    out = []
    for letter in word:
        if not 0 <= letter < k:
            raise ArityMismatchError(
                f"letter index {letter} outside alphabet of {k} letters"
            )
        out.append(degrees[letter])
    return out


def path_heights(word: Sequence[int], alphabet: TreeAlphabet) -> list[int]:
    """Prefix sums s_1..s_n of the letter degrees (the lattice path)."""
    return list(accumulate(_steps(word, alphabet)))


def word_height(word: Sequence[int], alphabet: TreeAlphabet) -> int:
    """Height of the tree of a Lukasiewicz word, read off its path alone.

    Node m of the preorder sits at depth H_m = #{j < m : s_j = min s_j..s_m}
    (the height process of the path s_0 = 0, s_1, ..).  No degree is below
    -1, so a leaf at level s_m closes exactly the nodes opened at that level,
    and a count of open nodes per level is all the state needed.
    :func:`lukatree.batch.batch_heights` runs the same recurrence on arrays.
    """
    steps = _steps(word, alphabet)
    opened: dict[int, int] = {}
    level = depth = best = 0
    for i, step in enumerate(steps):
        if level < 0:
            raise NotAValidWordError(
                f"tree complete after {i} letters but the word has {len(steps)}; "
                "not a Lukasiewicz word"
            )
        best = max(best, depth)
        if step >= 0:
            opened[level] = opened.get(level, 0) + 1
            depth += 1
        else:
            depth -= opened.pop(level, 0)
        level += step
    if level != -1:
        raise NotAValidWordError(f"degree total {level} != -1, word is not valid")
    return best


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
    """
    counts = f_valid_counts(t, alphabet)
    n = sum(counts)
    if len(sigma) != n:
        raise NotAPermutationError(
            f"expected a permutation of 1..{n}, got {len(sigma)} entries"
        )
    word = [-1] * n  # -1: position not filled yet
    pos = 0
    for letter, count in enumerate(counts):
        for p in sigma[pos : pos + count]:
            # p < 1 would wrap around the list and p > n would leave it
            if not 0 < p <= n or word[p - 1] != -1:
                raise NotAPermutationError(
                    f"expected a permutation of 1..{n}, got {p!r} out of range or repeated"
                )
            word[p - 1] = letter
        pos += count
    return tuple(word)
