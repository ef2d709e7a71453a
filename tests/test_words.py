import itertools
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lukatree import (
    ArityMismatchError,
    Classification,
    NotAPermutationError,
    NotAValidWordError,
    TreeAlphabet,
    TupleNotValidError,
    classify,
    motzkin_tuple,
    path_heights,
    permutation_to_valid_word,
    rotation_index,
    rotations_that_are_lukasiewicz,
    to_lukasiewicz,
)
from lukatree.enumeration import enumerate_valid_words


# -- worked examples from the unary-binary path figures -----------------------


def test_path_heights_worked_examples(motzkin):
    assert path_heights(motzkin.parse_word("ccbabaa"), motzkin) == [1, 2, 2, 1, 1, 0, -1]
    assert path_heights(motzkin.parse_word("babacac"), motzkin) == [0, -1, -1, -2, -1, -2, -1]
    assert path_heights(motzkin.parse_word("babacca"), motzkin) == [0, -1, -1, -2, -1, 0, -1]
    assert path_heights(motzkin.parse_word("cacabaa"), motzkin) == [1, 0, 1, 0, 0, -1, -2]
    assert path_heights((), motzkin) == []


def test_classify_worked_examples(motzkin):
    assert classify(motzkin.parse_word("ccbabaa"), motzkin) is Classification.LUKASIEWICZ
    for word in ("babacac", "babacca"):
        assert (
            classify(motzkin.parse_word(word), motzkin)
            is Classification.VALID_NOT_LUKASIEWICZ
        )
    assert classify(motzkin.parse_word("cacabaa"), motzkin) is Classification.INVALID
    assert classify((), motzkin) is Classification.INVALID
    assert classify((0,), motzkin) is Classification.LUKASIEWICZ  # single leaf
    assert classify((1,), motzkin) is Classification.INVALID


def test_rotation_worked_example(motzkin):
    w = motzkin.parse_word("babacac")
    assert rotation_index(w, motzkin) == 4
    rotated = to_lukasiewicz(w, motzkin)
    assert motzkin.format_word(rotated) == "cacbaba"
    assert type(rotated) is tuple
    assert classify(rotated, motzkin) is Classification.LUKASIEWICZ
    # a Lukasiewicz word rotates to itself
    assert rotation_index(rotated, motzkin) == len(rotated)
    assert to_lukasiewicz(rotated, motzkin) == rotated
    with pytest.raises(NotAValidWordError):
        rotation_index(motzkin.parse_word("cacabaa"), motzkin)


@pytest.mark.parametrize("word", [(3,), (2, -1, 0), (0, 0, 7)])
def test_path_heights_rejects_letters_outside_the_alphabet(motzkin, word):
    with pytest.raises(ArityMismatchError):
        path_heights(word, motzkin)


def test_rotations_oracle_on_examples(motzkin):
    assert rotations_that_are_lukasiewicz(motzkin.parse_word("babacac"), motzkin) == 1
    assert rotations_that_are_lukasiewicz(motzkin.parse_word("ccbabaa"), motzkin) == 1
    # invalid words have no Lukasiewicz rotation at all
    assert rotations_that_are_lukasiewicz(motzkin.parse_word("cacabaa"), motzkin) == 0


def test_cycle_lemma_exhaustive_small(motzkin):
    # every valid word of every Motzkin tuple with n <= 7 has exactly one
    # Lukasiewicz rotation, and to_lukasiewicz finds that one
    checked = 0
    for n in range(1, 8):
        for u in range(n):
            if (n - u) % 2 == 0:
                continue
            t = motzkin_tuple(n, u)
            for word in enumerate_valid_words(t, motzkin):
                assert rotations_that_are_lukasiewicz(word, motzkin) == 1
                rotated = to_lukasiewicz(word, motzkin)
                assert classify(rotated, motzkin) is Classification.LUKASIEWICZ
                assert sorted(rotated) == sorted(word)
                checked += 1
    assert checked == sum(
        n * math.factorial(n - 1) // prod_factorials(motzkin_tuple(n, u).counts)
        for n in range(1, 8)
        for u in range(n)
        if (n - u) % 2 == 1
    )


def prod_factorials(counts):
    out = 1
    for c in counts:
        out *= math.factorial(c)
    return out


# -- permutation construction -------------------------------------------------


def test_permutation_to_valid_word_examples(binary):
    assert permutation_to_valid_word((1, 2, 3), (2, 1), binary) == (0, 0, 1)  # aac
    assert permutation_to_valid_word((3, 1, 2), (2, 1), binary) == (0, 1, 0)  # aca


def test_permutation_validation(motzkin, binary):
    with pytest.raises(NotAPermutationError):
        permutation_to_valid_word((1, 1, 3), (2, 1), binary)
    with pytest.raises(NotAPermutationError):
        permutation_to_valid_word((1, 2), (2, 1), binary)
    with pytest.raises(TupleNotValidError):
        permutation_to_valid_word((1, 2), (1, 1), binary)
    # entries outside 1..n, including the ones a list index would wrap
    for sigma in ((0, 1, 2), (-1, 1, 2), (1, 2, 4), (2, 3, -2), (3, 3, 1), (1, 2, 2)):
        with pytest.raises(NotAPermutationError):
            permutation_to_valid_word(sigma, (2, 1), binary)
    with pytest.raises(TupleNotValidError):
        permutation_to_valid_word((1, 2, 3), (1, 1, 1), motzkin)


@pytest.mark.parametrize(
    "sigma, named",
    [
        ((0, 1, 2, 3, 4), "got 0 "),
        ((1, 2, -1, 3, 4), "got -1 "),  # -1 and -n would index from the end
        ((1, 2, 3, 4, -5), "got -5 "),
        ((1, 6, 2, 3, 4), "got 6 "),
        ((1, 2, 3, 2, 5), "got 2 "),
        ((1, 2, 3, 4), "got 4 entries"),
        ((1, 2, 3, 4, 5, 6), "got 6 entries"),
    ],
    ids=["zero", "minus-one", "minus-n", "n-plus-one", "repeat", "short", "long"],
)
def test_permutation_rejections_name_the_entry_or_the_length(motzkin, sigma, named):
    with pytest.raises(NotAPermutationError, match=re.escape(named)):
        permutation_to_valid_word(sigma, (3, 0, 2), motzkin)


def test_permutation_fibers_are_uniform(motzkin):
    # all n! permutations, grouped by output word: every fiber has size
    # prod n_i! and every valid word of the tuple appears
    t = (2, 1, 1)
    n = 4
    fibers = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        word = permutation_to_valid_word(sigma, t, motzkin)
        fibers[word] = fibers.get(word, 0) + 1
    expected_words = set(enumerate_valid_words(t, motzkin))
    assert set(fibers) == expected_words
    assert set(fibers.values()) == {prod_factorials(t)}
    # output is always valid
    for word in fibers:
        assert classify(word, motzkin) is not Classification.INVALID


# -- properties over random alphabets and words -------------------------------


@st.composite
def alphabet_and_valid_word(draw):
    k = draw(st.integers(1, 4))
    extra = draw(st.lists(st.integers(-1, 2), min_size=k - 1, max_size=k - 1))
    degrees = tuple(sorted([-1] + extra))
    alphabet = TreeAlphabet(tuple("abcd"[:k]), degrees)
    # the count of the first (leaf) letter is forced by validity, so the
    # weighted degree sum is -1 by construction rather than by filtering
    rest = draw(st.lists(st.integers(0, 2), min_size=k - 1, max_size=k - 1))
    first = 1 + sum(c * d for c, d in zip(rest, degrees[1:]))
    assume(first >= 0)
    counts = (first, *rest)
    assume(1 <= sum(counts) <= 9)
    multiset = [i for i, c in enumerate(counts) for _ in range(c)]
    word = tuple(draw(st.permutations(multiset)))
    return alphabet, word


@settings(max_examples=60, deadline=None)
@given(alphabet_and_valid_word())
def test_cycle_lemma_property(pair):
    alphabet, word = pair
    assert classify(word, alphabet) is not Classification.INVALID
    assert rotations_that_are_lukasiewicz(word, alphabet) == 1
    rotated = to_lukasiewicz(word, alphabet)
    assert classify(rotated, alphabet) is Classification.LUKASIEWICZ
    assert sorted(rotated) == sorted(word)
    heights = path_heights(rotated, alphabet)
    assert heights[-1] == -1
    assert all(h >= 0 for h in heights[:-1])
