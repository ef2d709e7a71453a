import math

import pytest

from lukatree import (
    Classification,
    DegreeTuple,
    LimitExceededError,
    TupleNotValidError,
    classify,
    enumerate_lukasiewicz,
    enumerate_valid_words,
    parse_alphabet,
    tutte_count,
    valid_word_count,
)

MOTZKIN_NUMBERS = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798)  # n = 1..12
CATALAN_NUMBERS = (1, 1, 2, 5, 14, 42, 132)  # binary internal nodes b = 0..6


def test_frozen_counts(motzkin, binary):
    assert valid_word_count((2, 1, 1), motzkin) == 12
    assert tutte_count((2, 1, 1), motzkin) == 3
    assert valid_word_count((3, 2, 2), motzkin) == 210
    assert tutte_count((3, 2, 2), motzkin) == 30
    assert valid_word_count((2, 1), binary) == 3
    assert tutte_count((2, 1), binary) == 1
    assert valid_word_count((3, 2), binary) == 10
    assert tutte_count((3, 2), binary) == 2


def test_counts_reject_non_valid_tuples(motzkin, binary):
    with pytest.raises(TupleNotValidError):
        valid_word_count((2, 2), binary)
    with pytest.raises(TupleNotValidError):
        tutte_count((0, 1), binary)
    with pytest.raises(TupleNotValidError):
        valid_word_count((0, 0, 0), motzkin)


def _motzkin_tuples(n):
    # f-validity forces (leaves, unary, binary) = (c + 1, n - 1 - 2c, c)
    for c in range((n - 1) // 2 + 1):
        yield DegreeTuple((c + 1, n - 1 - 2 * c, c))


def test_word_count_is_n_times_tree_count(motzkin, binary):
    for n in range(1, 11):
        for t in _motzkin_tuples(n):
            assert valid_word_count(t, motzkin) == n * tutte_count(t, motzkin)
    for b in range(7):
        t = DegreeTuple((b + 1, b))
        assert valid_word_count(t, binary) == (2 * b + 1) * tutte_count(t, binary)


def test_enumeration_matches_formulas(motzkin):
    for n in range(1, 9):
        for t in _motzkin_tuples(n):
            words = enumerate_valid_words(t, motzkin)
            lukas = enumerate_lukasiewicz(t, motzkin)
            assert len(words) == valid_word_count(t, motzkin)
            assert len(lukas) == tutte_count(t, motzkin)
            assert len(set(words)) == len(words)


def test_enumeration_order_and_frozen_lists(binary):
    assert enumerate_valid_words((2, 1), binary) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert enumerate_lukasiewicz((2, 1), binary) == [(1, 0, 0)]
    words = enumerate_valid_words((3, 2), binary)
    assert words == sorted(words)
    lukas = enumerate_lukasiewicz((3, 2), binary)
    assert lukas == sorted(lukas)


def test_pruned_enumeration_agrees_with_filtering(motzkin):
    # two independent routes to the same set: prefix-pruned backtracking vs
    # classifying every arrangement of the multiset
    for t in ((2, 1, 1), (3, 0, 2), (4, 1, 3)):
        by_pruning = enumerate_lukasiewicz(t, motzkin)
        by_filtering = [
            w
            for w in enumerate_valid_words(t, motzkin)
            if classify(w, motzkin) is Classification.LUKASIEWICZ
        ]
        assert [tuple(w) for w in by_pruning] == by_filtering


def test_enumeration_limit(motzkin):
    big = DegreeTuple((7, 0, 6))  # total 13
    with pytest.raises(LimitExceededError):
        enumerate_lukasiewicz(big, motzkin)
    with pytest.raises(LimitExceededError):
        enumerate_valid_words(big, motzkin)
    assert len(enumerate_lukasiewicz(big, motzkin, limit=13)) == tutte_count(big, motzkin)


def test_motzkin_sequence(motzkin):
    # trees with n nodes correspond to lattice paths of length n - 1
    for n, expected in enumerate(MOTZKIN_NUMBERS, start=1):
        assert sum(tutte_count(t, motzkin) for t in _motzkin_tuples(n)) == expected
        if n <= 10:
            total = sum(len(enumerate_lukasiewicz(t, motzkin)) for t in _motzkin_tuples(n))
            assert total == expected


def test_catalan_sequence(binary):
    for b, expected in enumerate(CATALAN_NUMBERS):
        t = DegreeTuple((b + 1, b))
        assert tutte_count(t, binary) == expected
        assert math.comb(2 * b, b) // (b + 1) == expected
        assert len(enumerate_lukasiewicz(t, binary, limit=13)) == expected


def test_deep_enumeration_does_not_recurse():
    # one tree of 1,501 letters, and 1,101 valid words of 1,101 letters:
    # both deeper than the interpreter's default recursion limit
    alphabet = parse_alphabet("a:-1,b:0")
    assert enumerate_lukasiewicz((1, 1500), alphabet, limit=2000) == [(1,) * 1500 + (0,)]
    words = enumerate_valid_words((1, 1100), alphabet, limit=2000)
    assert words == [(1,) * i + (0,) + (1,) * (1100 - i) for i in range(1101)]
