import math

import pytest

from lukatree import (
    Classification,
    DegreeTuple,
    EmptySupportError,
    LimitExceededError,
    TupleNotValidError,
    chi_square_homogeneity,
    chi_square_uniformity,
    classify,
    enumerate_lukasiewicz,
    enumerate_valid_words,
    tutte_count,
    valid_word_count,
)
from lukatree.enumeration import _chi_square_p

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


def test_chi_square_frozen_statistic():
    # all mass on one of ten cells after 1000 draws
    result = chi_square_uniformity({"x": 1000}, 10)
    assert result.statistic == pytest.approx(9000.0)
    assert result.degrees == 9
    assert result.p_value < 1e-100


def test_chi_square_perfectly_uniform():
    result = chi_square_uniformity({i: 25 for i in range(8)}, 8)
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(1.0)


def test_chi_square_even_df_closed_form():
    # for df = 2m the upper tail is exp(-x/2) * sum_{j<m} (x/2)^j / j!
    cases = [
        ({"a": 30, "b": 30, "c": 60}, 3, 15.0, 2),
        ({"a": 10, "b": 20, "c": 30, "d": 20, "e": 20}, 5, 10.0, 4),
    ]
    for observed, support, stat, df in cases:
        result = chi_square_uniformity(observed, support)
        assert result.statistic == pytest.approx(stat)
        assert result.degrees == df
        m = df // 2
        half = stat / 2.0
        closed = math.exp(-half) * sum(half**j / math.factorial(j) for j in range(m))
        assert result.p_value == pytest.approx(closed, rel=1e-10)


def test_chi_square_odd_df_closed_form():
    # df = 1: erfc(sqrt(x/2)); df = 3: erfc(sqrt y) + 2 sqrt(y/pi) e^-y, y = x/2
    def df1(x):
        return math.erfc(math.sqrt(x / 2.0))

    def df3(x):
        y = x / 2.0
        return math.erfc(math.sqrt(y)) + 2.0 * math.sqrt(y / math.pi) * math.exp(-y)

    cases = [
        ({"a": 30, "b": 10}, 2, 10.0, 1, df1),
        ({"a": 10, "b": 20, "c": 30, "d": 20}, 4, 10.0, 3, df3),
    ]
    for observed, support, stat, df, closed in cases:
        result = chi_square_uniformity(observed, support)
        assert result.statistic == pytest.approx(stat)
        assert result.degrees == df
        assert result.p_value == pytest.approx(closed(result.statistic), rel=1e-10)
    for x in (1e-6, 0.3, 1.0, 2.5, 7.0, 30.0, 120.0):
        assert _chi_square_p(x, 1) == pytest.approx(df1(x), rel=1e-10)
        assert _chi_square_p(x, 3) == pytest.approx(df3(x), rel=1e-10)
    # a statistic of 0 gives exactly 1, for odd and even df alike
    odd = chi_square_uniformity({i: 25 for i in range(8)}, 8)
    even = chi_square_uniformity({i: 5 for i in range(3)}, 3)
    assert (odd.degrees, even.degrees) == (7, 2)
    assert odd.statistic == even.statistic == 0.0
    assert odd.p_value == 1.0 and even.p_value == 1.0


def test_chi_square_tail_matches_scipy():
    gammaincc = pytest.importorskip("scipy.special").gammaincc
    for df in (1, 2, 3, 4, 5, 9, 10, 99, 100, 1000, 4999, 5000):
        top = 3 * df + 50
        for step in range(201):
            x = top * step / 200
            reference = float(gammaincc(df / 2.0, x / 2.0))
            if reference > 1e-300:
                assert _chi_square_p(x, df) == pytest.approx(reference, rel=1e-10), (df, x)
    # around the mean of a huge df, where each term's log is a difference of
    # numbers near 10**8 unless it is taken in Stirling's form
    for df in (10**6, 10**7):
        for x in (0.99 * df, df, 1.01 * df):
            reference = float(gammaincc(df / 2.0, x / 2.0))
            assert _chi_square_p(x, df) == pytest.approx(reference, rel=1e-10), (df, x)


def test_chi_square_tail_on_a_huge_support():
    # df/2 = 5e8 closed-form terms; all but a few dozen are far below the
    # peak (and underflow), so the walk from the peak must stop early
    result = chi_square_uniformity({0: 3, 1: 2}, 10**9)
    assert result.degrees == 10**9 - 1
    assert result.p_value == 0.0
    # a statistic at its mean keeps the tail near one half (median < mean)
    assert 0.49 < _chi_square_p(10.0**9, 10**9) < 0.5


def test_chi_square_absent_cells_count():
    # 3 of 5 outcomes seen; the two absent cells contribute their expectation
    result = chi_square_uniformity({0: 10, 1: 10, 2: 30}, 5)
    expected = 50 / 5
    by_hand = 2 * (10 - expected) ** 2 / expected + (30 - expected) ** 2 / expected
    by_hand += 2 * expected
    assert result.statistic == pytest.approx(by_hand)


def test_chi_square_input_validation():
    with pytest.raises(EmptySupportError):
        chi_square_uniformity({0: 5}, 1)
    with pytest.raises(EmptySupportError):
        chi_square_uniformity({0: 1, 1: 1, 2: 1}, 2)
    with pytest.raises(EmptySupportError):
        chi_square_uniformity({}, 4)
    with pytest.raises(EmptySupportError):
        chi_square_uniformity({0: 3, 1: -1}, 4)


def test_homogeneity_identical_samples():
    counts = {0: 40, 1: 35, 2: 25}
    result = chi_square_homogeneity(counts, dict(counts))
    assert result.statistic == pytest.approx(0.0)
    assert result.degrees == 2
    assert result.p_value == pytest.approx(1.0)


def test_homogeneity_hand_computed():
    result = chi_square_homogeneity({0: 10, 1: 20}, {0: 20, 1: 10})
    assert result.statistic == pytest.approx(20 / 3)
    assert result.degrees == 1
    assert 0.0 < result.p_value < 0.05


def test_homogeneity_detects_disjoint_supports():
    result = chi_square_homogeneity({0: 50}, {1: 50})
    assert result.p_value < 1e-10


def test_homogeneity_input_validation():
    with pytest.raises(EmptySupportError):
        chi_square_homogeneity({0: 5}, {0: 7})
    with pytest.raises(EmptySupportError):
        chi_square_homogeneity({}, {0: 1, 1: 1})
