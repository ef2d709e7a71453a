import math
import mmap
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import ScriptedGenerator, exact_distribution
from lukatree import (
    METHODS,
    ArityMismatchError,
    Classification,
    DomainTooSmallError,
    LimitExceededError,
    LukatreeError,
    NotAValidWordError,
    TreeAlphabet,
    classify,
    enumerate_lukasiewicz,
    enumerate_valid_words,
    height,
    motzkin_alphabet,
    motzkin_tuple,
    nearest_feasible_unary,
    parse_alphabet,
    sample_lukasiewicz_word,
    to_lukasiewicz,
    word_to_tree,
)
from lukatree.batch import batch_heights, batch_rotate, batch_valid_words


def rows_to_heights(rows, alphabet):
    return [height(word_to_tree(tuple(int(x) for x in row), alphabet)) for row in rows]


def test_rows_are_arrangements_of_the_multiset(motzkin):
    counts = (3, 1, 2)
    for method in ("dichotomic", "permutation"):
        rng = np.random.default_rng(7)
        words = batch_valid_words(rng, counts, 300, method)
        assert words.shape == (300, 6) and words.dtype == np.int8
        for letter, want in enumerate(counts):
            assert np.all((words == letter).sum(axis=1) == want)


def test_batch_valid_words_rejects_junk():
    rng = np.random.default_rng(0)
    with pytest.raises(LukatreeError, match="unknown method 'bogus'"):
        batch_valid_words(rng, (2, 1), 5, "bogus")
    with pytest.raises(DomainTooSmallError):
        batch_valid_words(rng, (0, 0), 5)
    with pytest.raises(LimitExceededError, match="got 128"):
        batch_valid_words(rng, (1,) * 128, 5)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("counts", [(2, -1), (3, -1, 1), (-1, 0, 2)], ids=str)
def test_batch_valid_words_rejects_negative_counts(counts, method):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    letter = min(i for i, c in enumerate(counts) if c < 0)
    with pytest.raises(ArityMismatchError, match=f"letter {letter} has negative count -1$"):
        batch_valid_words(rng, counts, 3, method)
    assert rng.bit_generator.state == state


def _reference_valid_words(rng, counts, reps, method="dichotomic"):
    """batch_valid_words as first written: row-major, one column per position.

    Kept as a test oracle for the position-major loop, which must make the
    same generator calls and return the same words.
    """
    k = len(counts)
    n = sum(counts)
    if method == "permutation":
        base = np.repeat(np.arange(k, dtype=np.int8), counts)
        words = np.tile(base, (reps, 1))
        rng.permuted(words, axis=1, out=words)
        return words
    bounds = np.tile(np.cumsum(counts[:-1], dtype=np.int64), (reps, 1))
    words = np.empty((reps, n), dtype=np.int8)
    for pos in range(n):
        v = rng.integers(0, n - pos, size=reps)
        above = v[:, None] >= bounds
        words[:, pos] = above.sum(axis=1)
        bounds -= ~above
    return words


def _reference_rotate(words, degrees):
    """batch_rotate as first written: argmin of the cumsummed int32 path."""
    reps, n = words.shape
    path = np.asarray(degrees, dtype=np.int32)[words]
    np.cumsum(path, axis=1, out=path)
    ell = np.argmin(path, axis=1) + 1
    windows = sliding_window_view(np.concatenate((words, words), axis=1), n, axis=1)
    return windows[np.arange(reps), ell]


def _reference_heights(words, degrees):
    """batch_heights as first written: the whole (n, reps) path up front."""
    reps, n = words.shape
    path = np.asarray(degrees, dtype=np.int32)[np.ascontiguousarray(words.T)]
    grow = path >= 0
    np.cumsum(path, axis=0, out=path)
    width = int(path.max(initial=0)) + 1
    opened = np.zeros(reps * width, dtype=np.int32)
    base = np.arange(reps) * width
    cell = base.copy()
    depth = np.zeros(reps, dtype=np.int32)
    best = np.zeros(reps, dtype=np.int32)
    for pos in range(n):
        np.maximum(best, depth, out=best)
        here = opened[cell]
        now = here + 1
        now *= grow[pos]
        depth += now
        depth -= here
        opened[cell] = now
        np.add(base, path[pos], out=cell)
    return best


LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "every-other-row": lambda words: words[::2],
}


@pytest.mark.parametrize("reps", [0, 1, 5, 2049])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "alphabet,counts",
    [
        ("a:-1,b:0,c:1", (3, 1, 2)),
        ("a:-1,b:0,c:1", (12, 7, 11)),
        ("a:-1,b:0,c:1", (2, 0, 1)),
        ("a:-1", (1,)),
        ("a:-1,b:0,c:1,d:2,e:4", (16, 4, 3, 2, 2)),
    ],
    ids=["motzkin-312", "motzkin-30", "motzkin-201", "leaf", "abcde"],
)
def test_engine_matches_the_row_major_reference(alphabet, counts, method, reps):
    degrees = parse_alphabet(alphabet).degrees
    words = batch_valid_words(np.random.default_rng(reps), counts, reps, method)
    want = _reference_valid_words(np.random.default_rng(reps), counts, reps, method)
    assert words.dtype == np.int8 and words.shape == (reps, sum(counts))
    assert np.array_equal(words, want)
    rotated = _reference_rotate(want, degrees)
    for name, layout in LAYOUTS.items():
        got = batch_rotate(layout(words), degrees)
        assert got.dtype == np.int8, name
        assert np.array_equal(got, _reference_rotate(layout(want), degrees)), name
        heights = batch_heights(layout(rotated), degrees)
        assert heights.dtype == np.int32, name
        want_heights = _reference_heights(layout(rotated), degrees)
        assert np.array_equal(heights, want_heights), name
        walked = batch_heights(layout(words), degrees)
        assert walked.dtype == np.int32, name
        assert np.array_equal(walked, want_heights), name


def test_one_chunk_stays_small():
    # words, rotation and heights of one height-scan chunk at n = 1000: the
    # int8 words and their rotation, 2 MB each, live in mappings of their own
    # that tracemalloc does not see; the rest is per-row vectors and the
    # counts by level, and no (n, reps) array wider than int8 may come back
    counts = motzkin_tuple(1000, nearest_feasible_unary(1000, 900)).counts
    degrees = motzkin_alphabet().degrees
    rng = np.random.default_rng(9)
    tracemalloc.start()
    try:
        words = batch_valid_words(rng, counts, 2048)
        rotated = batch_rotate(words, degrees)
        batch_heights(rotated, degrees)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words.dtype == rotated.dtype == np.int8
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_word_arrays_live_in_their_own_mappings():
    # from the malloc heap, freed 2 MB chunks stayed resident wherever the
    # allocator had put them, and a scan's peak memory varied between runs
    def storage(a):
        while isinstance(a, np.ndarray):
            a = a.base
        return a.obj  # np.frombuffer keeps a memoryview of its buffer

    degrees = motzkin_alphabet().degrees
    for method in ("dichotomic", "permutation"):
        words = batch_valid_words(np.random.default_rng(3), (3, 1, 2), 5, method)
        assert isinstance(storage(words), mmap.mmap), method
        assert isinstance(storage(batch_rotate(words, degrees)), mmap.mmap), method


@pytest.mark.parametrize("u", [900, 500, 0])
def test_rotated_heights_allocate_under_1_mib(u):
    # the walk of one height-scan chunk at n = 1000, 2048 position-major rows:
    # no rotated copy of the 2 MB words, only per-row vectors and the counts
    # by level, which the widest paths (u = 0) need most of
    counts = motzkin_tuple(1000, nearest_feasible_unary(1000, u)).counts
    degrees = motzkin_alphabet().degrees
    words = batch_valid_words(np.random.default_rng(9), counts, 2048)
    assert words.T.flags.c_contiguous
    tracemalloc.start()
    try:
        batch_heights(words, degrees)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_rotation_matches_scalar_reference(motzkin):
    for method in ("dichotomic", "permutation"):
        rng = np.random.default_rng(11)
        words = batch_valid_words(rng, (3, 1, 2), 200, method)
        rotated = batch_rotate(words, motzkin.degrees)
        for raw, rot in zip(words, rotated):
            expected = to_lukasiewicz(tuple(int(x) for x in raw), motzkin)
            assert tuple(int(x) for x in rot) == tuple(expected)


def test_heights_match_scalar_reference(motzkin):
    rng = np.random.default_rng(23)
    words = batch_rotate(batch_valid_words(rng, (4, 3, 3), 200), motzkin.degrees)
    got = batch_heights(words, motzkin.degrees)
    for row, h in zip(words, got):
        word = tuple(int(x) for x in row)
        assert classify(word, motzkin) is Classification.LUKASIEWICZ
        assert int(h) == height(word_to_tree(word, motzkin))


def test_heights_match_tree_height_exhaustively(motzkin):
    # every Motzkin tree with at most 10 nodes
    for n in range(1, 11):
        words = [
            word
            for u in range(n)
            if (n - u) % 2 == 1
            for word in enumerate_lukasiewicz(motzkin_tuple(n, u), motzkin)
        ]
        rows = np.array(words, dtype=np.int8)
        expected = [height(word_to_tree(word, motzkin)) for word in words]
        assert batch_heights(rows, motzkin.degrees).tolist() == expected


def test_wide_arity_alphabet_matches_scalar():
    ternary = TreeAlphabet(("a", "t"), (-1, 2))
    rng = np.random.default_rng(3)
    words = batch_valid_words(rng, (7, 3), 150)
    rotated = batch_rotate(words, ternary.degrees)
    got = batch_heights(rotated, ternary.degrees)
    for raw, rot, h in zip(words, rotated, got):
        expected = to_lukasiewicz(tuple(int(x) for x in raw), ternary)
        assert tuple(int(x) for x in rot) == tuple(expected)
        assert int(h) == height(word_to_tree(expected, ternary))


@pytest.mark.parametrize(
    "rows,bad,why",
    [
        ([[2, 0, 0], [2, 1, 0]], 1, "ends at level 0"),  # cba leaves a slot unfilled
        ([[2, 0, 0], [2, 2, 2], [0, 2, 0]], 1, "ends at level 3"),
    ],
)
def test_heights_reject_rows_that_are_not_lukasiewicz(motzkin, rows, bad, why):
    words = np.array(rows, dtype=np.int8)
    with pytest.raises(NotAValidWordError, match=f"row {bad} .*{why}"):
        batch_heights(words, motzkin.degrees)


@pytest.mark.parametrize(
    "rows,bad,level",
    [
        ([[2, 0, 0], [2, 1, 0]], 1, 0),  # cba leaves a slot unfilled
        ([[0, 0, 0], [2, 2, 2]], 0, -3),
        ([[0, 2, 0], [2, 2, 2], [0, 0, 0]], 1, 3),  # row 0 is a rotation of caa
        ([[2, 0, 0], [2, 2, 2], [0, 2, 0]], 1, 3),  # row 0 is caa itself
    ],
)
@pytest.mark.parametrize("measure", [batch_rotate, batch_heights])
def test_rotated_heights_reject_rows_that_do_not_end_at_minus_1(motzkin, rows, bad, level, measure):
    words = np.array(rows, dtype=np.int8)
    with pytest.raises(NotAValidWordError, match=f"^row {bad} .*ends at level {level}, not -1$"):
        measure(words, motzkin.degrees)


@pytest.mark.parametrize("letter", [-1, 3])
@pytest.mark.parametrize("measure", [batch_rotate, batch_heights])
def test_rotated_heights_reject_letters_outside_the_alphabet(motzkin, letter, measure):
    # -1 would wrap round the degree table to c, the last letter; 3 is past it
    words = np.array([[2, 0, 0], [letter, 0, 0], [0, letter, 0]], dtype=np.int8)
    with pytest.raises(ArityMismatchError, match="^row 1 has a letter outside the alphabet"):
        measure(words, motzkin.degrees)


def test_rotated_heights_take_any_rotation_of_a_valid_word(motzkin):
    # every rotation of a valid word ends at -1, so the walk measures its
    # Lukasiewicz rotation, caa, whichever rotation it is given
    words = np.array([[0, 2, 0], [0, 0, 2], [2, 0, 0]], dtype=np.int8)
    assert batch_heights(words, motzkin.degrees).tolist() == [1, 1, 1]


def test_heights_of_every_rotation_of_every_small_valid_word():
    # every valid word is a rotation of a Lukasiewicz word of its multiset:
    # all Motzkin words with n <= 8 and all (-1, 2) words with n <= 10
    cases = [
        (motzkin_alphabet(), motzkin_tuple(n, u).counts)
        for n in range(1, 9)
        for u in range(n)
        if (n - u) % 2 == 1
    ]
    ternary = TreeAlphabet(("a", "t"), (-1, 2))
    cases += [(ternary, (2 * j + 1, j)) for j in range(4)]
    for alphabet, counts in cases:
        words = enumerate_valid_words(counts, alphabet)
        luka = [to_lukasiewicz(w, alphabet) for w in words]
        want = [height(word_to_tree(w, alphabet)) for w in luka]
        rows = np.array(words, dtype=np.int8)
        assert batch_rotate(rows, alphabet.degrees).tolist() == [list(w) for w in luka], counts
        assert batch_heights(rows, alphabet.degrees).tolist() == want, counts


@pytest.mark.parametrize("measure", [batch_rotate, batch_heights])
def test_levels_beyond_int32_are_rejected_before_the_walk(measure):
    # the walk packs level * 2^32 + pos + 1 into int64: a level that leaves
    # int32 would wrap into the position bits and pick the wrong rotation
    with pytest.raises(LimitExceededError, match="length 2 with a degree of 4294967295"):
        measure(np.array([[0, 1]], dtype=np.int8), (-1, 2**32 - 1))
    with pytest.raises(LimitExceededError, match="length 1 with a degree of 2147483648"):
        measure(np.array([[1]], dtype=np.int8), (-1, 2**31))
    # n times the widest degree just below 2^31 still walks
    want = [[0]] if measure is batch_rotate else [0]
    assert measure(np.array([[0]], dtype=np.int8), (-1, 2**31 - 1)).tolist() == want


def test_height_edge_rows(motzkin):
    single = np.zeros((1, 1), dtype=np.int8)
    assert batch_heights(single, motzkin.degrees).tolist() == [0]
    assert batch_heights(np.zeros((3, 1), dtype=np.int8), (-1, 4)).tolist() == [0] * 3
    caterpillar = np.array([[1] * 120 + [0]], dtype=np.int8)
    assert batch_heights(caterpillar, motzkin.degrees).tolist() == [120]
    bushy = np.array([[2, 0, 2, 1, 0, 1, 0]], dtype=np.int8)  # cacbaba
    assert batch_heights(bushy, motzkin.degrees).tolist() == [3]
    # combs of 200 binary nodes: left (path climbs to 200) and right (zigzag)
    combs = np.array([[2] * 200 + [0] * 201, [2, 0] * 200 + [0]], dtype=np.int8)
    assert batch_heights(combs, motzkin.degrees).tolist() == [200, 200]
    assert rows_to_heights(combs, motzkin) == [200, 200]


def scripted_rows(counts, method):
    """batch_valid_words over every outcome of its generator calls: n! rows."""
    rng = ScriptedGenerator(sum(counts))
    return batch_valid_words(rng, counts, rng.reps, method)


def tally(rows):
    return Counter(map(tuple, rows.tolist()))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "alphabet,counts",
    [
        ("a:-1,b:0,c:1", (2, 1, 1)),
        ("a:-1,b:0,c:1", (3, 1, 2)),
        ("a:-1,b:0,c:1,d:2", (4, 1, 1, 1)),
        ("a:-1,b:0,c:1,d:2", (4, 0, 1, 1)),
    ],
    ids=["motzkin-211", "motzkin-312", "abcd-4111", "abcd-4011"],
)
def test_batch_law_is_exact(alphabet, counts, method):
    # the n! rows see every outcome of the generator calls once, so a uniform
    # law puts each valid word on exactly prod n_i! rows, and after rotation
    # each Lukasiewicz word on n times as many
    alphabet = parse_alphabet(alphabet)
    repeats = math.prod(map(math.factorial, counts))
    words = scripted_rows(counts, method)
    support = enumerate_valid_words(counts, alphabet)
    assert tally(words) == Counter(dict.fromkeys(support, repeats))
    rotated = batch_rotate(words, alphabet.degrees)
    lukas = map(tuple, enumerate_lukasiewicz(counts, alphabet))
    assert tally(rotated) == Counter(dict.fromkeys(lukas, sum(counts) * repeats))
    assert batch_heights(rotated, alphabet.degrees).tolist() == rows_to_heights(rotated, alphabet)


def test_batch_law_agrees_with_scalar_pipelines(motzkin):
    # the batch engine's law, exact from its n! scripted rows, is the scalar
    # pipelines' law, exact up to the oracle's residual
    t = (2, 1, 1)
    reps = math.factorial(sum(t))
    for method in METHODS:
        rows = tally(batch_rotate(scripted_rows(t, method), motzkin.degrees))
        scalar, residual = exact_distribution(
            lambda src: tuple(sample_lukasiewicz_word(src, t, motzkin, method)),
            max_depth=30,
        )
        assert residual < Fraction(1, 10**6)
        assert set(rows) == set(scalar)
        for word, mass in scalar.items():
            assert abs(Fraction(rows[word], reps) - mass) <= residual


# Rows of batch_valid_words(default_rng(1), (9, 3, 2, 2), 6, method), one
# digit per letter index.  Same seed, same words: a faster fill must still
# consume the numpy stream exactly this way.
PINNED_WORDS = {
    "dichotomic": [
        "0200203013000101",
        "0320000030110021",
        "2003030001001120",
        "3001200010021003",
        "0312000000123100",
        "0010002313020100",
    ],
    "permutation": [
        "0201300001021003",
        "0200001210100330",
        "1102301003000200",
        "0011000003002312",
        "2210003001030010",
        "2100330002100100",
    ],
}


@pytest.mark.parametrize("method", sorted(PINNED_WORDS))
def test_batch_valid_words_pinned_rows(method):
    words = batch_valid_words(np.random.default_rng(1), (9, 3, 2, 2), 6, method)
    assert ["".join(map(str, row)) for row in words.tolist()] == PINNED_WORDS[method]


def test_numpy_generator_streams_are_the_recorded_ones():
    # the batch words, and so the pinned rows and height-scan CSVs, are
    # functions of these two Generator streams, recorded on numpy 2.4.6; a
    # numpy that draws them differently fails here, naming the primitive
    draws = np.random.default_rng([7, 0]).integers(0, 1000, size=2048)
    got = (draws[:8].tolist(), int(draws.sum()))
    assert got == ([944, 625, 684, 897, 578, 775, 833, 225], 1038457), (
        f"Generator.integers stream changed under numpy {np.__version__}: {got}"
    )
    words = np.tile(np.arange(8, dtype=np.int8), (4, 1))
    np.random.default_rng([7, 0]).permuted(words, axis=1, out=words)
    got = ["".join(map(str, row)) for row in words.tolist()]
    assert got == ["06724513", "73620415", "34520716", "64735120"], (
        f"Generator.permuted stream changed under numpy {np.__version__}: {got}"
    )


def test_heights_beyond_int8_arity():
    # arity 200: a root with 200 leaf children, whose path reaches n - 2, and
    # a spine of 50 such nodes, each the first child of the one before
    star = TreeAlphabet(("a", "b"), (-1, 199))
    fan = np.array([[1] + [0] * 200], dtype=np.int8)
    assert batch_heights(fan, star.degrees).tolist() == [1]
    spine = np.array([[1] * 50 + [0] * (50 * 199 + 1)], dtype=np.int8)
    assert batch_heights(spine, star.degrees).tolist() == [50]
    assert rows_to_heights(fan, star) + rows_to_heights(spine, star) == [1, 50]
    rng = np.random.default_rng(2)
    words = batch_valid_words(rng, (399, 2), 40)
    rows = batch_rotate(words, star.degrees)
    assert batch_heights(rows, star.degrees).tolist() == rows_to_heights(rows, star)
    assert batch_heights(words, star.degrees).tolist() == rows_to_heights(rows, star)


def test_heights_four_letter_alphabet_row_by_row():
    alphabet = TreeAlphabet(("a", "b", "c", "d"), (-1, 0, 1, 3))
    for counts, reps in (((9, 3, 2, 2), 300), ((61, 10, 12, 16), 60)):
        rng = np.random.default_rng(counts[0])
        words = batch_valid_words(rng, counts, reps)
        rows = batch_rotate(words, alphabet.degrees)
        got = batch_heights(rows, alphabet.degrees)
        assert got.dtype == np.int32
        assert got.tolist() == rows_to_heights(rows, alphabet)
        assert batch_heights(words, alphabet.degrees).tolist() == got.tolist()
