import math
import sys
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lukatree
from conftest import Exhausted, ReplayBitSource, exact_distribution
from test_bitstream import _DefinedSource, _defined_stream, _reference_fisher_yates
from lukatree import samplers, words
from lukatree.bitstream import _draw_letters
from lukatree import (
    METHODS,
    ArityMismatchError,
    BitSource,
    DegreeTuple,
    DiscreteWeights,
    DomainTooSmallError,
    LimitExceededError,
    LukatreeError,
    TreeAlphabet,
    TupleNotValidError,
    dichotomic_draw,
    enumerate_lukasiewicz,
    fisher_yates,
    enumerate_valid_words,
    mean_cost_closed_form,
    parse_alphabet,
    permutation_to_valid_word,
    sample_lukasiewicz_word,
    sample_tree,
    serialize,
    to_lukasiewicz,
    uniform_int,
)


def test_discrete_weights_basics():
    w = DiscreteWeights((3, 0, 2))
    assert w.weights == (3, 0, 2)
    w.decrement(0)
    assert w.weights == (2, 0, 2)


def test_the_pool_changes_only_by_decrement():
    # the draw trusts the pool's total, so nothing else may change the pool
    pool = DiscreteWeights((1, 1))
    with pytest.raises(TypeError):
        pool.weights[0] = 1
    with pytest.raises(AttributeError):
        pool.weights = ()
    pool.decrement(1)
    source = BitSource(0)
    assert [dichotomic_draw(source, pool) for _ in range(64)] == [0] * 64
    assert source.bits_consumed == 0


def test_discrete_weights_validation():
    with pytest.raises(DomainTooSmallError):
        DiscreteWeights(())
    with pytest.raises(DomainTooSmallError):
        DiscreteWeights((1, -1))
    with pytest.raises(DomainTooSmallError):
        DiscreteWeights((0, 0))
    w = DiscreteWeights((1, 0))
    with pytest.raises(DomainTooSmallError):
        w.decrement(1)


@pytest.mark.parametrize("index", [-1, -3, 3])
def test_decrement_rejects_an_index_outside_the_weights(index):
    w = DiscreteWeights((2, 1, 1))
    with pytest.raises(ArityMismatchError, match=str(index)):
        w.decrement(index)
    assert w.weights == (2, 1, 1)


def _reference_draw(source, weights):
    """The dichotomic draw as first written: search the segments at every depth.

    Kept as a test oracle for the room-tracking loop, which must return the
    same index after reading the same bits.
    """
    cum = [0]
    for w in weights.weights:
        cum.append(cum[-1] + w)
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


@settings(max_examples=300, deadline=None)
@given(
    ws=st.lists(
        st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 125_000)),
        min_size=1,
        max_size=8,
    ).filter(lambda v: sum(v) > 0),
    seed=st.integers(-(2**64), 2**64),
    draws=st.integers(1, 20),
)
def test_draw_matches_the_reference_draw(ws, seed, draws):
    new, old = BitSource(seed), BitSource(seed)
    weights = DiscreteWeights(ws)
    for _ in range(draws):
        assert dichotomic_draw(new, weights) == _reference_draw(old, weights)
        assert new.bits_consumed == old.bits_consumed
    assert new.next_bits(64) == old.next_bits(64)


def _fill(source, counts):
    """The dichotomic word fill of sample_lukasiewicz_word, before the rotation."""
    n = sum(counts)
    return tuple(_draw_letters(source, list(counts), n, n))


def _reference_fill(source, counts):
    """The word fill as the reference draw and decrement, letter by letter."""
    pool = DiscreteWeights(counts)
    letters = []
    for _ in range(sum(counts)):
        letter = _reference_draw(source, pool)
        pool.decrement(letter)
        letters.append(letter)
    return tuple(letters)


@settings(max_examples=60, deadline=None)
@given(
    unary=st.integers(0, 40),
    binary_nodes=st.integers(0, 40),
    seed=st.integers(0, 2**64),
    skip=st.integers(0, 129),
)
@example(unary=40, binary_nodes=40, seed=0, skip=0)  # the loop starts on an empty buffer
@example(unary=40, binary_nodes=40, seed=0, skip=1)  # on 63 unread bits, the most there can be
@example(unary=40, binary_nodes=40, seed=0, skip=63)
def test_word_fill_is_the_draw_and_decrement_composition(unary, binary_nodes, seed, skip):
    # the letter-by-letter replay the benchmark times must give the same word,
    # and so must the reference draw; skip bits read first start the loop at
    # every position of the buffer
    counts = (binary_nodes + 1, unary, binary_nodes)
    fill, replay, reference = BitSource(seed), BitSource(seed), BitSource(seed)
    for source in (fill, replay, reference):
        source.next_bits(skip)
    word = _fill(fill, counts)
    pool = DiscreteWeights(counts)
    letters = []
    for _ in range(sum(counts)):
        letter = dichotomic_draw(replay, pool)
        pool.decrement(letter)
        letters.append(letter)
    assert word == tuple(letters) == _reference_fill(reference, counts)
    assert fill.bits_consumed == replay.bits_consumed == reference.bits_consumed
    assert fill.next_bits(64) == replay.next_bits(64) == reference.next_bits(64)


def test_fill_next_bit_and_shuffle_interleave_on_one_source():
    counts = (13, 5, 12)
    new, old = BitSource(21), BitSource(21)
    for _ in range(3):
        assert _fill(new, counts) == _reference_fill(old, counts)
        assert new.next_bit() == old.next_bit()
        assert fisher_yates(new, 77) == _reference_fisher_yates(old, 77)
        assert new.bits_consumed == old.bits_consumed
    assert new.next_bits(64) == old.next_bits(64)


# One read by one of the six readers: ("next_bit", run length), ("next_bits",
# count), ("uniform_int", m), ("draw", weights), ("shuffle", n) or ("fill",
# Motzkin counts).
_READS = st.one_of(
    st.tuples(st.just("next_bit"), st.integers(1, 40)),
    st.tuples(st.just("next_bits"), st.integers(0, 1000)),
    st.tuples(st.just("uniform_int"), st.integers(1, 2**40)),
    st.tuples(
        st.just("draw"),
        st.lists(st.integers(0, 50), min_size=1, max_size=6).filter(lambda v: sum(v) > 0),
    ),
    st.tuples(st.just("shuffle"), st.one_of(st.integers(1, 70), st.integers(70, 5000))),
    st.tuples(
        st.just("fill"),
        st.tuples(st.integers(0, 150), st.integers(0, 150)).map(lambda uc: (uc[1] + 1, uc[0], uc[1])),
    ),
)


def _read(source, defined, kind, arg):
    """The value one read gives from source, and from the defined stream by the oracles."""
    if kind == "next_bit":
        return [source.next_bit() for _ in range(arg)], defined.read(arg)
    if kind == "next_bits":
        return source.next_bits(arg), defined.next_bits(arg)
    if kind == "uniform_int":
        return uniform_int(source, arg), uniform_int(defined, arg)
    if kind == "draw":
        return dichotomic_draw(source, DiscreteWeights(arg)), _reference_draw(defined, DiscreteWeights(arg))
    if kind == "shuffle":
        return fisher_yates(source, arg), _reference_fisher_yates(defined, arg)
    return _fill(source, arg), _reference_fill(defined, arg)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(st.integers(-(2**64), -1), st.integers(0, 2**64 - 1), st.integers(2**64, 2**66)),
    reads=st.lists(_READS, max_size=7),
)
@example(seed=-1, reads=[("next_bits", 1000), ("shuffle", 5000), ("next_bit", 3), ("fill", (101, 50, 100))])
@example(seed=2**64 + 3, reads=[("next_bit", 5), ("fill", (3, 40, 2)), ("shuffle", 4000), ("draw", [1, 2])])
# next_bits(c) with c the 24 unread digits, then a fill that starts on the
# emptied digits; and next_bits(c) with c one more than the unread digits
@example(seed=5, reads=[("next_bits", 1000), ("next_bits", 24), ("fill", (101, 50, 100))])
@example(seed=5, reads=[("next_bits", 1000), ("next_bits", 25), ("draw", [1, 2])])
def test_stream_is_the_same_under_any_mix_of_readers(seed, reads):
    # every reader takes the defined stream's next bits in order, whatever
    # came before it: the unread digits and the unfetched words stay in
    # stream order across block refills, shuffle splices and batch ends
    source, defined = BitSource(seed), _DefinedSource(seed)
    for kind, arg in reads:
        got, want = _read(source, defined, kind, arg)
        assert got == want, (kind, arg)
        assert source.bits_consumed == defined.bits_consumed, (kind, arg)
    assert [source.next_bit() for _ in range(70)] == defined.read(70)


_ONE_OF_EACH = (
    lambda source: _fill(source, (21, 7, 20)),
    lambda source: fisher_yates(source, 300),
    lambda source: dichotomic_draw(source, DiscreteWeights((3, 1, 2))),
    lambda source: source.next_bits(70),
    lambda source: source.next_bit(),
)


@pytest.mark.parametrize("seed", [0, 99, 2**64 + 7])
def test_the_replay_oracle_reads_as_the_source_does(seed):
    # exact_distribution's ReplayBitSource, given the bits BitSource(seed)
    # spends on a run of reads, gives the same results and bit count, and
    # one bit fewer raises Exhausted: whichever reader ends the run, the
    # oracle reads no bit the source does not
    reads = _ONE_OF_EACH * 2
    for end in range(1, len(reads) + 1):
        source = BitSource(seed)
        want = [read(source) for read in reads[:end]]
        script = tuple(_defined_stream(seed, source.bits_consumed))
        replay = ReplayBitSource(script)
        assert [read(replay) for read in reads[:end]] == want
        assert replay.bits_consumed == source.bits_consumed
        short = ReplayBitSource(script[:-1])
        with pytest.raises(Exhausted):
            for read in reads[:end]:
                read(short)


def test_one_letter_word_costs_nothing():
    source = BitSource(8)
    assert _fill(source, (1,)) == (0,)
    assert source.bits_consumed == 0
    assert source.next_bits(64) == BitSource(8).next_bits(64)


def test_draw_from_an_exhausted_pool_is_a_domain_error():
    w = DiscreteWeights((1, 0))
    w.decrement(0)
    source = BitSource(0)
    with pytest.raises(DomainTooSmallError):
        dichotomic_draw(source, w)
    assert source.bits_consumed == 0


def test_draws_that_cost_nothing():
    source = BitSource(0)
    assert dichotomic_draw(source, DiscreteWeights((5,))) == 0
    assert dichotomic_draw(source, DiscreteWeights((0, 2))) == 1
    assert dichotomic_draw(source, DiscreteWeights((0, 0, 4, 0))) == 2
    assert source.bits_consumed == 0


def test_even_split_costs_one_bit():
    source = BitSource(9)
    for _ in range(100):
        before = source.bits_consumed
        idx = dichotomic_draw(source, DiscreteWeights((1, 1)))
        assert idx in (0, 1)
        assert source.bits_consumed - before == 1


def test_zero_weight_is_never_drawn():
    source = BitSource(4)
    weights = DiscreteWeights((0, 3, 1, 0))
    seen = {dichotomic_draw(source, weights) for _ in range(2000)}
    assert seen == {1, 2}


def _all_weight_vectors(max_k, max_total):
    def rec(prefix, k_left, total_left):
        if k_left == 0:
            if sum(prefix) > 0:
                yield tuple(prefix)
            return
        for w in range(total_left + 1):
            yield from rec(prefix + [w], k_left - 1, total_left - w)

    for k in range(1, max_k + 1):
        yield from rec([], k, max_total)


def test_dichotomic_law_is_exact():
    # run the draw over every bit string to depth 25 and recover its output
    # law as exact rationals; it must match w_i / total up to the residual
    for ws in _all_weight_vectors(max_k=4, max_total=6):
        weights = DiscreteWeights(ws)
        probs, residual = exact_distribution(
            lambda src: dichotomic_draw(src, DiscreteWeights(ws)), max_depth=25
        )
        assert residual < Fraction(1, 10**6)
        total = sum(ws)
        for i, w in enumerate(ws):
            assert abs(probs.get(i, Fraction(0)) - Fraction(w, total)) <= residual


def test_three_way_even_split_mean_cost():
    # boundaries 1/3 and 2/3 leave two straddling cells at every depth, so the
    # mean is exactly 1 + sum_d 2/2^d = 3 bits
    source = BitSource(5)
    weights = DiscreteWeights((1, 1, 1))
    draws = 100_000
    for _ in range(draws):
        dichotomic_draw(source, weights)
    assert abs(source.bits_consumed / draws - 3.0) < 0.03


@pytest.mark.parametrize(
    "alphabet,t",
    [
        ("a:-1,c:1", (2, 1)),
        ("a:-1,b:0,c:1", (2, 1, 1)),
        # a zero count leaves an empty segment the draw has to step over
        ("a:-1,b:0,c:1", (2, 0, 1)),
        ("a:-1,b:0,c:1,d:2", (3, 0, 0, 1)),
    ],
    ids=["binary-21", "motzkin-211", "motzkin-201", "abcd-3001"],
)
def test_word_fill_law_is_exact(alphabet, t):
    alphabet = parse_alphabet(alphabet)
    probs, residual = exact_distribution(
        lambda src: _fill(src, t), max_depth=40
    )
    assert residual < Fraction(1, 10**6)
    support = set(enumerate_valid_words(t, alphabet))
    assert set(probs) == support
    for word in support:
        assert abs(probs[word] - Fraction(1, len(support))) <= residual


def test_word_sampler_bit_budget(motzkin):
    # linear entropy cost: below n * (2 + log2 k) bits per word on average
    source = BitSource(13)
    t = DegreeTuple((3, 1, 2))
    reps = 2000
    before = source.bits_consumed
    for _ in range(reps):
        sample_lukasiewicz_word(source, t, motzkin, method="dichotomic")
    mean = (source.bits_consumed - before) / reps
    assert mean <= 6 * (2 + math.log2(3))


def test_sample_tree_properties(motzkin):
    t = DegreeTuple((3, 2, 2))
    for method in ("dichotomic", "permutation"):
        source = BitSource(99)
        tree = sample_tree(source, t, motzkin, method=method)
        assert tuple(tree.letters.count(i) for i in range(motzkin.k)) == t.counts
        again = sample_tree(BitSource(99), t, motzkin, method=method)
        assert tree.letters == again.letters and tree.children == again.children
    with pytest.raises(LukatreeError, match="unknown method 'bogus'"):
        sample_tree(BitSource(0), t, motzkin, method="bogus")


def test_sample_tree_singleton(motzkin):
    source = BitSource(0)
    tree = sample_tree(source, (1, 0, 0), motzkin)
    assert serialize(tree, "paren") == "a"
    assert source.bits_consumed == 0


@pytest.mark.parametrize("t", [(0, 0, 0), (3, 0, 0), (1, 0, 1)])
def test_both_pipelines_check_the_tuple_before_drawing(motzkin, t):
    errors = []
    for method in ("dichotomic", "permutation"):
        source = BitSource(5)
        with pytest.raises(TupleNotValidError) as caught:
            sample_lukasiewicz_word(source, t, motzkin, method=method)
        assert source.bits_consumed == 0, method
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("method", METHODS)
def test_a_total_no_list_can_hold_is_rejected_before_drawing(method):
    half = sys.maxsize // 2 + 1  # n = 2 * half + 1 > sys.maxsize
    source = BitSource(5)
    with pytest.raises(LimitExceededError, match=str(2 * half + 1)):
        sample_lukasiewicz_word(source, (half + 1, half), parse_alphabet("a:-1,c:1"), method)
    assert source.bits_consumed == 0


@st.composite
def alphabet_and_tuple(draw):
    """Up to 5 letters, degrees repeated or not, and an f-valid tuple with zeros."""
    k = draw(st.integers(1, 5))
    extra = draw(st.lists(st.integers(-1, 2), min_size=k - 1, max_size=k - 1))
    degrees = tuple(sorted([-1] + extra))
    rest = draw(st.lists(st.integers(0, 3), min_size=k - 1, max_size=k - 1))
    first = 1 + sum(c * d for c, d in zip(rest, degrees[1:]))  # forced by validity
    assume(first >= 0)
    return TreeAlphabet(tuple("abcde"[:k]), degrees), (first, *rest)


@settings(max_examples=200, deadline=None)
@given(pair=alphabet_and_tuple(), seed=st.integers(-(2**64), 2**64), skip=st.integers(0, 129))
def test_permutation_sampler_is_the_public_composition(pair, seed, skip):
    # the sampler's unchecked fill gives what the public, checking calls give
    alphabet, counts = pair
    sampler, composed = BitSource(seed), BitSource(seed)
    assert sampler.next_bits(skip) == composed.next_bits(skip)
    word = sample_lukasiewicz_word(sampler, counts, alphabet, "permutation")
    sigma = fisher_yates(composed, sum(counts))
    assert word == to_lukasiewicz(permutation_to_valid_word(sigma, counts, alphabet), alphabet)
    assert sampler.bits_consumed == composed.bits_consumed


def test_permutation_sampler_does_not_recheck_its_shuffle(monkeypatch, motzkin):
    def refuse(*args):
        raise AssertionError("the sampler called the checking fill")

    for module in (words, samplers, lukatree):
        monkeypatch.setattr(module, "permutation_to_valid_word", refuse, raising=False)
    word = sample_lukasiewicz_word(BitSource(3), (40, 21, 39), motzkin, "permutation")
    assert tuple(word.count(i) for i in range(3)) == (40, 21, 39)


def test_pipelines_agree_in_law(motzkin):
    # both laws are exactly uniform on the 3 trees: the permutation pipeline's
    # masses are equal at every depth, the dichotomic one's up to the residual
    t = (2, 1, 1)
    support = {tuple(w) for w in enumerate_lukasiewicz(t, motzkin)}
    for method in METHODS:
        probs, residual = exact_distribution(
            lambda src: tuple(sample_lukasiewicz_word(src, t, motzkin, method)),
            max_depth=30,
        )
        assert residual < Fraction(1, 10**6)
        assert set(probs) == support
        for mass in probs.values():
            assert abs(mass - Fraction(1, len(support))) <= residual
        if method == "permutation":
            assert len(set(probs.values())) == 1


def test_mean_cost_closed_form_values():
    assert mean_cost_closed_form(2) == Fraction(3)
    assert mean_cost_closed_form(3) == Fraction(7, 2)
    assert mean_cost_closed_form(4) == Fraction(4)
    assert mean_cost_closed_form(5) == Fraction(17, 4)
    assert mean_cost_closed_form(8) == Fraction(5)
    with pytest.raises(DomainTooSmallError):
        mean_cost_closed_form(1)


def test_mean_cost_closed_form_bound():
    for k in range(2, 4097):
        assert float(mean_cost_closed_form(k)) <= 2 + math.log2(k) + 1e-9


@settings(max_examples=80, deadline=None)
@given(
    ws=st.lists(st.integers(0, 6), min_size=1, max_size=5).filter(lambda v: sum(v) > 0),
    seed=st.integers(0, 2**32),
)
def test_draw_lands_on_positive_weight(ws, seed):
    idx = dichotomic_draw(BitSource(seed), DiscreteWeights(ws))
    assert ws[idx] > 0


@settings(max_examples=60, deadline=None)
@given(
    ws=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    picks=st.lists(st.integers(0, 4), max_size=8),
)
def test_decrement_takes_one_off_the_picked_weight(ws, picks):
    weights = DiscreteWeights(ws)
    expected = list(ws)
    for pick in picks:
        index = pick % len(ws)
        if expected[index] == 0:
            with pytest.raises(DomainTooSmallError):
                weights.decrement(index)
        else:
            weights.decrement(index)
            expected[index] -= 1
        assert weights.weights == tuple(expected)
