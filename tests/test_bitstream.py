import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from conftest import exact_distribution
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lukatree import (
    BitSource,
    DomainTooSmallError,
    fisher_yates,
    motzkin_alphabet,
    tuple_to_valid_word,
    uniform_int,
)
from lukatree.bitstream import _cut


def test_determinism_and_bit_values():
    a = BitSource(12345)
    b = BitSource(12345)
    bits = [a.next_bit() for _ in range(1000)]
    assert bits == [b.next_bit() for _ in range(1000)]
    assert set(bits) <= {0, 1}
    assert a.bits_consumed == 1000
    assert BitSource(1).next_bit() == BitSource(1).next_bits(1)


class _DefinedSource:
    """The stream by definition, read off a list with no buffer: a test oracle.

    `bits` lists the LSB-first bits of successive 64-bit words of
    random.Random(seed mod 2^64), extended as far as reads need.
    """

    def __init__(self, seed):
        self._rng = random.Random(seed & (2**64 - 1))
        self.bits = []
        self.bits_consumed = 0

    def read(self, count):
        pos = self.bits_consumed
        while len(self.bits) < pos + count:
            word = self._rng.getrandbits(64)
            self.bits.extend((word >> i) & 1 for i in range(64))
        self.bits_consumed = pos + count
        return self.bits[pos : pos + count]

    def next_bit(self):
        (bit,) = self.read(1)
        return bit

    def next_bits(self, count):
        return sum(bit << i for i, bit in enumerate(self.read(count)))


def _defined_stream(seed, count):
    """The first count bits of BitSource(seed) by definition: LSB-first 64-bit words."""
    return _DefinedSource(seed).read(count)


@pytest.mark.parametrize("seed", [0, 12345, -1, 2**64 + 5])
def test_stream_is_the_lsb_first_expansion_of_the_rng_words(seed):
    # ("bit", m) is m next_bit() calls, ("bits", c) one next_bits(c); the
    # steps cross word boundaries from an empty, a partial and a full buffer
    steps = [
        ("bits", 0), ("bit", 1), ("bits", 63), ("bits", 64), ("bit", 3),
        ("bits", 65), ("bits", 0), ("bits", 129), ("bit", 70), ("bits", 1),
        ("bits", 63), ("bit", 1), ("bits", 129), ("bits", 64), ("bit", 64),
    ]
    expected = _defined_stream(seed, sum(count for _, count in steps))
    source = BitSource(seed)
    pos = 0
    for kind, count in steps:
        if kind == "bit":
            bits = [source.next_bit() for _ in range(count)]
        else:
            value = source.next_bits(count)
            assert value >> count == 0
            bits = [(value >> j) & 1 for j in range(count)]
        assert bits == expected[pos : pos + count], (seed, kind, count, pos)
        pos += count
        assert source.bits_consumed == pos


def test_seeds_differ():
    a = [BitSource(0).next_bits(64), BitSource(1).next_bits(64), BitSource(2).next_bits(64)]
    assert len(set(a)) == 3


def test_next_bits_equals_next_bit_composition():
    # LSB-first composition, across word-buffer boundaries
    for count in (1, 7, 13, 64, 65, 128, 200):
        a = BitSource(99)
        b = BitSource(99)
        bulk = a.next_bits(count)
        single = 0
        for i in range(count):
            single |= b.next_bit() << i
        assert bulk == single
        assert a.bits_consumed == b.bits_consumed == count
        # the two sources remain in lockstep afterwards
        assert a.next_bits(32) == b.next_bits(32)


@pytest.mark.parametrize("offset", [0, 3, 15, 63])
def test_next_bits_from_inside_the_buffer(offset):
    # after `offset` single bits the buffer holds what is left of a 16-bit
    # chunk (nothing when offset is a multiple of 16); counts on both sides
    # of that, across words, and across the 1024-bit refill of the queue
    left = -offset % 16
    for count in sorted({0, 1, left, left + 1, 64, 129, 1024 - offset, 1025 - offset}):
        a = BitSource(7)
        b = BitSource(7)
        for _ in range(offset):
            assert a.next_bit() == b.next_bit()
        bulk = a.next_bits(count)
        single = 0
        for i in range(count):
            single |= b.next_bit() << i
        assert bulk == single, (offset, count)
        assert a.bits_consumed == b.bits_consumed == offset + count
        assert [a.next_bit() for _ in range(70)] == [b.next_bit() for _ in range(70)]


def test_next_bits_rejects_a_negative_count():
    source = BitSource(4)
    source.next_bits(21)
    buf, queue, consumed = source._buf, list(source._queue), source.bits_consumed
    with pytest.raises(DomainTooSmallError, match="-1"):
        source.next_bits(-1)
    assert (source._buf, source._queue, source.bits_consumed) == (buf, queue, consumed)
    assert source.next_bits(64) == BitSource(4).next_bits(85) >> 21


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_a_wide_getrandbits_is_the_words_in_order(seed):
    # _fetch(m) rests on this: getrandbits(64 * m) gives m getrandbits(64)
    # words, first word lowest, and leaves the generator in the same state
    for m in (1, 2, 4, 16):
        wide, narrow = random.Random(seed), random.Random(seed)
        block = wide.getrandbits(64 * m)
        assert block == sum(narrow.getrandbits(64) << 64 * i for i in range(m))
        assert wide.getstate() == narrow.getstate()


def test_cut_gives_the_same_chunks_in_either_byte_order():
    # each 16-bit chunk under its own leading 1, last chunk first; a host of
    # the other byte order reads each chunk's 4 bytes the other way round
    block = random.Random(5).getrandbits(1024) | 1 << 1024
    want = [(block >> 16 * i) & 0xFFFF | 1 << 16 for i in range(63, -1, -1)]
    native = sys.byteorder
    other = "big" if native == "little" else "little"
    assert _cut(block, native) == want
    cast = _cut(block, other)
    assert [int.from_bytes(c.to_bytes(4, native), other) for c in cast] == want


def test_empirical_bit_mean():
    source = BitSource(2024)
    ones = sum(source.next_bits(64).bit_count() for _ in range(1_000_000 // 64 + 1))
    mean = ones / source.bits_consumed
    assert 0.497 <= mean <= 0.503


def test_uniform_int_edge_cases():
    source = BitSource(5)
    assert uniform_int(source, 1) == 0
    assert source.bits_consumed == 0
    v = uniform_int(source, 2)
    assert source.bits_consumed == 1 and v in (0, 1)
    with pytest.raises(DomainTooSmallError):
        uniform_int(source, 0)


def test_uniform_int_exact_distribution():
    # run the real implementation over every bit string; the law must be
    # exactly uniform up to the truncated rejection mass (< 1e-4)
    for m in range(1, 9):
        b = (m - 1).bit_length()
        if m == 1:
            rounds = 1
        else:
            reject = Fraction(2**b - m, 2**b)
            rounds = 1
            while reject**rounds > Fraction(1, 10_000):
                rounds += 1
        probs, residual = exact_distribution(
            lambda src: uniform_int(src, m), max_depth=b * rounds
        )
        assert residual <= Fraction(1, 10_000)
        assert set(probs) == set(range(m))
        for v in range(m):
            assert abs(probs[v] - Fraction(1, m)) <= residual


def test_uniform_int_expected_bits_m3():
    # 8/3 bits on average: 2-bit blocks, acceptance probability 3/4
    source = BitSource(31337)
    reps = 200_000
    before = source.bits_consumed
    for _ in range(reps):
        uniform_int(source, 3)
    mean = (source.bits_consumed - before) / reps
    assert abs(mean - 8 / 3) < 0.02


def test_fisher_yates_basics():
    source = BitSource(0)
    assert fisher_yates(source, 1) == [1]
    assert source.bits_consumed == 0
    perm = fisher_yates(source, 2)
    assert sorted(perm) == [1, 2] and source.bits_consumed == 1
    with pytest.raises(DomainTooSmallError):
        fisher_yates(source, 0)


@pytest.mark.parametrize("n", [3, 4])
def test_fisher_yates_law_is_exact(n):
    # uniform_int accepts or rejects a block without regard to its value, so
    # the n! masses are equal at every depth, not only in the limit
    probs, residual = exact_distribution(lambda src: tuple(fisher_yates(src, n)), max_depth=14)
    assert set(probs) == set(itertools.permutations(range(1, n + 1)))
    assert len(set(probs.values())) == 1
    assert residual < Fraction(1, 1000)


def test_fisher_yates_mean_bits_n4():
    # uniform_int costs: i=4 -> 2 bits, i=3 -> 8/3 expected, i=2 -> 1 bit
    source = BitSource(777)
    reps = 50_000
    before = source.bits_consumed
    for _ in range(reps):
        fisher_yates(source, 4)
    mean = (source.bits_consumed - before) / reps
    assert abs(mean - 17 / 3) < 0.03


def test_fisher_yates_nlogn_bit_growth():
    costs = {}
    for n in (1024, 2048):
        source = BitSource(1)
        fisher_yates(source, n)
        costs[n] = source.bits_consumed
    # Theta(n log n): doubling n from 2^10 multiplies the cost by ~2 * 11/10
    ratio = costs[2048] / costs[1024]
    assert abs(ratio - 2.2) <= 0.22


def _reference_fisher_yates(source, n):
    """The shuffle as first written: one uniform_int call per position.

    Kept as a test oracle for the local-buffer loop, which must give the same
    permutation after reading the same bits.
    """
    perm = list(range(1, n + 1))
    for i in range(n, 1, -1):
        j = uniform_int(source, i)
        perm[i - 1], perm[j] = perm[j], perm[i - 1]
    return perm


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-(2**64), 2**64),
    skip=st.integers(0, 129),
    n=st.integers(1, 600),
)
@example(seed=0, skip=0, n=600)  # the loop starts on an empty buffer
@example(seed=0, skip=1, n=600)  # on 63 unread bits, the most there can be
@example(seed=0, skip=64, n=600)
@example(seed=0, skip=63, n=3)  # on one unread bit, short of a 2-bit block
def test_shuffle_matches_the_reference_shuffle(seed, skip, n):
    # skip bits read first start the loop at every position of the buffer
    new, old = BitSource(seed), BitSource(seed)
    assert new.next_bits(skip) == old.next_bits(skip)
    assert fisher_yates(new, n) == _reference_fisher_yates(old, n)
    assert new.bits_consumed == old.bits_consumed
    assert new.next_bits(64) == old.next_bits(64)


class _TalliedSource(BitSource):
    """Counts the calls at the public bit interfaces and at `_fetch`, and the bits handed out.

    Public calls and the package's bulk loops alike take their bits from
    `_buf` or `_queue`, and bits enter only through `_fetch`, so the bits
    handed out are the bits fetched less the bits still queued or unread.
    `fetched` is summed from the returned blocks themselves, and the queued
    bits from the chunks in `_queue`, apart from BitSource's own `_words`
    and `_queued` counters.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = Counter()
        self.fetched = 0

    @property
    def tally(self):
        queued = sum(chunk.bit_length() - 1 for chunk in self._queue)
        return self.fetched - queued - (self._buf.bit_length() - 1)

    def _fetch(self, m):
        self.calls["_fetch"] += 1
        block = super()._fetch(m)
        self.fetched += block.bit_length() - 1
        return block

    def next_bit(self):
        self.calls["next_bit"] += 1
        return super().next_bit()

    def next_bits(self, count):
        self.calls["next_bits"] += 1
        return super().next_bits(count)


def test_no_hidden_entropy():
    # bits_consumed must equal the bits actually handed out, composite ops
    # included, and a fresh source that skips that many bits is in step
    source = _TalliedSource(3)
    fisher_yates(source, 500)
    uniform_int(source, 1000)
    source.next_bit()
    tuple_to_valid_word(source, (21, 7, 20), motzkin_alphabet())
    assert source.bits_consumed == source.tally
    fresh = BitSource(3)
    fresh.next_bits(source.bits_consumed)
    assert fresh.next_bits(64) == source.next_bits(64)


@pytest.mark.parametrize("op", ["fill", "shuffle"])
def test_bulk_loops_make_no_call_per_bit(op):
    # at n = 10001 the word fill and the shuffle read the buffer themselves;
    # from a fresh source the fill fetches 16 words (1024 bits) for its
    # queue and the shuffle 4 words (256 bits) for its buffer, no earlier
    source = _TalliedSource(11)
    if op == "fill":
        tuple_to_valid_word(source, (3334, 3334, 3333), motzkin_alphabet())
        per_fetch = 1024
    else:
        fisher_yates(source, 10001)
        per_fetch = 256
    assert source.calls["next_bit"] == source.calls["next_bits"] == 0
    assert source.calls["_fetch"] == -(-source.bits_consumed // per_fetch)
    assert source.tally == source.bits_consumed
