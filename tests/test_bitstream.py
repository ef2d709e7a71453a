import itertools
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from conftest import Exhausted, ReplayBitSource, checkout_env, exact_distribution
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lukatree import (
    BitSource,
    DomainTooSmallError,
    fisher_yates,
    uniform_int,
)
from lukatree.bitstream import _draw_letters


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
    # after `offset` single bits, 1024 - offset digits of the first block
    # are unread; counts on both sides of that, across words, and on both
    # sides of a read that needs more than the one block a short read fetches
    for count in sorted({0, 1, 64, 129, 1024 - offset, 1025 - offset, 2048 - offset, 2049 - offset}):
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


class _TrickleSource(BitSource):
    """BitSource(seed)'s stream, handed over three bits per fetch: a fetch
    may hand over fewer bits than it was asked for."""

    def __init__(self, seed):
        super().__init__(seed)
        self._stream = _DefinedSource(seed)

    def _fetch(self, m):
        bits = self._stream.read(3)
        self._fetched += len(bits)
        return int("1" + "".join(map(str, reversed(bits))), 2)


def test_next_bits_fetches_until_it_holds_count_bits():
    # one fetch can hold fewer bits than a read needs: next_bits fetches
    # again until it holds them all, so a 5-bit replay cannot give 8 bits
    for count in (1, 3, 4, 8, 70):
        source = _TrickleSource(5)
        assert source.next_bits(count) == _DefinedSource(5).next_bits(count), count
        assert source.bits_consumed == count
    with pytest.raises(Exhausted):
        ReplayBitSource((1, 0, 1, 1, 0)).next_bits(8)


@pytest.mark.parametrize("seed", [0, 12345])
def test_a_long_read_fetches_once(seed):
    # beyond the unread digits, next_bits takes whole words in one _fetch
    source = _TalliedSource(seed)
    assert source.next_bits(10**5) == _DefinedSource(seed).next_bits(10**5)
    assert source.calls["_fetch"] == 1
    assert source.bits_consumed == source.tally == 10**5
    defined = _DefinedSource(seed)
    defined.read(10**5)
    assert source.next_bits(1000) == defined.next_bits(1000)
    # from inside a block, its unread digits are read before the one fetch,
    # and of that fetch only the bits past the read stay unread
    source = _TalliedSource(seed)
    source.next_bit()
    assert source.next_bits(10**5) == _DefinedSource(seed).next_bits(10**5 + 1) >> 1
    assert source.calls["_fetch"] == 2 and len(source._bits) == -(10**5 + 1) % 64


def test_next_bits_rejects_a_negative_count():
    source = BitSource(4)
    source.next_bits(21)
    bits, consumed = bytes(source._bits), source.bits_consumed
    with pytest.raises(DomainTooSmallError, match="-1"):
        source.next_bits(-1)
    assert (source._bits, source.bits_consumed) == (bits, consumed)
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


@pytest.mark.parametrize(
    "bits", [random.Random(5).getrandbits(1024), 0, 2**1024 - 1], ids=["random", "zeros", "ones"]
)
def test_a_block_is_its_bits_as_digits_next_bit_last(bits, monkeypatch):
    # the digits are the block's 1024 bits, its lowest (the next bit) last
    source = BitSource(0)
    monkeypatch.setattr(random.Random, "getrandbits", lambda rng, width: bits)
    digits = source._more()
    assert digits is source._bits
    assert digits == bytearray(b"01"[(bits >> i) & 1] for i in range(1023, -1, -1))
    assert source.bits_consumed == 0
    assert [source.next_bit() for _ in range(1024)] == [(bits >> i) & 1 for i in range(1024)]


@pytest.mark.parametrize("count", [1, 1019, 1020, 3000])
def test_more_puts_one_fetch_below_the_unread_digits(count):
    # after 5 bits, 1019 digits are unread; _more(count) adds the digits of
    # one fetch of whole words, 16 or as many as count unread need, in the
    # one buffer, and the stream reads on as defined
    source = _TalliedSource(9)
    source.next_bits(5)
    bits = source._bits
    assert source._more(count) is bits
    assert source.calls["_fetch"] == 2
    assert len(bits) == 1019 + 64 * max(-(-(count - 1019) // 64), 16) >= count
    assert source.bits_consumed == source.tally == 5
    assert source.next_bits(4000) == _DefinedSource(9).next_bits(4005) >> 5
    assert source._bits is bits


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


def test_next_bits_exact_distribution():
    # BitSource's own next_bits and _more under the oracle: k bits are
    # exactly uniform on 0..2^k - 1, and every run ends within k bits
    for k in range(1, 5):
        probs, residual = exact_distribution(lambda src: src.next_bits(k), max_depth=k)
        assert residual == 0
        assert probs == {v: Fraction(1, 2**k) for v in range(2**k)}


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
# where the slot a block is read from changes or fills: b = 9 is the first
# in a 16-bit slot, b = 16 the last, b = 17 the first in a 32-bit slot
@example(seed=1, skip=0, n=257)
@example(seed=1, skip=1, n=257)
@example(seed=1, skip=63, n=257)
@example(seed=1, skip=0, n=65536)
@example(seed=1, skip=1, n=65536)
@example(seed=1, skip=63, n=65536)
@example(seed=1, skip=0, n=65537)
@example(seed=1, skip=1, n=65537)
@example(seed=1, skip=63, n=65537)
# b = 8 at n = 192 is the longest run of positions read one block at a time,
# and at n = 193 the shortest read a chunk at a time
@example(seed=2, skip=0, n=192)
@example(seed=2, skip=63, n=192)
@example(seed=2, skip=0, n=193)
@example(seed=2, skip=63, n=193)
def test_shuffle_matches_the_reference_shuffle(seed, skip, n):
    # skip bits read first start the loop at every position of the buffer
    new, old = BitSource(seed), BitSource(seed)
    assert new.next_bits(skip) == old.next_bits(skip)
    assert fisher_yates(new, n) == _reference_fisher_yates(old, n)
    assert new.bits_consumed == old.bits_consumed
    assert new.next_bits(64) == old.next_bits(64)


@pytest.mark.parametrize("n", [300, 5000])
def test_shuffle_fetches_no_bit_before_a_block_needs_it(n):
    # a replay hands over its whole script on the first fetch and raises
    # Exhausted on the next, so a shuffle that fetched ahead of its blocks
    # would fail on exactly the bits a seeded shuffle read
    seeded = BitSource(29)
    perm = fisher_yates(seeded, n)
    script = tuple(_defined_stream(29, seeded.bits_consumed))
    replay = ReplayBitSource(script)
    assert fisher_yates(replay, n) == perm
    assert replay.bits_consumed == len(script)
    with pytest.raises(Exhausted):
        fisher_yates(ReplayBitSource(script[:-1]), n)


def test_import_builds_no_shuffle_masks():
    # the spreading masks are built per block width on first use, not at import
    probe = "import lukatree, lukatree.cli; print(lukatree.bitstream._slots.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=checkout_env()
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


class _TalliedSource(BitSource):
    """Counts the calls at the public bit interfaces and at `_fetch`, and the bits handed out.

    Public calls and the package's bulk loops alike take their bits from
    `_bits`, and bits enter only through `_fetch`, so the bits handed out are
    the bits fetched less the digits still unread.  `fetched` is summed from
    the returned blocks themselves, apart from BitSource's own `_fetched`
    counter.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = Counter()
        self.fetched = 0

    @property
    def tally(self):
        return self.fetched - len(self._bits)

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
    # included, and a fresh source that skips that many bits is in step;
    # every reader consumes and refills the one _bits buffer in place
    source = _TalliedSource(3)
    bits = source._bits
    fisher_yates(source, 500)
    uniform_int(source, 1000)
    source.next_bit()
    _draw_letters(source, [21, 7, 20], 48, 48)
    assert source.bits_consumed == source.tally and source._bits is bits
    fresh = BitSource(3)
    fresh.next_bits(source.bits_consumed)
    assert fresh.next_bits(64) == source.next_bits(64)


def _shuffle_fetches(seed, sizes):
    """Fetches of the shuffles of these sizes, in turn, over the defined stream.

    The rule: when a b-bit block is due for 0-based position i and fewer
    than b bits are unread, fetch 4 words if at most 64 positions draw
    b-bit blocks, else the words of the next chunk, which holds two blocks
    per position left at this b, at most 256.
    """
    source = _DefinedSource(seed)
    fetches = unread = 0
    for n in sizes:
        for i in range(n - 1, 0, -1):  # as uniform_int(source, i + 1)
            b = i.bit_length()
            low = 1 << b - 1
            while True:
                if unread < b:
                    if min(n, 2 * low) - low <= 64:
                        unread += 256
                    else:
                        unread += -(-min(256, 2 * (i - low + 1)) * b // 64) * 64
                    fetches += 1
                unread -= b
                if source.next_bits(b) <= i:
                    break
    return fetches


@pytest.mark.parametrize("op", ["fill", "shuffle"])
def test_bulk_loops_make_no_call_per_bit(op):
    # at n = 10001 the word fill and the shuffle read the buffer themselves;
    # from a fresh source the fill fetches 16 words (1024 bits) of digits,
    # and the shuffle a chunk's words or 4 words for its int, no earlier;
    # the small shuffles after it read on from what it left, one at 193 the
    # shortest run of positions cut a chunk at a time, one at 192 the longest
    # read one block at a time
    source = _TalliedSource(11)
    if op == "fill":
        _draw_letters(source, [3334, 3334, 3333], 10001, 10001)
        fetches = -(-source.bits_consumed // 1024)
    else:
        sizes = (10001,) + (193, 192, 6) * 20
        for n in sizes:
            fisher_yates(source, n)
        fetches = _shuffle_fetches(11, sizes)
    assert source.calls["next_bit"] == source.calls["next_bits"] == 0
    assert source.calls["_fetch"] == fetches
    assert source.tally == source.bits_consumed
