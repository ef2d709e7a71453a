import itertools
from fractions import Fraction

import pytest
from conftest import exact_distribution

from lukatree import BitSource, DomainTooSmallError, chi_square_uniformity, fisher_yates, uniform_int


def test_determinism_and_bit_values():
    a = BitSource(12345)
    b = BitSource(12345)
    bits = [a.next_bit() for _ in range(1000)]
    assert bits == [b.next_bit() for _ in range(1000)]
    assert set(bits) <= {0, 1}
    assert a.bits_consumed == 1000
    assert BitSource(1).next_bit() == BitSource(1).next_bits(1)


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


@pytest.mark.parametrize("offset", [0, 3, 63])
def test_next_bits_from_inside_the_buffer(offset):
    # after `offset` single bits the 64-bit word buffer holds 64 - offset bits
    # (none when offset is 0); counts on both sides of that, and multi-word
    left = (64 - offset) % 64
    for count in sorted({0, 1, left, left + 1, 64, 129}):
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


def test_fisher_yates_uniform_over_s3():
    source = BitSource(424242)
    counts = {}
    for _ in range(60_000):
        key = tuple(fisher_yates(source, 3))
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == set(itertools.permutations((1, 2, 3)))
    result = chi_square_uniformity(counts, 6)
    assert result.degrees == 5
    assert result.p_value > 0.001


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


class _TalliedSource(BitSource):
    """Counts what the public bit interface hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.tally = 0

    def next_bit(self):
        self.tally += 1
        return super().next_bit()

    def next_bits(self, count):
        self.tally += count
        return super().next_bits(count)


def test_no_hidden_entropy():
    # bits_consumed must equal the bits actually handed out, composite ops included
    source = _TalliedSource(3)
    fisher_yates(source, 500)
    uniform_int(source, 1000)
    assert source.bits_consumed == source.tally
