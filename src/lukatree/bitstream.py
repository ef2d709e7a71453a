"""Fair-bit source with exact accounting, and the samplers built on raw bits.

Everything random in this package is driven by a :class:`BitSource`: a seeded
Mersenne Twister consumed one bit at a time.  ``bits_consumed`` goes up by
exactly one per bit and by nothing else, so the entropy cost of any composite
operation can be read off as a counter difference.
"""

from __future__ import annotations

import random

from .errors import DomainTooSmallError

__all__ = ["BitSource", "uniform_int", "fisher_yates"]

_MASK64 = (1 << 64) - 1
_SENTINEL = 1 << 64  # marks the top of a freshly fetched word


class BitSource:
    """Deterministic stream of fair bits, seeded from a 64-bit integer.

    Bits are taken from successive 64-bit words of ``random.Random(seed)``,
    least significant bit first.  ``next_bits(k)`` is exactly equivalent to k
    ``next_bit()`` calls with the first-drawn bit in the least significant
    position; it exists because the word buffer makes the bulk form much
    cheaper than k method calls.

    The unread bits of the current word sit below a leading 1 in ``_buf``,
    so ``_buf == 1`` means the buffer is empty and the count of unread bits
    is ``_buf.bit_length() - 1``.  ``bits_consumed`` is derived from that and
    the number of words fetched, so a bit costs one attribute write.
    """

    __slots__ = ("_rng", "_buf", "_words")

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed & _MASK64)
        self._buf = 1
        self._words = 0

    @property
    def bits_consumed(self) -> int:
        """Bits handed out so far."""
        return 64 * self._words - (self._buf.bit_length() - 1)

    def next_bit(self) -> int:
        """One fair bit, 0 or 1."""
        buf = self._buf
        if buf == 1:
            buf = self._rng.getrandbits(64) | _SENTINEL
            self._words += 1
        self._buf = buf >> 1
        return buf & 1

    def next_bits(self, count: int) -> int:
        """count fair bits as one integer, first-drawn bit least significant."""
        buf = self._buf
        avail = buf.bit_length() - 1
        if count <= avail:
            self._buf = buf >> count
            return buf & ((1 << count) - 1)
        # drain the buffer, then take whole fresh 64-bit words
        out = buf ^ (1 << avail)
        shift = avail
        remaining = count - avail
        getrandbits = self._rng.getrandbits
        words = 1
        while remaining > 64:
            out |= getrandbits(64) << shift
            shift += 64
            remaining -= 64
            words += 1
        buf = getrandbits(64) | _SENTINEL
        out |= (buf & ((1 << remaining) - 1)) << shift
        self._buf = buf >> remaining
        self._words += words
        return out


def uniform_int(source: BitSource, m: int) -> int:
    """Uniform integer in 0..m-1 by rejection on ceil(log2 m)-bit blocks.

    m = 1 consumes no bits.  Expected cost is b * 2^b / m bits with
    b = ceil(log2 m), e.g. exactly 1 bit for m = 2 and 8/3 bits on average
    for m = 3.
    """
    if m < 1:
        raise DomainTooSmallError(f"uniform_int needs m >= 1, got {m}")
    if m == 1:
        return 0
    b = (m - 1).bit_length()
    while True:
        v = source.next_bits(b)
        if v < m:
            return v


def fisher_yates(source: BitSource, n: int) -> list[int]:
    """Uniform permutation of 1..n, as a list.

    Classic swap-down shuffle: for i = n, n-1, .., 2 swap position i with a
    uniform position in 1..i.  Uses Theta(n log n) random bits through
    :func:`uniform_int`.
    """
    if n < 1:
        raise DomainTooSmallError(f"fisher_yates needs n >= 1, got {n}")
    perm = list(range(1, n + 1))
    for i in range(n, 1, -1):
        j = uniform_int(source, i)
        perm[i - 1], perm[j] = perm[j], perm[i - 1]
    return perm
