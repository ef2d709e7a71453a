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

    Bulk readers inside the package (the word fill and the shuffle) skip the
    method call per bit: they copy ``_buf`` into a local, read and shift it,
    call ``_refill()`` for the next chunk of bits, under its own leading 1,
    whenever they need a bit and the local is 1 (or fewer bits than they need
    are left: the fresh chunk then goes above the unread ones), and write the
    local back to ``_buf`` in a ``finally``.  ``_refill`` is the only place
    bits enter the buffer, so a reader that keeps to this protocol is counted
    by ``bits_consumed`` like the public calls.
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

    def _refill(self) -> int:
        """The next 64-bit word of the stream under a leading 1; counts it fetched."""
        self._words += 1
        return self._rng.getrandbits(64) | _SENTINEL

    def next_bit(self) -> int:
        """One fair bit, 0 or 1."""
        buf = self._buf
        if buf == 1:
            buf = self._refill()
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
        refill = self._refill
        while remaining > 64:
            out |= (refill() ^ _SENTINEL) << shift
            shift += 64
            remaining -= 64
        buf = refill()
        out |= (buf & ((1 << remaining) - 1)) << shift
        self._buf = buf >> remaining
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
    uniform position in 1..i.  Uses Theta(n log n) random bits.  Each
    position is :func:`uniform_int`'s rejection step, run on a local copy of
    the source's bit buffer (see :class:`BitSource`): a b-bit block is the
    low b unread bits, and when fewer than b are left, fresh chunks are
    spliced in above them, so the blocks, the positions and the bit count
    are those of ``uniform_int(source, i)`` for i = n, .., 2.
    """
    if n < 1:
        raise DomainTooSmallError(f"fisher_yates needs n >= 1, got {n}")
    perm = list(range(1, n + 1))
    buf = source._buf
    refill = source._refill
    try:
        # positions i in 2^(b-1)+1 .. 2^b all draw b-bit blocks
        for b in range((n - 1).bit_length(), 0, -1):
            top = 1 << b
            mask = top - 1
            for i in range(min(n, top), top >> 1, -1):
                while True:
                    while buf < top:  # fewer than b unread bits under the leading 1
                        avail = buf.bit_length() - 1
                        buf = buf ^ (1 << avail) | refill() << avail
                    j = buf & mask
                    buf >>= b
                    if j < i:
                        break
                perm[i - 1], perm[j] = perm[j], perm[i - 1]
    finally:
        source._buf = buf
    return perm
