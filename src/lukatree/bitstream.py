"""Fair-bit source with exact accounting, and the samplers built on raw bits.

Everything random in this package is driven by a :class:`BitSource`: the
LSB-first bits of a seeded Mersenne Twister's successive 64-bit words.  The
bits are fetched in bulk and handed out from a chunked buffer, but
``bits_consumed`` goes up by exactly one per bit handed out and by nothing
else, so the entropy cost of any composite operation can be read off as a
counter difference.
"""

from __future__ import annotations

import random
import sys

from .errors import DomainTooSmallError

__all__ = ["BitSource", "uniform_int", "fisher_yates"]

_MASK64 = (1 << 64) - 1

# Chunk widths, each the one its reader runs fastest on in CPython.  A bit
# read from an int below 2^30 (one internal digit) is cheaper than one read
# from a 64-bit word (three digits), so the queue that next_bit and the word
# fill read holds 16-bit chunks under their leading 1.  It is refilled 16
# words at a time, cut in C (to_bytes, slices into a bytearray and a
# memoryview cast): cutting fewer words per fetch, or wider chunks, made the
# fill slower.  The shuffle reads b-bit blocks and splices fresh bits above
# its unread ones, which copies the whole buffer, so it splices 4 words
# (256 bits) at a time.
_CHUNK_BITS = 16
_QUEUE_WORDS = 16
_SHUFFLE_WORDS = 4
_CHUNK_ONES = b"\x01" * (64 * _QUEUE_WORDS // _CHUNK_BITS)  # the leading 1 of each chunk


def _cut(block: int, byteorder: str) -> list[int]:
    """A fetched block's 16-bit chunks, each under a leading 1, last chunk first.

    block holds 64 * _QUEUE_WORDS bits under its leading 1.  Each chunk
    becomes the 4-byte unsigned int ``chunk | 1 << 16``, laid out in
    byteorder, the byte order of the host that casts the bytes back to ints.
    The list is in reverse stream order, so ``list.pop()`` gives the next
    chunk.
    """
    data = block.to_bytes(1 + 8 * _QUEUE_WORDS, "big")  # the leading 1, then chunk bytes, high first
    ints = bytearray(4 * len(_CHUNK_ONES))
    if byteorder == "little":
        ints[0::4] = data[2::2]  # low byte of each chunk
        ints[1::4] = data[1::2]  # high byte
        ints[2::4] = _CHUNK_ONES
    else:
        ints[1::4] = _CHUNK_ONES
        ints[2::4] = data[1::2]
        ints[3::4] = data[2::2]
    return memoryview(ints).cast("I").tolist()


class BitSource:
    """Deterministic stream of fair bits, seeded from a 64-bit integer.

    Bits are taken from successive 64-bit words of ``random.Random(seed)``,
    least significant bit first.  ``next_bits(k)`` is exactly equivalent to k
    ``next_bit()`` calls with the first-drawn bit in the least significant
    position; it exists because the buffer makes the bulk form much cheaper
    than k method calls.

    Bits enter only through ``_fetch(m)``, which returns the next m words as
    one int under a leading 1, ``getrandbits(64 * m) | 1 << 64 * m`` (the same
    bits, and the same generator state, as m ``getrandbits(64)`` calls), and
    counts m words in ``_words``.  Nothing is fetched before the first read.
    Unread bits sit in two places, in stream order:

    - ``_buf``: the bits being read, under a leading 1, so ``_buf == 1`` means
      it is empty and it holds ``_buf.bit_length() - 1`` bits;
    - ``_queue``: 16-bit chunks, each under its own leading 1, in reverse
      order; ``_queued`` counts their bits.

    ``_refill()`` pops the next chunk off the queue, cutting 16 fresh words
    into 64 chunks when it is empty.  Every bit fetched is therefore handed
    out, queued or in ``_buf``, and ``bits_consumed`` is exact:
    ``64 * _words - _queued - (_buf.bit_length() - 1)``.

    Bulk readers inside the package (the word fill and the shuffle) skip the
    method call per bit: they copy ``_buf`` into a local, read and shift it,
    take fresh bits above the unread ones only when they need them, and write
    the local back to ``_buf`` in a ``finally``.  The fill pops ``_queue``
    itself and resyncs ``_queued`` on exit; the shuffle splices the queued
    chunks into its local once, then ``_fetch``-es 4 words at a time.
    """

    __slots__ = ("_rng", "_buf", "_words", "_queue", "_queued")

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed & _MASK64)
        self._buf = 1
        self._words = 0
        self._queue: list[int] = []
        self._queued = 0

    @property
    def bits_consumed(self) -> int:
        """Bits handed out so far."""
        return 64 * self._words - self._queued - (self._buf.bit_length() - 1)

    def _fetch(self, m: int) -> int:
        """The next m 64-bit words, first word lowest, under a leading 1; counts them."""
        self._words += m
        width = 64 * m
        return self._rng.getrandbits(width) | 1 << width

    def _refill(self) -> int:
        """The next 16-bit chunk of the stream under a leading 1, off the queue."""
        queue = self._queue
        if not queue:
            queue += _cut(self._fetch(_QUEUE_WORDS), sys.byteorder)
        self._queued = _CHUNK_BITS * (len(queue) - 1)
        return queue.pop()

    def next_bit(self) -> int:
        """One fair bit, 0 or 1."""
        buf = self._buf
        if buf == 1:
            buf = self._refill()
        self._buf = buf >> 1
        return buf & 1

    def next_bits(self, count: int) -> int:
        """count fair bits as one integer, first-drawn bit least significant."""
        if count < 0:
            raise DomainTooSmallError(f"next_bits needs count >= 0, got {count}")
        buf = self._buf
        avail = buf.bit_length() - 1
        if avail < count:
            refill = self._refill
            while avail < count:  # fresh chunks go above the unread bits
                buf = buf ^ (1 << avail) | refill() << avail
                avail = buf.bit_length() - 1
        self._buf = buf >> count
        return buf & ((1 << count) - 1)


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
    low b unread bits.  The queued chunks are spliced in above the buffer's
    bits once, at the start; after that, whenever fewer than b bits are left,
    4 fresh words are spliced in above them.  So the blocks, the positions
    and the bit count are those of ``uniform_int(source, i)`` for
    i = n, .., 2, and the unread bits are left in ``_buf``.

    The result is a permutation by construction, so the permutation sampler
    block-fills it through :func:`lukatree.words._place_blocks`, which checks
    nothing; :func:`lukatree.words.permutation_to_valid_word` is the fill
    that checks a permutation given from outside.
    """
    if n < 1:
        raise DomainTooSmallError(f"fisher_yates needs n >= 1, got {n}")
    perm = list(range(1, n + 1))
    buf = source._buf
    queue = source._queue
    fetch = source._fetch
    try:
        while queue:
            avail = buf.bit_length() - 1
            buf = buf ^ (1 << avail) | queue.pop() << avail
        source._queued = 0
        # positions i in 2^(b-1)+1 .. 2^b all draw b-bit blocks
        for b in range((n - 1).bit_length(), 0, -1):
            top = 1 << b
            mask = top - 1
            # i is the 0-based index of 1-based position i + 1
            for i in range(min(n, top) - 1, (top >> 1) - 1, -1):
                while True:
                    while buf < top:  # fewer than b unread bits under the leading 1
                        avail = buf.bit_length() - 1
                        buf = buf ^ (1 << avail) | fetch(_SHUFFLE_WORDS) << avail
                    j = buf & mask
                    buf >>= b
                    if j <= i:
                        break
                perm[i], perm[j] = perm[j], perm[i]
    finally:
        source._buf = buf
    return perm
