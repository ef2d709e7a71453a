"""Fair-bit source with exact accounting, and the samplers built on raw bits.

Everything random in this package is driven by a :class:`BitSource`: the
LSB-first bits of a seeded Mersenne Twister's successive 64-bit words.  The
bits are fetched in bulk and kept as binary digits until they are handed
out, but ``bits_consumed`` goes up by exactly one per bit handed out and by
nothing else, so the entropy cost of any composite operation can be read off
as a counter difference.

How the unread bits are kept is known to this module alone: its two bulk
readers, :func:`fisher_yates` and the dichotomic draw ``_draw_letters``,
live here, and every other reader calls ``next_bit`` or ``next_bits``.
"""

from __future__ import annotations

import functools
import random
import sys
from operator import length_hint

from .errors import DomainTooSmallError, _is_int

__all__ = ["BitSource", "uniform_int", "fisher_yates"]

_MASK64 = (1 << 64) - 1

# Fetch widths.  _more() makes the digits of 16 words (1024 bits), or of as
# many more as a long read needs, with one format() call; the word fill ran
# as fast with any width from 4 to 64 words.
# The shuffle cuts chunks of up to 256 b-bit blocks off an int and, when
# fewer than b bits are left, splices the words of the next chunk above
# them.  At n = 10,001, 64- and 128-block chunks were slower and 512-block
# chunks no faster.  Cutting and listing a chunk grows with its size: at
# b = 13 it took 1.45 us for 8 blocks, 3.7 us for 64 and 12.9 us for 256
# (8.1-8.6 us for 256 at b = 9 and 14), about a third of a shuffle at
# n = 10,001.  Its fixed part made small shuffles slower, so a b-range of
# at most _SHORT_RANGE positions shifts its blocks off one at a time and
# splices 4 words at a time; the two broke even near 64.
_DIGIT_WORDS = 16
_SHORT_RANGE = 64

# The shuffle reads a chunk's slots as native ints; a big-endian machine
# lists them last block first.
_BIG_ENDIAN = sys.byteorder == "big"


class BitSource:
    """Deterministic stream of fair bits, seeded from a 64-bit integer.

    A seed that is no integer is a DomainTooSmallError; any other is read
    modulo 2^64.  Bits are taken from successive 64-bit words of
    ``random.Random(seed)``, least significant bit first.  ``next_bits(k)``
    is exactly equivalent to k ``next_bit()`` calls with the first-drawn bit
    in the least significant position; it exists because one bulk read is
    much cheaper than k method calls.

    Bits enter only through ``_fetch(m)``, the one method a stand-in
    overrides.  It returns the next bits as one int under a leading 1, first
    bit lowest, and counts them in ``_fetched``: here m words,
    ``getrandbits(64 * m) | 1 << 64 * m`` (the same bits, and the same
    generator state, as m ``getrandbits(64)`` calls), though a fetch may hand
    over fewer, at least one.  Nothing is fetched before the first read.
    The unread bits are ``_bits``, one bytearray for the source's life, of
    ASCII digits ``0`` and ``1`` with the next bit last: the binary form of the
    fetched int, leading 1 dropped, in which the most significant digit comes
    first.  So every bit fetched is handed out or still in ``_bits``, and
    ``bits_consumed`` is exact: ``_fetched - len(_bits)``.

    ``_more(count)`` is the one place where fetched bits become digits: it
    puts the digits of one fetch, asked for 16 words or as many as count
    unread digits need, below the unread ones in place, and returns
    ``_bits``.  Every reader fetches again while it holds fewer bits than it
    needs: ``next_bit`` pops a digit; ``next_bits(c)`` calls ``_more(c)``
    until it holds c digits, then parses the last c as one int (first-drawn
    bit lowest) and deletes them.
    The word fill, ``_draw_letters``, iterates the digits backwards (a 1 is
    the byte 49), clears them and calls ``_more()`` when it has read them all,
    and deletes what it read in a ``finally``, so ``bits_consumed`` is exact
    even when an error stops it.  The shuffle reads ``_bits`` as an int,
    cuts its blocks off it, up to 256 at a time as a list of ints or one at
    a time in a short run of positions, and writes what it leaves back.
    """

    __slots__ = ("_rng", "_bits", "_fetched")

    def __init__(self, seed: int = 0):
        if not _is_int(seed):
            raise DomainTooSmallError(f"seed must be an integer, got {seed!r}")
        self._rng = random.Random(int(seed) & _MASK64)
        self._bits = bytearray()
        self._fetched = 0

    @property
    def bits_consumed(self) -> int:
        """Bits handed out so far."""
        return self._fetched - len(self._bits)

    def _fetch(self, m: int) -> int:
        """The next m 64-bit words under a leading 1, first word lowest; counts the bits."""
        width = 64 * m
        self._fetched += width
        return self._rng.getrandbits(width) | 1 << width

    def _more(self, count: int = 1) -> bytearray:
        """Put the digits of one fetch, asked to make count unread, below ``_bits``; return it."""
        bits = self._bits
        words = max((63 + count - len(bits)) // 64, _DIGIT_WORDS)
        bits[:0] = format(self._fetch(words), "b")[1:].encode()
        return bits

    def next_bit(self) -> int:
        """One fair bit, 0 or 1."""
        return (self._bits or self._more()).pop() - 48

    def next_bits(self, count: int) -> int:
        """count fair bits as one integer, first-drawn bit least significant."""
        if type(count) is not int or count < 1:
            if not _is_int(count) or count < 0:
                raise DomainTooSmallError(f"next_bits needs an integer count >= 0, got {count!r}")
            count = int(count)  # a bool or a numpy int
            if not count:
                return 0
        bits = self._bits
        while len(bits) < count:
            self._more(count)
        value = int(bits[-count:], 2)
        del bits[-count:]
        return value


def uniform_int(source: BitSource, m: int) -> int:
    """Uniform integer in 0..m-1 by rejection on ceil(log2 m)-bit blocks.

    m = 1 consumes no bits.  Expected cost is b * 2^b / m bits with
    b = ceil(log2 m), e.g. exactly 1 bit for m = 2 and 8/3 bits on average
    for m = 3.
    """
    if not _is_int(m) or m < 1:
        raise DomainTooSmallError(f"uniform_int needs an integer m >= 1, got {m!r}")
    if m == 1:
        return 0
    b = int(m - 1).bit_length()
    while True:
        v = source.next_bits(b)
        if v < m:
            return v


def fisher_yates(source: BitSource, n: int) -> list[int]:
    """Uniform permutation of 1..n, as a list.

    Classic swap-down shuffle: for i = n, n-1, .., 2 swap position i with a
    uniform position in 1..i.  Uses Theta(n log n) random bits.  Each
    position is :func:`uniform_int`'s rejection step, run on an int holding
    the source's unread digits (see :class:`BitSource`) under a leading 1,
    next bit lowest: a b-bit block is its low b unread bits.  Where more
    than 64 positions draw b-bit blocks, the blocks are cut off that int a
    chunk at a time: up to 256 of them, and no more than two per position
    left at this b, are spread into one 8-, 16-, 32- or 64-bit slot each by
    :func:`_slots`' rounds and read as a list of ints; the int then drops
    the blocks the positions used.  A shorter run of positions shifts its
    blocks off one at a time, as a chunk's fixed cost would outweigh what it
    saves.  Only when fewer than b bits are left are more spliced in above
    them: the words of the chunk about to be cut, or 4 words.  So the
    blocks, the positions and the bit count are those of
    ``uniform_int(source, i)`` for i = n, .., 2, and no bit is fetched
    before a block needs it.

    The result is a permutation by construction, so the permutation sampler
    block-fills it through :func:`lukatree.words._place_blocks`, which checks
    nothing; :func:`lukatree.words.permutation_to_valid_word` is the fill
    that checks a permutation given from outside.
    """
    if not _is_int(n) or n < 1:
        raise DomainTooSmallError(f"fisher_yates needs an integer n >= 1, got {n!r}")
    n = int(n)  # a numpy n would wrap in the chunks' shift arithmetic
    perm = list(range(1, n + 1))
    buf = int(b"1" + source._bits, 2)
    fetch = source._fetch
    try:
        # positions i in 2^(b-1)+1 .. 2^b all draw b-bit blocks
        for b in range((n - 1).bit_length(), 0, -1):
            top = 1 << b
            low = top >> 1
            i = min(n, top) - 1  # the 0-based index of 1-based position i + 1
            if i - low < _SHORT_RANGE:
                mask = top - 1
                for i in range(i, low - 1, -1):
                    while True:
                        while buf < top:  # fewer than b unread bits under the leading 1
                            avail = buf.bit_length() - 1
                            buf = buf ^ (1 << avail) | fetch(4) << avail
                        j = buf & mask
                        buf >>= b
                        if j <= i:
                            break
                    perm[i], perm[j] = perm[j], perm[i]
                continue
            fmt, size, rounds = _slots(b)
            while i >= low:
                # a position takes under two blocks on average, so the last
                # positions at this b need not spread a whole chunk
                count = min(256, 2 * (i - low) + 2)
                while buf < top:
                    avail = buf.bit_length() - 1
                    buf = buf ^ (1 << avail) | fetch((count * b + 63) >> 6) << avail
                count = min(count, (buf.bit_length() - 1) // b)
                chunk = buf & ((1 << count * b) - 1)
                # the rounds for groups wider than count blocks move nothing
                for mask, shift in rounds[8 - (count - 1).bit_length() :]:
                    moved = chunk & mask
                    chunk = chunk ^ moved | moved << shift
                blocks = memoryview(chunk.to_bytes(count * size, sys.byteorder)).cast(fmt).tolist()
                if _BIG_ENDIAN:
                    blocks.reverse()
                it = iter(blocks)
                for j in it:
                    if j <= i:
                        perm[i], perm[j] = perm[j], perm[i]
                        i -= 1
                        if i < low:
                            break
                buf >>= (count - length_hint(it)) * b
    finally:
        source._bits[:] = format(buf, "b")[1:].encode()
    return perm


@functools.cache
def _slots(b: int) -> tuple[str, int, tuple[tuple[int, int], ...]]:
    """How :func:`fisher_yates` spreads up to 256 packed b-bit blocks into slots.

    The slot is the smallest of 8, 16, 32 and 64 bits that holds b bits, w
    bits wide.  Returns its memoryview format, its size in bytes and the
    spreading rounds, a (mask, shift) pair for each half-group size h = 128,
    64, .., 1: a group of 2h blocks sits packed at every 2h * w bits, and
    the round moves its upper h blocks, the mask's bits, up by h * (w - b)
    bits.  After the last round block k starts at bit k * w.  Blocks that
    fill their slots need no round.  Built on first use, so importing the
    package builds none.
    """
    k = max((b - 1).bit_length() - 3, 0)
    size = 1 << k
    w = 8 * size
    ones = (1 << 256 * w) - 1
    rounds = tuple(
        # the upper half of one group, times a repunit with a 1 at every group
        ((((1 << h * b) - 1) << h * b) * (ones // ((1 << 2 * h * w) - 1)), h * (w - b))
        for h in (128, 64, 32, 16, 8, 4, 2, 1)
        if w > b
    )
    return "BHIQ"[k], size, rounds


def _draw_letters(source: BitSource, left: list[int], total: int, count: int) -> list[int]:
    """The dichotomic draw, count times, each letter taken out of left.

    left holds non-negative weights summing to total >= count.  Each draw
    keeps, after depth bits with low the bits read (first bit most
    significant) and scale = 2^depth, the interval [low, low + 1) * total /
    scale and room = cum[s+1] * scale - low * total for the candidate segment
    s.  The interval fits in s, (low + 1) * total <= cum[s+1] * scale, exactly
    when room >= total.  The bits are the source's unread digits, read as
    :class:`BitSource` describes, so the loop keeps no count of its own.
    """
    bits = source._bits
    it = reversed(bits)
    word = []
    try:
        for total in range(total, total - count, -1):  # the pool's size at each draw
            s = 0
            room = left[0]
            while room <= 0:  # start at the first non-empty segment
                s += 1
                room = left[s]
            scale = 1
            while room < total:
                for bit in it:
                    room += room
                    scale += scale
                    if bit == 49:
                        room -= total
                        while room <= 0:
                            s += 1
                            room += left[s] * scale
                    if room >= total:
                        break
                else:
                    bits.clear()
                    it = reversed(source._more())
            left[s] -= 1
            word.append(s)
    finally:
        del bits[length_hint(it):]
    return word
