"""Vectorized replicate engine behind the height-scan experiments.

The statistical experiments need 1e8+ node draws, far beyond what the
bit-by-bit scalar pipelines can deliver in CPython, so this module runs many
replicate trees of one counts tuple side by side as numpy rows:

* permutation method: each row is an independent uniform shuffle of the
  letter multiset (numpy's Fisher-Yates with unbiased bounded integers);
* dichotomic method: each position draws its letter with probability
  proportional to the remaining counts, via exact uniform integers.

Per-row word distributions are therefore *exactly* those of the scalar
pipelines; what this engine does not model is the fair-bit cost, so every
bit-counting claim in the package is measured on the scalar side.  Rotation
to the Lukasiewicz representative is the array form of the scalar cycle
lemma.  Heights come from the height process of the Lukasiewicz path, run on
all rows at once.  Rotation and heights are cross-checked against the scalar
code in the tests, word for word.

Three private helpers do the work, each once: the lowest-key walk finds each
row's rotation point and its path's level range, the rotation gather reads
each position's letters of the rotation straight from the words, and the
height recurrence measures the rows it is given.
:func:`batch_rotate` is the walk and the gather into a new array, and
:func:`batch_heights` checks its rows and runs the recurrence on them; the
scalar engine of :func:`lukatree.experiments.run_height_scan` measures its
trees with it.  The batch engine measures through :func:`_rotated_heights`,
which runs the walk and then the recurrence on the gathered rows, so the
rotated words are never stored.

Everything runs position by position: a Python loop over the n letter
positions, each step a few numpy calls on contiguous length-reps rows, one
entry per replicate.  The words are held position-major, as an (n, reps)
int8 array whose row pos is letter pos of every replicate, and handed out
as its (reps, n) transposed view, so word r is still row r.  The
permutation method shuffles row-major (reps, n) words, which the other
functions first copy into that position-major layout.  Besides that copy
and batch_rotate's result, nothing of n x reps size is built: the lattice
paths are never stored, only each replicate's current level.  The words and
batch_rotate's result each get a memory mapping of their own (see
:func:`_mapped`), so a scan's peak memory is that of its live arrays.
"""

from __future__ import annotations

import mmap
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from .errors import NotAValidWordError

__all__ = [
    "batch_valid_words",
    "batch_rotate",
    "batch_heights",
]


def _mapped(shape: tuple[int, int], dtype: np.dtype | type[np.generic]) -> np.ndarray:
    """A zero-filled array in an anonymous memory mapping of its own.

    Once glibc's malloc has freed one 2 MB block it serves blocks of that
    size from its heap, where a freed one stays resident at an address that
    depends on the small allocations made around it, so the peak memory of
    a process that draws chunk after chunk changed from run to run.  A
    mapping of its own goes back to the system with the array.  tracemalloc
    does not see these arrays.
    """
    count = shape[0] * shape[1]
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def batch_valid_words(
    rng: np.random.Generator,
    counts: tuple[int, ...],
    reps: int,
    method: str = "dichotomic",
) -> np.ndarray:
    """reps uniform valid words of the multiset `counts`, one per row (int8).

    The dichotomic method draws letter pos of every row at once, from one
    `rng.integers(0, n - pos, size=reps)` call per position, and returns the
    transposed view of a position-major (n, reps) array; the permutation
    method shuffles a C-ordered (reps, n) array in place.
    """
    for letter, count in enumerate(counts):
        if count < 0:
            raise ValueError(f"letter {letter} has negative count {count}")
    k = len(counts)
    n = sum(counts)
    if n < 1 or k > 127:
        raise ValueError("need a non-empty multiset over at most 127 letters")
    if method == "permutation":
        words = _mapped((reps, n), np.int8)
        words[:] = np.repeat(np.arange(k, dtype=np.int8), counts)
        rng.permuted(words, axis=1, out=words)
        return words
    if method != "dichotomic":
        raise ValueError(f"unknown method {method!r}")
    # bounds[j, r] = letters 0..j still to place in row r.  The letter drawn
    # is the number of these interior boundaries at or below v, that is k-1
    # minus the number above it; each boundary above v drops by one.
    bounds = np.repeat(np.cumsum(counts[:-1], dtype=np.int64)[:, None], reps, axis=1)
    below = np.empty(bounds.shape, dtype=bool)
    words = _mapped((n, reps), np.int8)
    for pos in range(n):
        v = rng.integers(0, n - pos, size=reps)
        np.less(v, bounds, out=below)
        np.add.reduce(below, axis=0, dtype=np.int8, out=words[pos])
        bounds -= below
    np.subtract(k - 1, words, out=words)
    return words.T


def _lowest_keys(
    wT: np.ndarray, degrees: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk the position-major words' paths: final, lowest and highest keys.

    key = level * 2^32 + (pos + 1) after the step at pos, so the running
    minimum of the key is the lowest level, first reached at the smallest
    pos, and its low 32 bits are that pos + 1; key >> 32 is the level.  The
    final key holds each path's last level, and the running maximum from
    the start's key 0 gives the highest level, S_0 = 0 included.  Levels
    stay within +-n for the words of a tree census and must fit in int32.
    """
    n, reps = wT.shape
    lut = np.asarray(degrees, dtype=np.int64) << 32
    lut += 1
    key = np.zeros(reps, dtype=np.int64)
    low = np.full(reps, np.iinfo(np.int64).max)
    high = np.zeros(reps, dtype=np.int64)
    for pos in range(n):
        key += lut.take(wT[pos])
        np.minimum(low, key, out=low)
        np.maximum(high, key, out=high)
    return key, low, high


def _rotated_rows(
    wT: np.ndarray, low: np.ndarray, rows: Iterable[np.ndarray]
) -> Iterator[np.ndarray]:
    """Gather each position's letters of the rotation into the next of rows, yielding it.

    The rotation starts at ell, the low 32 bits of the row's lowest key, so
    its letter pos is letter (ell + pos) mod n of the word; take's wrap mode
    reduces the flat index modulo n * reps.
    """
    reps = wT.shape[1]
    at = (low & 0xFFFFFFFF) * reps
    at += np.arange(reps)
    flat = wT.reshape(-1)
    for row in rows:
        flat.take(at, out=row, mode="wrap")
        at += reps
        yield row


def _heights(rows: Iterable[np.ndarray], lut: np.ndarray, reps: int, width: int) -> np.ndarray:
    """Height of each replicate from its Lukasiewicz word's letters, one position per row.

    Node m of the preorder sits at depth H_m = #{j < m : S_j = min S_j..S_m},
    the height process of the path S_j = degree sum of the first j letters.
    No degree is below -1, so a leaf at level S_m closes exactly the open
    nodes opened at that level; a per-row count of open nodes by level, for
    levels 0 .. width - 1, is all the state needed, for arities of any size.
    Depths and counts are int32, so n must be below 2^31.
    """
    opened = np.zeros(reps * width, dtype=np.int32)  # open nodes by (row, level)
    cell = np.arange(reps) * width  # flat index of (row, level before the step); S_0 = 0
    depth = np.zeros(reps, dtype=np.int32)
    best = np.zeros(reps, dtype=np.int32)
    for row in rows:
        step = lut.take(row)
        np.maximum(best, depth, out=best)
        here = opened.take(cell)
        now = here + 1
        now *= step >= 0  # a node opens here (+1), or a leaf closes all of them
        depth += now
        depth -= here
        opened[cell] = now
        cell += step
    return best


def batch_rotate(words: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Rotate each row just past the first minimum of its path (cycle lemma).

    The path is walked one position at a time and never stored.  The result
    is the transposed view of a position-major (n, reps) array, like the
    dichotomic words; a row-major input is transposed into that layout first.
    """
    wT = np.ascontiguousarray(words.T)
    _, low, _ = _lowest_keys(wT, degrees)
    out = _mapped(wT.shape, words.dtype)
    for _ in _rotated_rows(wT, low, out):
        pass
    return out.T


def batch_heights(words: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Tree height of each row, the rows being Lukasiewicz words (int32).

    A row that is not a Lukasiewicz word raises NotAValidWordError, naming
    the first such row.

    Like batch_rotate, the rows are walked one position at a time: a first
    pass finds the highest level, which sizes the counts, and the lowest
    level before the last letter, which with the final level checks each
    path; a second runs the height recurrence of :func:`_heights`.
    """
    reps, n = words.shape
    wT = np.ascontiguousarray(words.T)
    lut = np.asarray(degrees, dtype=np.intp)
    level = np.zeros(reps, dtype=np.intp)
    top = np.zeros(reps, dtype=np.intp)
    low = np.zeros(reps, dtype=np.intp)
    for pos in range(n - 1):
        level += lut.take(wT[pos])
        np.maximum(top, level, out=top)
        np.minimum(low, level, out=low)
    if n:
        level += lut.take(wT[n - 1])
    bad = (low < 0) | (level != -1)
    if bad.any():
        row = int(bad.argmax())
        if low[row] < 0:
            why = "its path drops below 0 before the last letter"
        else:
            why = f"its path ends at level {level[row]}, not -1"
        raise NotAValidWordError(f"row {row} is not a Lukasiewicz word: {why}")
    return _heights(wT, lut, reps, int(top.max(initial=0)) + 1)


def _rotated_heights(words: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Tree height of each row's cycle-lemma rotation, the rows being valid words (int32).

    batch_heights(batch_rotate(words, degrees), degrees) without the rotated
    copy: one walk of the lowest key, with a running maximum, gives each
    row's rotation point and its path's level range, and the recurrence then
    reads each position's letters of the rotation gathered straight from the
    words.  A row whose path does not end at -1 raises NotAValidWordError,
    naming the first such row; every other row's rotation is a Lukasiewicz
    word by the cycle lemma, so nothing else is checked.  The rotated path
    stays within 0 .. max S - min S, so width = max S - min S + 1 levels
    hold it, with at most one to spare.
    """
    reps, n = words.shape
    wT = np.ascontiguousarray(words.T)
    key, low, high = _lowest_keys(wT, degrees)
    level = key >> 32
    bad = level != -1
    if bad.any():
        row = int(bad.argmax())
        raise NotAValidWordError(
            f"row {row} is not a valid word: its path ends at level {level[row]}, not -1"
        )
    width = int(((high >> 32) - (low >> 32)).max(initial=0)) + 1
    rows = _rotated_rows(wT, low, repeat(np.empty(reps, dtype=wT.dtype), n))
    return _heights(rows, np.asarray(degrees, dtype=np.intp), reps, width)
