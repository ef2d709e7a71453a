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

One private walk serves both rotation and heights: it copies the rows
position-major, rejects rows that are no valid word, and finds where each
row's rotation starts and how far its path ranges.  :func:`batch_rotate` is
the walk and a gather of the rotation into a new array.
:func:`batch_heights` is the walk and one loop that gathers each position's
letters of the rotation straight from the words and steps the height
recurrence on them, so the rotated words are never stored; it measures each
valid row as its cycle-lemma rotation, which for a Lukasiewicz row is the
row itself.  Both engines of :func:`lukatree.experiments.run_height_scan`
measure their words with it.

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

import numpy as np

from .errors import (
    ArityMismatchError,
    DomainTooSmallError,
    LimitExceededError,
    LukatreeError,
    NotAValidWordError,
    _is_int,
)

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
    method shuffles a C-ordered (reps, n) array in place.  reps = 0 gives an
    empty (0, n) array; a reps that is negative or no integer is a
    DomainTooSmallError, and such a count an ArityMismatchError.
    """
    for letter, count in enumerate(counts):
        if not _is_int(count):
            raise ArityMismatchError(f"letter {letter} has count {count!r}, not an integer")
        if count < 0:
            raise ArityMismatchError(f"letter {letter} has negative count {count}")
    k = len(counts)
    n = sum(counts)
    if n < 1:
        raise DomainTooSmallError(f"need a non-empty multiset, got counts {counts}")
    if not _is_int(reps) or reps < 0:
        raise DomainTooSmallError(f"reps must be an integer >= 0, got {reps!r}")
    if k > 127:
        raise LimitExceededError(f"int8 words hold at most 127 letters, got {k}")
    if method == "permutation":
        words = _mapped((reps, n), np.int8)
        words[:] = np.repeat(np.arange(k, dtype=np.int8), counts)
        rng.permuted(words, axis=1, out=words)
        return words
    if method != "dichotomic":
        raise LukatreeError(f"unknown method {method!r}")
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


def _walk(words: np.ndarray, degrees: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk each row's path once: the words flat, each rotation's start, and the level span.

    The rows are copied position-major first, so that letter pos of row r
    sits at flat index pos * reps + r.  key = level * 2^32 + (pos + 1) after
    the step at pos, so the running minimum of the key is the lowest level,
    first reached at the smallest pos, and its low 32 bits are that pos + 1:
    the rotation just past it starts at flat index at[r] = (pos + 1) * reps
    + r, and its letter j is at at[r] + j * reps, modulo n * reps.  The
    final key holds each path's last level, which must be -1, or the row
    is no valid word and NotAValidWordError names the first such row.  The
    running maximum from the start's key 0 gives the highest level, S_0 = 0
    included, so the rotated path stays within width = max S - min S + 1
    levels, with at most one to spare.  Levels stay within +-n times the
    widest degree, which must fit in int32, or the keys would wrap: such
    words raise LimitExceededError before the walk.  A letter outside the
    alphabet, which take() would wrap, raises ArityMismatchError.
    """
    wT = np.ascontiguousarray(words.T)
    n, reps = wT.shape
    k = len(degrees)
    if wT.min(initial=0) < 0 or wT.max(initial=0) >= k:
        row = int(((wT < 0) | (wT >= k)).any(axis=0).argmax())
        raise ArityMismatchError(f"row {row} has a letter outside the alphabet of {k} letters")
    widest = max(map(abs, degrees))
    if n * widest >= 2**31:
        raise LimitExceededError(
            f"words of length {n} with a degree of {widest} can reach levels beyond int32"
        )
    lut = np.asarray(degrees, dtype=np.int64) << 32
    lut += 1
    key = np.zeros(reps, dtype=np.int64)
    low = np.full(reps, np.iinfo(np.int64).max)
    high = np.zeros(reps, dtype=np.int64)
    for pos in range(n):
        key += lut.take(wT[pos])
        np.minimum(low, key, out=low)
        np.maximum(high, key, out=high)
    level = key >> 32
    bad = level != -1
    if bad.any():
        row = int(bad.argmax())
        raise NotAValidWordError(
            f"row {row} is not a valid word: its path ends at level {level[row]}, not -1"
        )
    width = int(((high >> 32) - (low >> 32)).max(initial=0)) + 1
    at = (low & 0xFFFFFFFF) * reps
    at += np.arange(reps)
    return wT.reshape(-1), at, width


def batch_rotate(words: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Rotate each row, a valid word, just past the first minimum of its path (cycle lemma).

    A row whose path does not end at -1 raises NotAValidWordError, and a
    row with a letter outside the alphabet ArityMismatchError, each naming
    the first such row, as the scalar to_lukasiewicz does; words whose
    levels could leave int32 (n times the widest degree at least 2^31)
    raise LimitExceededError.  The path is walked one position at a time
    and never stored.  The result is the transposed view of a
    position-major (n, reps) array, like the dichotomic words; a row-major
    input is transposed into that layout first.
    """
    reps, n = words.shape
    flat, at, _ = _walk(words, degrees)
    out = _mapped((n, reps), words.dtype)
    for row in out:
        flat.take(at, out=row, mode="wrap")
        at += reps
    return out.T


def batch_heights(words: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Tree height of each row's cycle-lemma rotation, the rows being valid words (int32).

    Rows are checked as in batch_rotate; every valid row's rotation is a
    Lukasiewicz word by the cycle lemma, so nothing else is checked, and a
    Lukasiewicz row is its own rotation.  The rotated copy is never built:
    each step gathers one position's letters of the rotation straight from
    the words and runs the height recurrence on them.

    Node m of the preorder sits at depth H_m = #{j < m : S_j = min S_j..S_m},
    the height process of the path S_j = degree sum of the first j letters.
    No degree is below -1, so a leaf at level S_m closes exactly the open
    nodes opened at that level; a per-row count of open nodes by level, for
    the walk's width levels, is all the state needed, for arities of any
    size.  Depths and counts are int32, so n must be below 2^31.
    """
    reps, n = words.shape
    flat, at, width = _walk(words, degrees)
    lut = np.asarray(degrees, dtype=np.intp)
    row = np.empty(reps, dtype=flat.dtype)
    opened = np.zeros(reps * width, dtype=np.int32)  # open nodes by (row, level)
    cell = np.arange(reps) * width  # flat index of (row, level before the step); S_0 = 0
    depth = np.zeros(reps, dtype=np.int32)
    best = np.zeros(reps, dtype=np.int32)
    for _ in range(n):
        flat.take(at, out=row, mode="wrap")
        at += reps
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
