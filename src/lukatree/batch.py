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
all rows at once; :func:`lukatree.experiments.run_height_scan` measures the
scalar engine's trees with it too, so the package has one height recurrence.
Rotation and heights are cross-checked against the scalar code in the tests,
word for word.

All three functions run position by position: a Python loop over the n
letter positions, each step a few numpy calls on contiguous length-reps
rows, one entry per replicate.  They hold the words position-major, as an
(n, reps) int8 array whose row pos is letter pos of every replicate, and
hand them out as its (reps, n) transposed view, so word r is still row r.
Nothing else of n x reps size is built: the lattice paths are never stored,
only each replicate's current level.
"""

from __future__ import annotations

import numpy as np

from .errors import NotAValidWordError

__all__ = [
    "batch_valid_words",
    "batch_rotate",
    "batch_heights",
]


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
        base = np.repeat(np.arange(k, dtype=np.int8), counts)
        words = np.tile(base, (reps, 1))
        rng.permuted(words, axis=1, out=words)
        return words
    if method != "dichotomic":
        raise ValueError(f"unknown method {method!r}")
    # bounds[j, r] = letters 0..j still to place in row r.  The letter drawn
    # is the number of these interior boundaries at or below v, that is k-1
    # minus the number above it; each boundary above v drops by one.
    bounds = np.repeat(np.cumsum(counts[:-1], dtype=np.int64)[:, None], reps, axis=1)
    below = np.empty(bounds.shape, dtype=bool)
    words = np.empty((n, reps), dtype=np.int8)
    for pos in range(n):
        v = rng.integers(0, n - pos, size=reps)
        np.less(v, bounds, out=below)
        np.add.reduce(below, axis=0, dtype=np.int8, out=words[pos])
        bounds -= below
    np.subtract(k - 1, words, out=words)
    return words.T


def batch_rotate(words: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Rotate each row just past the first minimum of its path (cycle lemma).

    The path is walked one position at a time and never stored.  The result
    is the transposed view of a position-major (n, reps) array, like the
    dichotomic words; a row-major input is transposed into that layout first.
    """
    reps, n = words.shape
    wT = np.ascontiguousarray(words.T)
    # key = level * 2^32 + (pos + 1) after the step at pos, so the running
    # minimum of the key is the lowest level, first reached at the smallest
    # pos, and its low 32 bits are that pos + 1.  Levels stay within +-n for
    # the words of a tree census and must fit in int32.
    lut = np.asarray(degrees, dtype=np.int64) << 32
    lut += 1
    key = np.zeros(reps, dtype=np.int64)
    low = np.full(reps, np.iinfo(np.int64).max)
    for pos in range(n):
        key += lut.take(wT[pos])
        np.minimum(low, key, out=low)
    # letter pos of the rotation is letter (ell + pos) mod n of the word, and
    # take's wrap mode reduces the flat index modulo n * reps
    at = (low & 0xFFFFFFFF) * reps
    at += np.arange(reps)
    flat = wT.reshape(-1)
    out = np.empty((n, reps), dtype=words.dtype)
    for pos in range(n):
        flat.take(at, out=out[pos], mode="wrap")
        at += reps
    return out.T


def batch_heights(words: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Tree height of each row, the rows being Lukasiewicz words (int32).

    A row that is not a Lukasiewicz word raises NotAValidWordError, naming
    the first such row.

    Node m of the preorder sits at depth H_m = #{j < m : S_j = min S_j..S_m},
    the height process of the path S_j = degree sum of the first j letters.
    No degree is below -1, so a leaf at level S_m closes exactly the open
    nodes opened at that level; a per-row count of open nodes by level is
    all the state needed, for arities of any size.  Like batch_rotate, the
    rows are walked one position at a time: a first pass finds the highest
    level, which sizes the counts, and the lowest level before the last
    letter, which with the final level checks each path; a second runs the
    recurrence.  Depths and counts are int32, so n must be below 2^31.
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
    width = int(top.max(initial=0)) + 1
    opened = np.zeros(reps * width, dtype=np.int32)  # open nodes by (row, level)
    cell = np.arange(reps) * width  # flat index of (row, level before the step); S_0 = 0
    depth = np.zeros(reps, dtype=np.int32)
    best = np.zeros(reps, dtype=np.int32)
    for pos in range(n):
        step = lut.take(wT[pos])
        np.maximum(best, depth, out=best)
        here = opened.take(cell)
        now = here + 1
        now *= step >= 0  # a node opens here (+1), or a leaf closes all of them
        depth += now
        depth -= here
        opened[cell] = now
        cell += step
    return best
