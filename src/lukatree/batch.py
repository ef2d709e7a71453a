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
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """reps uniform valid words of the multiset `counts`, one per row (int8)."""
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
    # bounds[r, j] = letters 0..j still to place in row r; the letter drawn
    # is the number of these interior boundaries at or below v
    bounds = np.tile(np.cumsum(counts[:-1], dtype=np.int64), (reps, 1))
    words = np.empty((reps, n), dtype=np.int8)
    for pos in range(n):
        v = rng.integers(0, n - pos, size=reps)
        above = v[:, None] >= bounds
        words[:, pos] = above.sum(axis=1)
        bounds -= ~above  # one fewer of the drawn letter: later boundaries drop
    return words


def batch_rotate(words: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Rotate each row just past the first minimum of its path (cycle lemma)."""
    reps, n = words.shape
    path = np.asarray(degrees, dtype=np.int32)[words]
    np.cumsum(path, axis=1, out=path)
    ell = np.argmin(path, axis=1) + 1  # first minimum
    del path
    # row r's rotation is the window of length n at ell[r] in the row written
    # twice; ell = n picks the second copy, which is the row itself
    windows = sliding_window_view(np.concatenate((words, words), axis=1), n, axis=1)
    return windows[np.arange(reps), ell]


def batch_heights(words: np.ndarray, degrees: tuple[int, ...]) -> np.ndarray:
    """Tree height of each row, the rows being Lukasiewicz words (int32).

    Node m of the preorder sits at depth H_m = #{j < m : S_j = min S_j..S_m},
    the height process of the path S_j = degree sum of the first j letters.
    No degree is below -1, so a leaf at level S_m closes exactly the open
    nodes opened at that level; a per-row count of open nodes by level is
    all the state needed, for arities of any size.
    """
    reps, n = words.shape
    path = np.asarray(degrees, dtype=np.int32)[np.ascontiguousarray(words.T)]
    grow = path >= 0  # (n, reps): the letter at this position opens a node
    np.cumsum(path, axis=0, out=path)  # path[pos] = level after the step at pos
    width = int(path.max(initial=0)) + 1
    opened = np.zeros(reps * width, dtype=np.int32)  # open nodes by (row, level)
    base = np.arange(reps) * width
    cell = base.copy()  # flat index of (row, level before the step); S_0 = 0
    depth = np.zeros(reps, dtype=np.int32)
    best = np.zeros(reps, dtype=np.int32)
    for pos in range(n):
        np.maximum(best, depth, out=best)
        here = opened[cell]
        now = here + 1
        now *= grow[pos]  # a node opens here (+1), or a leaf closes all of them
        depth += now
        depth -= here
        opened[cell] = now
        np.add(base, path[pos], out=cell)
    return best

