"""Experiment harnesses: entropy cost of the dichotomic draw, height scaling.

Two reproducible experiments, both emitting CSV so the curves can be
replotted directly:

* the bit-cost scan draws from uniform weights for every k up to k_max and
  compares the measured mean bits per draw with the 2 + log2 k ceiling and
  the exact closed form; totals k and k+1 are both measured because exact
  powers of two make the draw artificially cheap (every boundary is dyadic);
* the height scan samples uniform Motzkin trees of size n at several unary
  fractions and reports mean heights, raw and normalized.  As the unary
  fraction grows, trees get taller: with c_n binary nodes the height scales
  like (n / sqrt(c_n)) times a universal limit law, so sqrt(c_n)/n * height
  is the stable quantity and height/sqrt(n) grows as unary nodes displace
  binary ones.  The batch engine draws the trees' valid words as numpy rows,
  and the scalar engine draws their Lukasiewicz words through the bit-level
  pipelines; both measure them with :func:`lukatree.batch.batch_heights`,
  which reads each row's cycle-lemma rotation without storing it.

Both harnesses are deterministic for a fixed seed and configuration, down to
the emitted CSV bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real
from typing import Iterable, Sequence

from .alphabet import DegreeTuple, motzkin_alphabet
from .bitstream import _MASK64, BitSource
from .errors import DomainTooSmallError, InfeasibleParityError, LukatreeError, _is_int
from .samplers import METHODS, DiscreteWeights, dichotomic_draw, mean_cost_closed_form
from .samplers import sample_lukasiewicz_word

__all__ = [
    "motzkin_tuple",
    "nearest_feasible_unary",
    "ScanRow",
    "run_height_scan",
    "height_scan_csv",
    "BitCostRow",
    "run_bitcost_scan",
    "bitcost_csv",
    "HEIGHT_SCAN_COLUMNS",
]


# Rows drawn and measured together: this bounds a scan's memory to one chunk
# of words, and fixes how the batch engine consumes its numpy stream, so a
# different value would change the batch CSV bytes.
_CHUNK = 2048


def motzkin_tuple(n: int, u: int) -> DegreeTuple:
    """Letter counts of a Motzkin tree with n nodes, u of them unary.

    The leaf and binary counts are forced: (n-u+1)/2 leaves and (n-u-1)/2
    binary nodes, so n-u must be odd; otherwise no such tree exists and
    InfeasibleParityError is raised.
    """
    if not (_is_int(n) and _is_int(u)) or n < 1 or not 0 <= u <= n - 1:
        raise DomainTooSmallError(f"need integers n >= 1 and 0 <= u < n, got n={n!r}, u={u!r}")
    if (n - u) % 2 == 0:
        raise InfeasibleParityError(
            f"n-u = {n - u} is even: no Motzkin tree has {n} nodes with {u} unary"
        )
    leaves = (n - u + 1) // 2
    binary = (n - u - 1) // 2
    return DegreeTuple((leaves, u, binary))


def nearest_feasible_unary(n: int, u: int) -> int:
    """Adjust a requested unary count to the nearest feasible one.

    When n-u is even the instance does not exist; the neighbour below is the
    nearest fix, except u=0, where only u=1 is available.  n and u must be
    integers, n at least 1 and u within 0..n, else DomainTooSmallError.
    """
    if not (_is_int(n) and _is_int(u)) or n < 1 or not 0 <= u <= n:
        raise DomainTooSmallError(f"need integers n >= 1 and 0 <= u <= n, got n={n!r}, u={u!r}")
    if (n - u) % 2 == 0:
        u = u - 1 if u >= 1 else u + 1
    return u


@dataclass(frozen=True)
class ScanRow:
    """Aggregates for one unary fraction; `c` is the binary-node count c_n."""

    fraction: float
    u: int
    c: int
    n: int
    replicates: int
    mean_height: float
    mean_height_over_sqrt_n: float
    mean_norm: float  # mean of height * sqrt(c) / n
    stddev: float


HEIGHT_SCAN_COLUMNS = ",".join(f.name for f in fields(ScanRow))


def run_height_scan(
    n: int, unary_fractions: Iterable[float], replicates: int,
    *, seed: int = 0, method: str = "dichotomic", engine: str = "batch",
) -> list[ScanRow]:
    """Sample heights of uniform Motzkin trees of size n for each unary fraction.

    Each fraction maps to u = round(fraction * n), parity-adjusted via
    nearest_feasible_unary.  Replicates go in chunks of at most _CHUNK rows.
    The batch engine (default) draws a chunk's valid words as numpy rows;
    the scalar engine runs the bit-level pipelines from one BitSource(seed),
    drawing every tree of the scan in turn as its Lukasiewicz word.  Either
    way, batch_heights measures the chunk: one walk finds each row's
    cycle-lemma rotation (the row itself for a Lukasiewicz word), and the
    height recurrence reads it straight from the words, so the rotated copy
    is never built.  The run is deterministic for fixed settings; like
    BitSource, which checks it, the batch engine reads the seed modulo 2^64.
    n and replicates must be integers, and unary_fractions an iterable of
    real numbers, which is read once; a row keeps its fraction as a float.  n
    below 1 is a DomainTooSmallError, raised before any unary count is
    derived from it, and an unknown engine ("batch" or "scalar") or method
    is a LukatreeError, raised before anything is drawn.
    """
    try:  # read once, so an iterator is not spent by the checks
        unary_fractions = tuple(unary_fractions)
    except TypeError:
        raise LukatreeError(f"unary fractions must be iterable: {unary_fractions!r}") from None
    if not _is_int(replicates) or replicates < 1:
        raise DomainTooSmallError(f"need an integer count of replicates >= 1, got {replicates!r}")
    if not unary_fractions:
        raise LukatreeError("need at least one unary fraction")
    for fraction in unary_fractions:
        if not (isinstance(fraction, Real) and 0.0 <= fraction < 1.0):  # also false for NaN
            raise LukatreeError(f"unary fraction {fraction!r} is not in [0, 1)")
    if not _is_int(n) or n < 1:
        raise DomainTooSmallError(f"need a tree size n >= 1, got n={n!r}")
    if n >= 2**31:
        # the batch engine keeps levels and heights in int32
        raise LukatreeError(f"tree size {n} is not below 2^31")
    if engine not in ("batch", "scalar"):
        raise LukatreeError(f"unknown engine {engine!r}")
    if method not in METHODS:
        raise LukatreeError(f"unknown method {method!r}, expected one of {METHODS}")
    # numpy loads here only, so that importing the package, and every
    # subcommand other than height-scan, goes without it
    import numpy as np

    from .batch import batch_heights, batch_valid_words

    alphabet = motzkin_alphabet()
    degrees = alphabet.degrees
    source = BitSource(seed)
    rows = []
    for row_idx, fraction in enumerate(unary_fractions):
        u = nearest_feasible_unary(n, round(fraction * n))
        t = motzkin_tuple(n, u)
        if engine == "batch":
            rng = np.random.default_rng([int(seed) & _MASK64, row_idx])
        heights = np.empty(replicates, dtype=np.int32)
        for done in range(0, replicates, _CHUNK):
            m = min(_CHUNK, replicates - done)
            if engine == "batch":
                words = batch_valid_words(rng, t.counts, m, method)
            else:
                words = np.empty((m, n), dtype=np.int8)
                for row in words:
                    row[:] = sample_lukasiewicz_word(source, t, alphabet, method)
            heights[done : done + m] = batch_heights(words, degrees)
        c = t.counts[2]
        mean = float(np.mean(heights))
        rows.append(
            ScanRow(
                fraction=float(fraction),
                u=u,
                c=c,
                n=n,
                replicates=replicates,
                mean_height=mean,
                mean_height_over_sqrt_n=mean / math.sqrt(n),
                mean_norm=mean * math.sqrt(c) / n,
                stddev=float(np.std(heights, ddof=1)) if replicates > 1 else 0.0,
            )
        )
    return rows


def height_scan_csv(rows: Sequence[ScanRow]) -> str:
    """Render scan rows as CSV, header included, byte-stable for fixed input."""
    lines = [HEIGHT_SCAN_COLUMNS]
    for r in rows:
        lines.append(
            f"{r.fraction!r},{r.u},{r.c},{r.n},{r.replicates},"
            f"{r.mean_height:.6f},{r.mean_height_over_sqrt_n:.6f},"
            f"{r.mean_norm:.6f},{r.stddev:.6f}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BitCostRow:
    """Measured dichotomic cost at one k, for totals k and k+1."""

    k: int
    replicates: int
    mean_bits: float  # uniform weights (1,..,1), total k
    stderr: float
    ratio: float  # mean_bits / (2 + log2 k)
    mean_bits_offset: float  # weights (2,1,..,1), total k+1
    stderr_offset: float
    ratio_offset: float
    ctilde: float  # closed-form worst-case mean, as float
    bound: float  # 2 + log2 k


def run_bitcost_scan(k_max: int, replicates: int, seed: int = 0) -> list[BitCostRow]:
    """Measure mean dichotomic bits per draw for every k in 2..k_max.

    One bit source drives the whole scan sequentially, so a fixed seed pins
    every number.  stderr columns are the standard error of the mean, letting
    callers check mean <= bound + 3 * stderr at whatever replication they
    chose.  k_max and replicates must be integers, else DomainTooSmallError,
    as for a seed that BitSource refuses.
    """
    if not _is_int(k_max) or k_max < 2:
        raise DomainTooSmallError(f"scan needs an integer k_max >= 2, got {k_max!r}")
    if not _is_int(replicates) or replicates < 2:
        raise DomainTooSmallError(
            f"need an integer count of replicates >= 2 for a standard error, got {replicates!r}"
        )
    source = BitSource(seed)
    rows = []
    for k in range(2, k_max + 1):
        bound = 2.0 + math.log2(k)
        stats = []
        for pool in (DiscreteWeights([1] * k), DiscreteWeights([2] + [1] * (k - 1))):
            costs = []
            for _ in range(replicates):
                before = source.bits_consumed
                dichotomic_draw(source, pool)
                costs.append(source.bits_consumed - before)
            # mean and standard error from exact integer sums
            s1 = sum(costs)
            s2 = sum(c * c for c in costs)
            variance = (replicates * s2 - s1 * s1) / (replicates * (replicates - 1))
            stats.append((s1 / replicates, math.sqrt(variance) / math.sqrt(replicates)))
        (mean_u, err_u), (mean_o, err_o) = stats
        rows.append(
            BitCostRow(
                k=k,
                replicates=replicates,
                mean_bits=mean_u,
                stderr=err_u,
                ratio=mean_u / bound,
                mean_bits_offset=mean_o,
                stderr_offset=err_o,
                ratio_offset=mean_o / bound,
                ctilde=float(mean_cost_closed_form(k)),
                bound=bound,
            )
        )
    return rows


def bitcost_csv(rows: Sequence[BitCostRow]) -> str:
    """Render bit-cost rows as CSV, header included."""
    lines = [",".join(f.name for f in fields(BitCostRow))]
    for r in rows:
        lines.append(
            f"{r.k},{r.replicates},{r.mean_bits:.6f},{r.stderr:.6f},{r.ratio:.6f},"
            f"{r.mean_bits_offset:.6f},{r.stderr_offset:.6f},{r.ratio_offset:.6f},"
            f"{r.ctilde:.6f},{r.bound:.6f}"
        )
    return "\n".join(lines) + "\n"
