"""Workloads, replays, output checks, spans and statistics of the benchmark.

Each workload op is one in-process ``lukatree.cli.main`` call.  Its *replay*
rebuilds the same output from the library's public functions, one span around
each call, so that a traced run can say where an op's time and bits went.  The
replay must reproduce the CLI's stdout byte for byte.  Every sample op and
every traced scan is checked against it, which keeps the decomposition honest
as the library changes.

Importing this module imports ``lukatree``: put ``src/`` on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import hostspeed

from lukatree import cli
from lukatree.alphabet import degree_counts, is_f_valid, motzkin_alphabet, parse_alphabet, parse_tuple
from lukatree.batch import batch_heights, batch_rotate, batch_valid_words
from lukatree.bitstream import BitSource, fisher_yates
from lukatree.enumeration import valid_word_count
from lukatree.experiments import (
    HEIGHT_SCAN_COLUMNS,
    ScanRow,
    height_scan_csv,
    motzkin_tuple,
    nearest_feasible_unary,
)
from lukatree.samplers import DiscreteWeights, dichotomic_draw
from lukatree.tree import height, serialize, word_to_tree
from lukatree.words import Classification, classify, permutation_to_valid_word, to_lukasiewicz

clock = time.perf_counter_ns

# Outputs of the first REF_OPS ops of a run give the exact, seed-determined
# figures (bits per tree, output digest); later ops only add timing samples.
REF_OPS = {"sample": 32, "scan": 1}

# Rows per batch chunk; mirrors the default of lukatree.batch.sample_heights,
# which fixes how the numpy stream is consumed.
SCAN_CHUNK = 2048

# Rows per scan chunk whose batch height the scalar path recomputes.
SPOT_ROWS = 3

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

# Ops of a traced run whose raw spans are written out.
KEEP_OPS = 2


def op_seed(seed: int, index: int) -> int:
    """Seed of op `index` of a run seeded `seed`; distinct for distinct pairs."""
    if not 0 <= seed < 1 << 32 or not 0 <= index < 1 << 32:
        raise ValueError(f"seed {seed} and op index {index} must lie in [0, 2**32)")
    return seed << 32 | index


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and captured stdout of one in-process CLI call (-1 if it raised)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            return -1, f"{type(exc).__name__}: {exc}\n"
    return code, buf.getvalue()


# ---------------------------------------------------------------- statistics


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def supported(n: int, q: float) -> bool:
    """True when a sample of n leaves at least MIN_BEYOND samples beyond q."""
    return n > 0 and samples_beyond(n, q) >= MIN_BEYOND


@dataclass
class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, op: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"op {op}: " + "; ".join(problems))

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------- spans


class Tracer:
    """Spans of the current op, kept in memory: name, start, end, parent.

    Span names are ``<layer>.<call>``; the layer is the lukatree module the
    call enters, or ``op`` for the root span that the benchmark itself owns.
    ``finish_op`` turns the op's spans into per-layer self times and keeps the
    raw spans of the first KEEP_OPS ops for writing out at the end.
    """

    def __init__(self):
        self.op = -1
        self.spans: list[list] = []
        self.kept: list[tuple[str, int, int, int, int]] = []

    def start_op(self, op: int) -> int:
        self.op = op
        self.spans = []
        return self.begin("op")

    def begin(self, name: str, parent: int = -1) -> int:
        self.spans.append([name, clock(), 0, parent])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()

    def add(self, name: str, start: int, end: int, parent: int) -> None:
        self.spans.append([name, start, end, parent])

    def finish_op(self) -> dict[str, float]:
        """Per-op totals in ms: each span name's duration and each layer's self time."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(spans, child_ns):
            layer = name.split(".", 1)[0]
            out[name + "_ms"] = out.get(name + "_ms", 0.0) + (end - start) / 1e6
            out[layer + ".self_ms"] = out.get(layer + ".self_ms", 0.0) + (end - start - inner) / 1e6
        if self.op < KEEP_OPS:
            base = len(self.kept)
            self.kept.extend(
                (name, start, end, parent + base if parent >= 0 else -1, self.op)
                for name, start, end, parent in spans
            )
        return out


class NullTracer(Tracer):
    """Records nothing: for replays whose only job is to check an output."""

    def begin(self, name: str, parent: int = -1) -> int:
        return 0

    def end(self, index: int) -> None:
        pass

    def add(self, name: str, start: int, end: int, parent: int) -> None:
        pass


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class SampleWorkload:
    """One op: ``lukatree sample --count-bits`` of one tree of a fixed tuple."""

    method: str  # CLI spelling: "dicho" or "perm"
    alphabet: str = "a:-1,b:0,c:1"
    counts: str = "3334,3334,3333"
    kind: str = "sample"

    def argv(self, seed: int) -> list[str]:
        return [
            "sample", "--alphabet", self.alphabet, "--tuple", self.counts,
            "--method", self.method, "--count-bits", "--seed", str(seed),
        ]

    def trees_per_op(self) -> int:
        return 1

    host_reference = staticmethod(hostspeed.reference)

    @property
    def k(self) -> int:
        return parse_alphabet(self.alphabet).k

    def floor_bits(self) -> float:
        """log2 of the number of valid words: the fair-bit floor per tree."""
        return math.log2(valid_word_count(parse_tuple(self.counts), parse_alphabet(self.alphabet)))

    def replay(self, seed: int, tracer: Tracer) -> tuple[str, dict[str, float]]:
        """The op's stdout rebuilt from public calls, and its exact counts."""
        root = tracer.start_op(tracer.op + 1)
        span = tracer.begin("alphabet.parse", root)
        alphabet = parse_alphabet(self.alphabet)
        counts = degree_counts(parse_tuple(self.counts))
        tracer.end(span)
        span = tracer.begin("bitstream.source", root)
        source = BitSource(seed)
        tracer.end(span)
        n = sum(counts)
        found: dict[str, float] = {"trees": 1}
        if self.method == "dicho":
            span = tracer.begin("alphabet.is_f_valid", root)
            if not is_f_valid(counts, alphabet):
                raise ValueError(f"tuple {counts} is not f-valid")
            tracer.end(span)
            parent = tracer.begin("samplers.valid_word", root)
            pool = DiscreteWeights(counts)
            word = []
            add = tracer.add
            for _ in range(n):
                t0 = clock()
                letter = dichotomic_draw(source, pool)
                t1 = clock()
                pool.decrement(letter)
                t2 = clock()
                add("samplers.draw", t0, t1, parent)
                add("samplers.decrement", t1, t2, parent)
                word.append(letter)
            tracer.end(parent)
            found["draws"] = n
        else:
            span = tracer.begin("bitstream.fisher_yates", root)
            sigma = fisher_yates(source, n)
            tracer.end(span)
            found["shuffle_bits"] = source.bits_consumed
            span = tracer.begin("words.fill", root)
            word = permutation_to_valid_word(sigma, counts, alphabet)
            tracer.end(span)
        found["bits"] = source.bits_consumed
        span = tracer.begin("words.rotate", root)
        luka = to_lukasiewicz(word, alphabet)
        tracer.end(span)
        span = tracer.begin("tree.decode", root)
        tree = word_to_tree(luka, alphabet)
        tracer.end(span)
        span = tracer.begin("tree.serialize", root)
        line = serialize(tree, "luka")
        tracer.end(span)
        tracer.end(root)
        if self.method == "perm":
            # bits the shuffle would spend if every uniform_int accepted its first block
            found["shuffle_min_bits"] = sum((i - 1).bit_length() for i in range(2, n + 1))
        return f"{line} bits={source.bits_consumed}\n", found

    def check(self, output: str, seed: int) -> list[str]:
        """Problems with one op's stdout, judged on its own (no replay)."""
        lines = output.splitlines()
        if len(lines) != 1:
            return [f"expected 1 output line, got {len(lines)}"]
        text, sep, bits = lines[0].partition(" bits=")
        if not sep or not bits.isdigit():
            return ["line lacks a ' bits=<count>' suffix"]
        alphabet = parse_alphabet(self.alphabet)
        try:
            word = alphabet.parse_word(text)
        except ValueError as exc:
            return [f"word does not parse over the alphabet: {exc}"]
        problems = []
        verdict = classify(word, alphabet)
        if verdict is not Classification.LUKASIEWICZ:
            problems.append(f"word classifies as {verdict.value}")
        census = tuple(word.count(i) for i in range(alphabet.k))
        if census != degree_counts(parse_tuple(self.counts)):
            problems.append(f"letter census {census} differs from the tuple")
        return problems


@dataclass(frozen=True)
class ScanWorkload:
    """One op: ``lukatree height-scan`` of Motzkin trees with the batch engine."""

    n: int = 1000
    fractions: str = "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
    replicates: int = 2048
    kind: str = "scan"

    def argv(self, seed: int) -> list[str]:
        return [
            "height-scan", "--n", str(self.n), "--fractions", self.fractions,
            "--replicates", str(self.replicates), "--seed", str(seed),
        ]

    @property
    def k(self) -> int:
        return motzkin_alphabet().k

    def fraction_values(self) -> tuple[float, ...]:
        return tuple(float(f) for f in self.fractions.split(","))

    def trees_per_op(self) -> int:
        return self.replicates * len(self.fraction_values())

    @staticmethod
    def host_reference() -> int:
        """Fixed numpy work shaped like a batch walk: small ops on 2048-row arrays."""
        depth = np.arange(2048, dtype=np.int32) % 7
        best = np.zeros(2048, dtype=np.int32)
        for _ in range(60):
            np.maximum(best, depth, out=best)
            push = depth > 3
            depth[push] -= 1
            depth[np.flatnonzero(~push)] += 1
        return int(best.sum())

    def tuples(self) -> list[tuple[int, ...]]:
        """Counts tuple of each fraction, as the CLI derives it."""
        return [
            motzkin_tuple(self.n, nearest_feasible_unary(self.n, round(f * self.n))).counts
            for f in self.fraction_values()
        ]

    def replay(self, seed: int, tracer: Tracer) -> tuple[str, dict[str, float]]:
        """The op's CSV rebuilt from public calls, and per-fraction heights time."""
        root = tracer.start_op(tracer.op + 1)
        span = tracer.begin("alphabet.motzkin", root)
        alphabet = motzkin_alphabet()
        degrees = alphabet.degrees
        tracer.end(span)
        found: dict[str, float] = {"trees": self.trees_per_op()}
        rows = []
        for row_idx, fraction in enumerate(self.fraction_values()):
            span = tracer.begin("experiments.motzkin_tuple", root)
            u = nearest_feasible_unary(self.n, round(fraction * self.n))
            counts = motzkin_tuple(self.n, u).counts
            tracer.end(span)
            rng = np.random.default_rng([seed, row_idx])
            heights = np.empty(self.replicates, dtype=np.int32)
            heights_ns = 0
            for done in range(0, self.replicates, SCAN_CHUNK):
                m = min(SCAN_CHUNK, self.replicates - done)
                span = tracer.begin("batch.words", root)
                words = batch_valid_words(rng, counts, m, "dichotomic")
                tracer.end(span)
                span = tracer.begin("batch.rotate", root)
                luka = batch_rotate(words, degrees)
                tracer.end(span)
                start = clock()
                heights[done : done + m] = batch_heights(luka, degrees)
                end = clock()
                tracer.add("batch.heights", start, end, root)
                heights_ns += end - start
            found[f"batch.heights_ms.f{fraction!r}"] = heights_ns / 1e6
            span = tracer.begin("experiments.row", root)
            mean = float(np.mean(heights))
            c = counts[2]
            rows.append(
                ScanRow(
                    fraction=fraction,
                    u=u,
                    c=c,
                    n=self.n,
                    replicates=self.replicates,
                    mean_height=mean,
                    mean_height_over_sqrt_n=mean / math.sqrt(self.n),
                    mean_norm=mean * math.sqrt(c) / self.n,
                    stddev=float(np.std(heights, ddof=1)) if self.replicates > 1 else 0.0,
                )
            )
            tracer.end(span)
        span = tracer.begin("experiments.csv", root)
        csv = height_scan_csv(rows)
        tracer.end(span)
        tracer.end(root)
        return csv, found

    def check(self, output: str, seed: int) -> list[str]:
        """Problems with one scan's CSV, and batch heights that the scalar path disputes.

        The CSV is judged on its own: each row must start with its fraction's
        u, c, n and replicates, and its height columns must agree with one
        another to the 6 decimals printed.  The op's words are then drawn again and
        a few rows per chunk are decoded by ``word_to_tree`` and measured by
        ``height``, which must agree with ``batch_heights`` on those rows.
        """
        lines = output.splitlines()
        fractions = self.fraction_values()
        if not lines or lines[0] != HEIGHT_SCAN_COLUMNS:
            return ["CSV header missing or changed"]
        if len(lines) != 1 + len(fractions):
            return [f"expected {len(fractions)} CSV rows, got {len(lines) - 1}"]
        problems = []
        for line, fraction, counts in zip(lines[1:], fractions, self.tuples()):
            cells = line.split(",")
            try:
                values = [float(x) for x in cells]
            except ValueError:
                problems.append(f"row {line!r} has a non-numeric cell")
                continue
            if len(values) != 9 or not all(math.isfinite(v) for v in values):
                problems.append(f"row {line!r} is not 9 finite numbers")
                continue
            expected = (fraction, counts[1], counts[2], self.n, self.replicates)
            if tuple(values[:5]) != expected:
                problems.append(f"row {line!r} does not start with {expected}")
                continue
            mean, over_sqrt_n, norm, stddev = values[5:]
            # A printed column is within 5e-7 of its exact value, and so is the
            # printed mean, which the recomputation scales by at most 1.
            if not (0 < mean <= self.n and stddev >= 0
                    and math.isclose(over_sqrt_n, mean / math.sqrt(self.n), rel_tol=0, abs_tol=1e-6)
                    and math.isclose(norm, mean * math.sqrt(counts[2]) / self.n, rel_tol=0, abs_tol=1e-6)):
                problems.append(f"row {line!r} has inconsistent height columns")
        alphabet = motzkin_alphabet()
        degrees = alphabet.degrees
        for row_idx, counts in enumerate(self.tuples()):
            rng = np.random.default_rng([seed, row_idx])
            for done in range(0, self.replicates, SCAN_CHUNK):
                m = min(SCAN_CHUNK, self.replicates - done)
                luka = batch_rotate(batch_valid_words(rng, counts, m, "dichotomic"), degrees)
                spot = luka[np.linspace(0, m - 1, SPOT_ROWS, dtype=int)]
                for word, h in zip(spot, batch_heights(spot, degrees)):
                    if height(word_to_tree(word.tolist(), alphabet)) != h:
                        problems.append(f"fraction row {row_idx}: batch height {h} disagrees with the tree")
        return problems


WORKLOADS = {
    "sample-dicho": SampleWorkload("dicho"),
    "sample-perm": SampleWorkload("perm"),
    "height-scan": ScanWorkload(),
}


def verify(
    workload, seed: int, output: str, code: int, tracer: Tracer, replay: bool = True
) -> tuple[list[str], dict]:
    """All checks on one op: exit code, the workload's own checks and, if asked, replay equality."""
    problems = [] if code == 0 else [f"CLI exited with status {code}"]
    problems += workload.check(output, seed)
    if not replay:
        return problems, {}
    try:
        expected, found = workload.replay(seed, tracer)
    except Exception as exc:  # a failed replay is a failed op, not a crashed run
        return problems + [f"replay raised {type(exc).__name__}: {exc}"], {}
    if output != expected:
        problems.append("CLI output differs from the public-call replay")
    return problems, found


def next_bit_ns(bits: int, seed: int) -> float:
    """Mean ns per BitSource.next_bit over `bits` draws from a fresh source."""
    source = BitSource(seed)
    draw = source.next_bit
    start = clock()
    for _ in range(bits):
        draw()
    return (clock() - start) / bits


def batch_peak_alloc_mib(workload: ScanWorkload, seed: int) -> float:
    """tracemalloc peak of one batch chunk (words, rotate, heights) at the last fraction."""
    counts = workload.tuples()[-1]
    degrees = motzkin_alphabet().degrees
    rng = np.random.default_rng([seed, len(workload.tuples()) - 1])
    tracemalloc.start()
    try:
        words = batch_valid_words(rng, counts, min(SCAN_CHUNK, workload.replicates), "dichotomic")
        batch_heights(batch_rotate(words, degrees), degrees)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20
