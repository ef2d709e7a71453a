import errno
import hashlib
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import checkout_env, motzkin_height_law
from lukatree import batch, experiments
from lukatree import (
    HEIGHT_SCAN_COLUMNS,
    DegreeTuple,
    DomainTooSmallError,
    InfeasibleParityError,
    LukatreeError,
    bitcost_csv,
    enumerate_lukasiewicz,
    height,
    height_scan_csv,
    mean_cost_closed_form,
    motzkin_tuple,
    nearest_feasible_unary,
    run_bitcost_scan,
    run_height_scan,
    word_to_tree,
)


def test_motzkin_tuple_values():
    assert motzkin_tuple(7, 0) == DegreeTuple((4, 0, 3))
    assert motzkin_tuple(7, 2) == DegreeTuple((3, 2, 2))
    assert motzkin_tuple(5, 4) == DegreeTuple((1, 4, 0))
    assert motzkin_tuple(1, 0) == DegreeTuple((1, 0, 0))


def test_motzkin_tuple_rejects_bad_instances():
    with pytest.raises(InfeasibleParityError):
        motzkin_tuple(6, 0)
    with pytest.raises(InfeasibleParityError):
        motzkin_tuple(7, 1)
    with pytest.raises(DomainTooSmallError):
        motzkin_tuple(0, 0)
    with pytest.raises(DomainTooSmallError):
        motzkin_tuple(5, 5)
    with pytest.raises(DomainTooSmallError):
        motzkin_tuple(5, -1)


def test_nearest_feasible_unary():
    assert nearest_feasible_unary(1001, 500) == 500  # already feasible
    assert nearest_feasible_unary(1000, 500) == 499
    assert nearest_feasible_unary(1000, 0) == 1  # no neighbour below
    assert nearest_feasible_unary(7, 3) == 2
    for n in (999, 1000):
        u = nearest_feasible_unary(n, round(0.3 * n))
        motzkin_tuple(n, u)  # must not raise


def test_height_scan_deterministic_and_consistent():
    cfg = dict(n=25, unary_fractions=(0.0, 0.4, 0.8), replicates=200)
    rows = run_height_scan(**cfg)
    assert run_height_scan(**cfg) == rows
    assert height_scan_csv(rows) == height_scan_csv(run_height_scan(**cfg))
    assert len(rows) == 3
    for fraction, row in zip(cfg["unary_fractions"], rows):
        assert row.fraction == fraction
        assert row.u == nearest_feasible_unary(25, round(fraction * 25))
        t = motzkin_tuple(25, row.u)
        assert row.c == t.counts[2]
        assert row.n == 25 and row.replicates == 200
        assert row.mean_height > 0
        assert row.mean_height_over_sqrt_n == pytest.approx(row.mean_height / math.sqrt(25))
        assert row.mean_norm == pytest.approx(row.mean_height * math.sqrt(row.c) / 25)
        assert row.stddev > 0


def test_height_scan_csv_shape():
    rows = run_height_scan(n=15, unary_fractions=(0.0, 0.5), replicates=50, seed=3)
    text = height_scan_csv(rows)
    lines = text.splitlines()
    assert lines[0] == HEIGHT_SCAN_COLUMNS
    assert len(lines) == 3
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[3] == "15" and first[4] == "50"


def test_height_scan_reads_the_fractions_once():
    # the checks and the scan share one pass, so a generator is not spent
    rows = run_height_scan(15, (0.0, 0.5), 4, seed=3)
    assert run_height_scan(15, (f for f in (0.0, 0.5)), 4, seed=3) == rows


def test_height_scan_csv_writes_a_fraction_as_a_float():
    # a numpy float or a bool fraction is the float it stands for, in the row and the CSV
    rows = run_height_scan(11, (np.float64(0.5), False), 2)
    assert rows == run_height_scan(11, (0.5, 0.0), 2)
    assert [type(row.fraction) for row in rows] == [float, float]
    assert [line.split(",")[0] for line in height_scan_csv(rows).splitlines()[1:]] == ["0.5", "0.0"]


def test_height_scan_scalar_engine_agrees_with_batch():
    fractions = (0.0, 0.6)
    batch = run_height_scan(n=15, unary_fractions=fractions, replicates=3000, seed=1)
    for method in ("dichotomic", "permutation"):
        scalar = run_height_scan(
            n=15,
            unary_fractions=fractions,
            replicates=400,
            seed=1,
            method=method,
            engine="scalar",
        )
        for b, s in zip(batch, scalar):
            assert s.u == b.u and s.c == b.c
            gap = math.sqrt(
                (b.stddev**2) / b.replicates + (s.stddev**2) / s.replicates
            )
            assert abs(b.mean_height - s.mean_height) < 6 * gap


def test_height_law_oracle_matches_enumeration(motzkin):
    for n in range(1, 10):
        for u in range(n % 2 == 0, n, 2):
            t = motzkin_tuple(n, u)
            words = list(enumerate_lukasiewicz(t, motzkin))
            tally = Counter(height(word_to_tree(word, motzkin)) for word in words)
            law = {h: Fraction(m, len(words)) for h, m in tally.items()}
            assert motzkin_height_law(u, t.counts[2]) == law, t


@pytest.mark.parametrize("engine,replicates", [("batch", 20_000), ("scalar", 2_000)])
def test_height_scan_mean_matches_the_exact_law(engine, replicates):
    rows = run_height_scan(
        n=41, unary_fractions=(0.0, 0.5, 0.9), replicates=replicates, engine=engine
    )
    for row in rows:
        law = motzkin_height_law(row.u, row.c)
        mean = sum(h * p for h, p in law.items())
        variance = sum(h * h * p for h, p in law.items()) - mean**2
        stderr = math.sqrt(variance / replicates)
        assert abs(row.mean_height - mean) < 4 * stderr, (row, float(mean))


def test_scalar_height_scan_seeds_draw_distinct_trees():
    def scan(seed):
        rows = run_height_scan(
            n=41, unary_fractions=(0.5,), replicates=2, seed=seed, engine="scalar"
        )
        return height_scan_csv(rows)

    # replicate seeds of the form seed ^ rep would make seeds 0 and 1 share streams
    assert scan(0) != scan(1)
    assert scan(0) == scan(0)


@pytest.mark.parametrize(
    "fractions, replicates",
    [
        ((0.0,), 0),
        ((0.0,), -2),
        ((), 4),
        ((math.nan,), 4),
        ((0.1, math.inf), 4),
        ((-math.inf,), 4),
        ((1.0,), 4),
        ((-0.1,), 4),
        (("0.5",), 4),
        (0.5, 4),  # no iterable
    ],
)
@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_height_scan_rejects_bad_config(fractions, replicates, engine):
    with pytest.raises(LukatreeError):
        run_height_scan(n=9, unary_fractions=fractions, replicates=replicates, engine=engine)


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_height_scan_rejects_n_below_1(n, engine):
    # the size is checked before the parity fix-up, so the message names only n
    with pytest.raises(DomainTooSmallError, match=f"^need a tree size n >= 1, got n={n}$"):
        run_height_scan(n=n, unary_fractions=(0.0,), replicates=4, engine=engine)


@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_height_scan_rejects_n_past_the_int32_path(engine):
    with pytest.raises(LukatreeError, match="2\\^31"):
        run_height_scan(n=2**31 + 1, unary_fractions=(0.0,), replicates=1, engine=engine)


def test_height_scan_reads_the_seed_modulo_2_64():
    def scan(seed):
        return run_height_scan(n=21, unary_fractions=(0.5,), replicates=16, seed=seed)

    assert scan(-1) == scan(2**64 - 1) == scan(2**65 - 1)
    assert scan(-1) != scan(1)


def test_height_scan_rejects_unknown_engine(monkeypatch):
    # the engine and the method are config checks: they fail the same way,
    # for either engine, before anything is sampled
    def never(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    for name in ("BitSource", "sample_lukasiewicz_word", "motzkin_tuple"):
        monkeypatch.setattr(experiments, name, never)
    # run_height_scan imports the batch sampler at call time
    monkeypatch.setattr(batch, "batch_valid_words", never)
    for field, engine, method in (
        ("engine", "gpu", "dichotomic"),
        ("method", "batch", "gpu"),
        ("method", "scalar", "gpu"),
    ):
        with pytest.raises(LukatreeError, match=f"^unknown {field} 'gpu'"):
            run_height_scan(
                n=9, unary_fractions=(0.0,), replicates=4, engine=engine, method=method
            )


def counting_forks(monkeypatch) -> list[int]:
    """Patch os.fork to record, in the caller, the pid of every child it makes."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def spread_over(monkeypatch, cpus: int) -> None:
    """Report `cpus` usable CPUs, and let scans too small to pay for a fork fork."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiments, "_FORK_WORK", 1)


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


# four fractions of two chunks each, so that a worker measures several
# fractions and each fraction reads its stream across a chunk boundary
SPREAD_SCAN = dict(n=31, unary_fractions=(0.0, 0.3, 0.6, 0.9), replicates=2050, seed=7)


@pytest.mark.parametrize("method", ["dichotomic", "permutation"])
def test_height_scan_bytes_do_not_depend_on_the_worker_count(monkeypatch, method):
    forks = counting_forks(monkeypatch)
    csv = {}
    for cpus in (1, 4):
        spread_over(monkeypatch, cpus)
        csv[cpus] = height_scan_csv(run_height_scan(**SPREAD_SCAN, method=method))
        assert len(forks) == min(cpus, 4) - 1
        forks.clear()
    assert csv[1] == csv[4]
    assert no_child_left()


def test_height_scan_forks_no_more_workers_than_fractions(monkeypatch):
    forks = counting_forks(monkeypatch)
    spread_over(monkeypatch, 4)
    run_height_scan(15, (0.5,), 4)
    run_height_scan(15, (0.0, 0.5), 4, engine="scalar")
    assert forks == []
    run_height_scan(15, (0.0, 0.5), 4)
    assert len(forks) == 1
    assert no_child_left()


def test_height_scan_forks_only_for_fractions_worth_a_fork(monkeypatch):
    # a fork costs milliseconds whatever the work, so a fraction must draw
    # _FORK_WORK tree nodes (n * replicates) before a child takes it
    forks = counting_forks(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    n = 128
    below = (experiments._FORK_WORK - 1) // n
    run_height_scan(n, (0.0, 0.5), below)
    run_height_scan(15, (0.0, 0.5), 4)
    assert forks == []
    run_height_scan(n, (0.0, 0.5), below + 1)
    assert len(forks) == 1
    assert no_child_left()


@pytest.mark.parametrize("failing", ["children", "caller", "everywhere"])
def test_height_scan_recovers_from_failed_workers(monkeypatch, failing):
    # a child that fails has its fractions measured again by the caller, so
    # an error that is not the child's alone reaches the caller with its type
    expected = height_scan_csv(run_height_scan(**SPREAD_SCAN))
    forks = counting_forks(monkeypatch)
    spread_over(monkeypatch, 3)
    caller = os.getpid()
    heights = batch.batch_heights

    def failing_heights(words, degrees):
        fails = {
            "children": os.getpid() != caller,
            "caller": os.getpid() == caller,
            "everywhere": True,
        }
        if fails[failing]:
            raise MemoryError("no room for the heights")
        return heights(words, degrees)

    monkeypatch.setattr(batch, "batch_heights", failing_heights)
    if failing == "children":
        assert height_scan_csv(run_height_scan(**SPREAD_SCAN)) == expected
    else:
        with pytest.raises(MemoryError, match="no room"):
            run_height_scan(**SPREAD_SCAN)
    assert len(forks) == 2
    assert no_child_left()


# a 3-fraction scan on 3 processes in a fresh interpreter, recording forks,
# the caller's batch_heights calls, and the threads the caller runs right
# after each fork, which Python 3.12+ reads to warn of a fork beside threads
PROBE_SCAN = """
import os, signal
from lukatree import batch, experiments, height_scan_csv, run_height_scan
experiments._usable_cpus = lambda: 3
experiments._FORK_WORK = 1
caller = os.getpid()
forks, threads, calls = [], [], []

def threads_now():
    try:
        with open("/proc/self/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[17])
    except OSError:  # no procfs: nothing to read
        return 1

fork = os.fork
def counted():
    pid = fork()
    if pid:
        forks.append(pid)
        threads.append(threads_now())
    return pid
os.fork = counted

heights = batch.batch_heights
def counted_heights(words, degrees):
    if os.getpid() == caller:
        calls.append(len(words))
    return heights(words, degrees)
batch.batch_heights = counted_heights
"""

QUIET_CHILDREN_PROBE = PROBE_SCAN + """
print("before")
print(height_scan_csv(run_height_scan(21, (0.0, 0.4, 0.8), 8, seed=2)), end="")
print("forks", len(forks), "threads", set(threads), "caller measured", len(calls))
"""


def test_height_scan_children_leave_the_callers_output_alone():
    # stdout is a pipe, so "before" sits in the caller's buffer at the fork:
    # a child that flushed it on the way out would print it twice.  The
    # caller still runs one thread after each fork: numpy's OpenBLAS threads
    # stop at a fork, so Python 3.12+ has no fork-with-threads warning to give
    done = subprocess.run(
        [sys.executable, "-c", QUIET_CHILDREN_PROBE],
        capture_output=True, text=True, env=checkout_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    csv = height_scan_csv(run_height_scan(21, (0.0, 0.4, 0.8), 8, seed=2))
    assert done.stdout == "before\n" + csv + "forks 2 threads {1} caller measured 1\n"
    assert done.stderr == ""


SIGCHLD_IGNORED_PROBE = PROBE_SCAN + """
signal.signal(signal.SIGCHLD, signal.SIG_IGN)
print(height_scan_csv(run_height_scan(21, (0.0, 0.4, 0.8), 8, seed=2)), end="")
print("forks", len(forks), "caller measured", len(calls))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def test_height_scan_survives_ignored_sigchld():
    # with SIGCHLD ignored the system reaps the children, and waitpid fails
    # once they are gone: the caller, which cannot tell whether they
    # finished, measures their fractions again and gives the same bytes
    done = subprocess.run(
        [sys.executable, "-c", SIGCHLD_IGNORED_PROBE],
        capture_output=True, text=True, env=checkout_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    csv = height_scan_csv(run_height_scan(21, (0.0, 0.4, 0.8), 8, seed=2))
    assert done.stdout == csv + "forks 2 caller measured 3\nno child left\n"
    assert done.stderr == ""


def test_height_scan_does_not_fork_beside_another_thread(monkeypatch):
    expected = height_scan_csv(run_height_scan(**SPREAD_SCAN))

    def refuse():
        raise AssertionError("forked while another thread runs")

    spread_over(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", refuse)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert height_scan_csv(run_height_scan(**SPREAD_SCAN)) == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_height_scan_runs_in_the_caller_when_fork_fails(monkeypatch):
    expected = height_scan_csv(run_height_scan(**SPREAD_SCAN))

    def out_of_processes():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    spread_over(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", out_of_processes)
    assert height_scan_csv(run_height_scan(**SPREAD_SCAN)) == expected


def test_bitcost_scan_rows():
    rows = run_bitcost_scan(8, replicates=400, seed=0)
    assert [r.k for r in rows] == list(range(2, 9))
    assert rows == run_bitcost_scan(8, replicates=400, seed=0)
    for row in rows:
        assert row.bound == pytest.approx(2 + math.log2(row.k))
        assert row.ctilde == pytest.approx(float(mean_cost_closed_form(row.k)))
        assert row.ratio == pytest.approx(row.mean_bits / row.bound)
        assert row.mean_bits <= row.bound + 3 * row.stderr
        assert row.mean_bits_offset <= row.bound + 3 * row.stderr_offset
        assert row.replicates == 400


def test_bitcost_scan_even_split_is_exact():
    row = run_bitcost_scan(2, replicates=100, seed=5)[0]
    # k = 2 uniform weights: every draw costs exactly one bit
    assert row.mean_bits == 1.0 and row.stderr == 0.0
    # offset weights (2,1): the mean is exactly 2 in law; allow sampling noise
    assert abs(row.mean_bits_offset - 2.0) < 0.5


def test_bitcost_scan_pinned_past_k_64():
    # every row's bytes, on pools wider than the default scan's k <= 64
    text = bitcost_csv(run_bitcost_scan(300, 30, seed=1))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e11ff32c31e46d7f8a0a69c26ff57bd87bc18f5655a223f1b37c861087e62e43"
    )


def test_bitcost_csv_shape():
    text = bitcost_csv(run_bitcost_scan(3, replicates=50, seed=2))
    lines = text.splitlines()
    assert lines[0] == (
        "k,replicates,mean_bits,stderr,ratio,mean_bits_offset,stderr_offset,ratio_offset,ctilde,bound"
    )
    assert len(lines) == 3
    assert lines[1].startswith("2,50,")
    assert text.endswith("\n")


def test_bitcost_scan_validation():
    with pytest.raises(DomainTooSmallError):
        run_bitcost_scan(1, 100)
    with pytest.raises(DomainTooSmallError):
        run_bitcost_scan(4, 1)
