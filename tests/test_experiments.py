import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import motzkin_height_law
from lukatree import batch, experiments
from lukatree import (
    BITCOST_COLUMNS,
    HEIGHT_SCAN_COLUMNS,
    DegreeTuple,
    DomainTooSmallError,
    HeightScanConfig,
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
    cfg = HeightScanConfig(n=25, unary_fractions=(0.0, 0.4, 0.8), replicates=200)
    rows = run_height_scan(cfg)
    assert run_height_scan(cfg) == rows
    assert height_scan_csv(rows) == height_scan_csv(run_height_scan(cfg))
    assert len(rows) == 3
    for fraction, row in zip(cfg.unary_fractions, rows):
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
    cfg = HeightScanConfig(n=15, unary_fractions=(0.0, 0.5), replicates=50, seed=3)
    text = height_scan_csv(run_height_scan(cfg))
    lines = text.splitlines()
    assert lines[0] == HEIGHT_SCAN_COLUMNS
    assert len(lines) == 3
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[3] == "15" and first[4] == "50"


def test_height_scan_scalar_engine_agrees_with_batch():
    fractions = (0.0, 0.6)
    batch = run_height_scan(
        HeightScanConfig(n=15, unary_fractions=fractions, replicates=3000, seed=1)
    )
    for method in ("dichotomic", "permutation"):
        scalar = run_height_scan(
            HeightScanConfig(
                n=15,
                unary_fractions=fractions,
                replicates=400,
                seed=1,
                method=method,
                engine="scalar",
            )
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
    cfg = HeightScanConfig(
        n=41, unary_fractions=(0.0, 0.5, 0.9), replicates=replicates, engine=engine
    )
    for row in run_height_scan(cfg):
        law = motzkin_height_law(row.u, row.c)
        mean = sum(h * p for h, p in law.items())
        variance = sum(h * h * p for h, p in law.items()) - mean**2
        stderr = math.sqrt(variance / replicates)
        assert abs(row.mean_height - mean) < 4 * stderr, (row, float(mean))


def test_scalar_height_scan_seeds_draw_distinct_trees():
    def scan(seed):
        cfg = HeightScanConfig(
            n=41, unary_fractions=(0.5,), replicates=2, seed=seed, engine="scalar"
        )
        return height_scan_csv(run_height_scan(cfg))

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
    ],
)
@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_height_scan_rejects_bad_config(fractions, replicates, engine):
    cfg = HeightScanConfig(
        n=9, unary_fractions=fractions, replicates=replicates, engine=engine
    )
    with pytest.raises(LukatreeError):
        run_height_scan(cfg)


@pytest.mark.parametrize("n", [0, -3])
@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_height_scan_rejects_n_below_1(n, engine):
    # the size is checked before the parity fix-up, so the message names only n
    cfg = HeightScanConfig(n=n, unary_fractions=(0.0,), replicates=4, engine=engine)
    with pytest.raises(DomainTooSmallError, match=f"^need a tree size n >= 1, got n={n}$"):
        run_height_scan(cfg)


@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_height_scan_rejects_n_past_the_int32_path(engine):
    cfg = HeightScanConfig(n=2**31 + 1, unary_fractions=(0.0,), replicates=1, engine=engine)
    with pytest.raises(LukatreeError, match="2\\^31"):
        run_height_scan(cfg)


def test_height_scan_reads_the_seed_modulo_2_64():
    def scan(seed):
        cfg = HeightScanConfig(n=21, unary_fractions=(0.5,), replicates=16, seed=seed)
        return run_height_scan(cfg)

    assert scan(-1) == scan(2**64 - 1) == scan(2**65 - 1)
    assert scan(-1) != scan(1)


def test_height_scan_rejects_unknown_engine(monkeypatch):
    # the engine is a config check: it fails before anything is sampled
    def never(*args, **kwargs):
        raise AssertionError("sampled before the engine was checked")

    for name in ("BitSource", "sample_lukasiewicz_word", "motzkin_tuple"):
        monkeypatch.setattr(experiments, name, never)
    # run_height_scan imports the batch sampler at call time
    monkeypatch.setattr(batch, "batch_valid_words", never)
    cfg = HeightScanConfig(n=9, unary_fractions=(0.0,), replicates=4, engine="gpu")
    with pytest.raises(LukatreeError, match="unknown engine 'gpu'"):
        run_height_scan(cfg)


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
    assert lines[0] == BITCOST_COLUMNS
    assert len(lines) == 3
    assert lines[1].startswith("2,50,")
    assert text.endswith("\n")


def test_bitcost_scan_validation():
    with pytest.raises(DomainTooSmallError):
        run_bitcost_scan(1, 100)
    with pytest.raises(DomainTooSmallError):
        run_bitcost_scan(4, 1)
