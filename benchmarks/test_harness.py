"""Tests of the benchmark's own helpers.  Run: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import hostspeed  # noqa: E402

SMALL_SAMPLES = [harness.SampleWorkload("dicho", counts="3,1,2"), harness.SampleWorkload("perm", counts="3,1,2")]
# 2100 rows take two batch chunks, so the replay's chunking is exercised too.
SMALL_SCAN = harness.ScanWorkload(n=21, fractions="0,0.5", replicates=2100)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_p90_needs_ten_samples_beyond_it():
    assert harness.samples_beyond(100, 90) == 10
    assert harness.supported(100, 90)
    assert not harness.supported(99, 90)
    assert not harness.supported(2, 90)
    assert not harness.supported(0, 50)
    assert harness.supported(1000, 99)
    assert not harness.supported(999, 99)


def test_tally_counts_failed_ops_against_attempted():
    tally = harness.Tally()
    assert tally.fail_rate == 0.0
    tally.record(0, [])
    tally.record(1, ["bad word", "bad bits"])
    tally.record(2, [])
    tally.record(3, ["bad census"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_rate == 0.5
    assert tally.messages == ["op 1: bad word; bad bits", "op 3: bad census"]


def test_op_seeds_never_collide():
    seen = {harness.op_seed(seed, i) for seed in range(4) for i in (0, 1, 2**32 - 1)}
    assert len(seen) == 12
    with pytest.raises(ValueError):
        harness.op_seed(-1, 0)
    with pytest.raises(ValueError):
        harness.op_seed(0, 2**32)


def test_tracer_self_time_excludes_children():
    tracer = harness.Tracer()
    tracer.start_op(0)
    tracer.spans[0][1:3] = [0, 10_000_000]
    tracer.add("samplers.valid_word", 1_000_000, 9_000_000, 0)
    tracer.add("samplers.draw", 2_000_000, 3_000_000, 1)
    tracer.add("samplers.draw", 4_000_000, 6_000_000, 1)
    tracer.add("tree.decode", 9_000_000, 10_000_000, 0)
    totals = tracer.finish_op()
    assert totals["op_ms"] == 10.0
    assert totals["op.self_ms"] == 1.0
    assert totals["samplers.draw_ms"] == 3.0
    assert totals["samplers.self_ms"] == 8.0  # 5 ms of loop glue plus 3 ms of draws
    assert totals["tree.self_ms"] == 1.0
    assert [span[3] for span in tracer.kept] == [-1, 0, 1, 1, 0]
    for op in range(1, harness.KEEP_OPS + 1):
        tracer.start_op(op)
        tracer.end(0)
        tracer.finish_op()
    assert len(tracer.kept) == 5 + harness.KEEP_OPS - 1  # a root span for each later op below KEEP_OPS


@pytest.mark.parametrize("workload", [*SMALL_SAMPLES, SMALL_SCAN], ids=lambda w: w.kind)
def test_replay_reproduces_cli_output(workload):
    tracer = harness.Tracer()
    for i in range(3):
        seed = harness.op_seed(5, i)
        code, output = harness.run_cli(workload.argv(seed))
        problems, found = harness.verify(workload, seed, output, code, tracer)
        assert problems == []
        assert found["trees"] == workload.trees_per_op()


@pytest.mark.parametrize("workload", SMALL_SAMPLES, ids=lambda w: w.method)
def test_replay_counts_the_cli_bits(workload):
    seed = harness.op_seed(3, 0)
    _, output = harness.run_cli(workload.argv(seed))
    _, found = workload.replay(seed, harness.Tracer())
    assert output.endswith(f" bits={found['bits']}\n")


def test_sample_checks_catch_bad_outputs():
    workload = SMALL_SAMPLES[0]
    seed = harness.op_seed(0, 0)
    _, output = harness.run_cli(workload.argv(seed))
    word, _, bits = output.rstrip("\n").partition(" bits=")
    tracer = harness.Tracer()

    def problems(text, code=0):
        return harness.verify(workload, seed, text, code, tracer)[0]

    assert problems(output) == []
    assert problems(output, code=1)[0] == "CLI exited with status 1"
    assert problems(f"{word} bits={int(bits) + 1}\n") == ["CLI output differs from the public-call replay"]
    assert any("classifies as" in p for p in problems("aaabcc bits=0\n"))
    assert any("census" in p for p in problems("caa bits=0\n"))
    assert any("does not parse" in p for p in problems("cxaab bits=0\n"))
    assert any("bits=" in p for p in problems(word + "\n"))
    assert any("1 output line" in p for p in problems(output * 2))


def test_scan_checks_catch_bad_rows():
    seed = harness.op_seed(0, 0)
    _, output = harness.run_cli(SMALL_SCAN.argv(seed))
    assert SMALL_SCAN.check(output, seed) == []
    header, first, second = output.splitlines()
    cells = first.split(",")
    assert SMALL_SCAN.check("\n".join([header, first]), seed) == ["expected 2 CSV rows, got 1"]
    nan_row = ",".join(cells[:5] + ["nan"] + cells[6:])
    assert "not 9 finite numbers" in SMALL_SCAN.check("\n".join([header, nan_row, second]), seed)[0]
    wrong_u = ",".join(cells[:1] + [str(int(cells[1]) + 2)] + cells[2:])
    assert "does not start with" in SMALL_SCAN.check("\n".join([header, wrong_u, second]), seed)[0]
    assert SMALL_SCAN.check("", seed) == ["CSV header missing or changed"]


@pytest.mark.parametrize("column, change", [(5, 0.01), (6, 0.00001), (7, -0.00001), (8, None)])
def test_scan_checks_catch_inconsistent_height_columns(column, change):
    seed = harness.op_seed(0, 0)
    _, output = harness.run_cli(SMALL_SCAN.argv(seed))
    header, first, second = output.splitlines()
    cells = first.split(",")
    cells[column] = "-1.000000" if change is None else f"{float(cells[column]) + change:.6f}"
    problems = SMALL_SCAN.check("\n".join([header, ",".join(cells), second]), seed)
    assert problems == [f"row {','.join(cells)!r} has inconsistent height columns"]


def test_scan_check_catches_batch_heights_that_disagree_with_the_tree(monkeypatch):
    seed = harness.op_seed(0, 0)
    _, output = harness.run_cli(SMALL_SCAN.argv(seed))
    real = harness.batch_heights
    monkeypatch.setattr(harness, "batch_heights", lambda words, degrees: real(words, degrees) + 1)
    problems = SMALL_SCAN.check(output, seed)
    # spot rows in each of two chunks per fraction, two fractions
    assert len(problems) == harness.SPOT_ROWS * 2 * 2
    assert all("disagrees with the tree" in p for p in problems)


def test_host_speed_scale_uses_nearby_reference_samples():
    host = hostspeed.HostSpeed()
    second = 1_000_000_000
    host.at = [0, 1 * second, 2 * second, 10 * second]
    host.ns = [2_500_000, 5_000_000, 5_000_000, 1_250_000]
    nominal = hostspeed.REF_NOMINAL_MS * 1e6
    # samples within 2 s of [1 s, 1.5 s]: the first three, median 5 ms
    assert host.scale(1 * second, second + second // 2) == nominal / 5_000_000
    # no sample within 2 s: the nearest one is used
    assert host.scale(7 * second, 7 * second) == nominal / 1_250_000
    assert host.scale(5 * second, 5 * second) == nominal / 5_000_000
    assert host.scale(20 * second, 20 * second) == nominal / 1_250_000
    with pytest.raises(ValueError):
        hostspeed.HostSpeed().scale(0, 1)
