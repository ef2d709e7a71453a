import contextlib
import decimal
import hashlib
import io
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lukatree
from conftest import checkout_env
from lukatree import HEIGHT_SCAN_COLUMNS, cli
from lukatree.cli import main

MOTZKIN = "a:-1,b:0,c:1"
BINARY = "a:-1,c:1"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid_not_lukasiewicz(capsys):
    code, out, err = run_cli(capsys, "check", "--alphabet", MOTZKIN, "--word", "babacac")
    assert code == 0 and err == ""
    assert out == "valid,not-lukasiewicz\n0,-1,-1,-2,-1,-2,-1\n"


def test_check_lukasiewicz(capsys):
    code, out, _ = run_cli(capsys, "check", "--alphabet", MOTZKIN, "--word", "cacbaba")
    assert code == 0
    assert out == "lukasiewicz\n1,0,1,1,0,0,-1\n"


def test_check_invalid(capsys):
    code, out, _ = run_cli(capsys, "check", "--alphabet", MOTZKIN, "--word", "cc")
    assert code == 0
    assert out == "invalid\n1,2\n"


def test_count(capsys):
    code, out, _ = run_cli(capsys, "count", "--alphabet", MOTZKIN, "--tuple", "3,2,2")
    assert code == 0 and out == "30\n"
    code, out, _ = run_cli(
        capsys, "count", "--alphabet", MOTZKIN, "--tuple", "3,2,2", "--kind", "words"
    )
    assert code == 0 and out == "210\n"


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--alphabet", BINARY, "--tuple", "3,2")
    assert code == 0
    assert out == "cacaa\nccaaa\n"


def test_enumerate_a_tree_deeper_than_the_recursion_limit(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--alphabet", "a:-1,b:0", "--tuple", "1,1500", "--limit", "2000"
    )
    assert (code, out, err) == (0, "b" * 1500 + "a\n", "")


def test_render_paren(capsys):
    code, out, _ = run_cli(capsys, "render", "--alphabet", MOTZKIN, "--word", "cacbaba")
    assert code == 0
    assert out == "c(a,c(b(a),b(a)))\n"


def test_render_dot(capsys):
    code, out, _ = run_cli(
        capsys, "render", "--alphabet", MOTZKIN, "--word", "caa", "--format", "dot"
    )
    assert code == 0
    assert 'n0 [label="c"]' in out
    assert "n0 -> n2;" in out


def test_render_rejects_non_lukasiewicz(capsys):
    code, out, err = run_cli(capsys, "render", "--alphabet", MOTZKIN, "--word", "babacac")
    assert code == 1 and out == ""
    assert err.startswith("lukatree: error:")


def test_sample_singleton_with_bits(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample",
        "--alphabet",
        MOTZKIN,
        "--tuple",
        "1,0,0",
        "--count",
        "2",
        "--count-bits",
    )
    assert code == 0
    assert out == "a bits=0\na bits=0\n"


@pytest.mark.parametrize("method", ["dicho", "perm"])
def test_sample_deterministic_and_well_formed(capsys, method):
    argv = (
        "sample",
        "--alphabet",
        MOTZKIN,
        "--tuple",
        "3,1,2",
        "--count",
        "5",
        "--method",
        method,
        "--seed",
        "11",
    )
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert first == second
    lines = first.splitlines()
    assert len(lines) == 5
    for word in lines:
        assert len(word) == 6
        assert sorted(word) == sorted("aaabcc")


def test_sample_count_bits_reports_positive_cost(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample",
        "--alphabet",
        MOTZKIN,
        "--tuple",
        "3,1,2",
        "--count",
        "3",
        "--count-bits",
        "--seed",
        "4",
    )
    assert code == 0
    for line in out.splitlines():
        word, _, suffix = line.partition(" bits=")
        assert len(word) == 6
        assert int(suffix) > 0


def test_domain_errors_exit_one(capsys):
    cases = [
        ("count", "--alphabet", BINARY, "--tuple", "2,2"),
        ("enumerate", "--alphabet", MOTZKIN, "--tuple", "7,0,6"),
        ("check", "--alphabet", MOTZKIN, "--word", "caz"),
        ("height-scan", "--n", "9", "--fractions", "a,b"),
        ("bitcost", "--k-max", "1"),
        ("sample", "--alphabet", "a:0,b:1", "--tuple", "1,1"),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("lukatree: error:")


def test_flag_misuse_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["count", "--tuple", "1,0"])  # missing --alphabet
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--alphabet", MOTZKIN, "--tuple", "1,0,0", "--method", "magic"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_height_scan_smoke(capsys):
    code, out, _ = run_cli(
        capsys,
        "height-scan",
        "--n",
        "15",
        "--fractions",
        "0,0.5",
        "--replicates",
        "30",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == HEIGHT_SCAN_COLUMNS
    assert len(lines) == 3


def test_bitcost_smoke(capsys):
    code, out, _ = run_cli(capsys, "bitcost", "--k-max", "3", "--replicates", "40")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("k,replicates,")
    assert len(lines) == 3


def console_script_target() -> str:
    """The `lukatree` target declared in `[project.scripts]`."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["lukatree"]


def test_module_and_script_entry_points():
    """`python -m lukatree` and the declared console script run the CLI.

    The script half runs the `[project.scripts]` target the way the installed
    `lukatree` wrapper does, so it needs no install and never picks up another
    `lukatree` from PATH.
    """
    target = console_script_target()
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint('lukatree', {target!r}, 'console_scripts').load()\n"
        "sys.argv[0] = 'lukatree'\n"
        "sys.exit(main())\n"
    )
    env = checkout_env()
    module = [sys.executable, "-m", "lukatree"]
    script = [sys.executable, "-c", wrapper]
    for launcher in (module, script):
        ok, bad = (
            subprocess.run(
                [*launcher, "count", "--alphabet", BINARY, "--tuple", tuple_text],
                capture_output=True,
                text=True,
                env=env,
            )
            for tuple_text in ("4,3", "4,4")
        )
        assert ok.returncode == 0 and ok.stdout == "5\n", (launcher, ok.stderr)
        assert bad.returncode == 1 and bad.stdout == "", (launcher, bad.stderr)
        lines = bad.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines


def test_import_leaves_scipy_unloaded():
    """The package and its CLI never need scipy; it must not creep back in."""
    probe = "import sys, lukatree, lukatree.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=checkout_env()
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


NUMPY_PROBE = f"""
import contextlib, io, sys
import lukatree, lukatree.cli
print("import", "numpy" in sys.modules, "multiprocessing" in sys.modules)
for argv in (
    ["sample", "--alphabet", "{MOTZKIN}", "--tuple", "3,1,2", "--count", "2"],
    ["check", "--alphabet", "{MOTZKIN}", "--word", "cacbaba"],
    ["count", "--alphabet", "{MOTZKIN}", "--tuple", "3,2,2"],
    ["enumerate", "--alphabet", "{BINARY}", "--tuple", "3,2"],
    ["render", "--alphabet", "{MOTZKIN}", "--word", "cacbaba"],
    ["bitcost", "--k-max", "3", "--replicates", "5"],
    ["height-scan", "--n", "101", "--fractions", "0,0.5", "--replicates", "6000"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = lukatree.cli.main(argv)
    print(argv[0], code, "numpy" in sys.modules, "multiprocessing" in sys.modules)
"""


def test_only_the_scans_load_numpy():
    """Import, bitcost and the scalar subcommands run without numpy; height-scan loads it.

    No subcommand loads multiprocessing: importing its pool alone added
    about 1.6 MiB to a height scan's peak memory, so a scan forks its
    workers with os.fork.  The probe's scan draws enough trees to fork.
    """
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True, env=checkout_env()
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "import False False",
        "sample 0 False False",
        "check 0 False False",
        "count 0 False False",
        "enumerate 0 False False",
        "render 0 False False",
        "bitcost 0 False False",
        "height-scan 0 True False",
    ]


# Output of `height-scan --n 101 --fractions 0,0.5,0.9 --replicates 64
# --seed 3`: the same seed must keep giving the same bytes.
PINNED_SCANS = {
    "dicho": (
        "0.0,0,50,101,64,20.375000,2.027388,1.426465,4.651335\n"
        "0.5,50,25,101,64,29.718750,2.957126,1.471225,6.501450\n"
        "0.9,90,5,101,64,56.328125,5.604858,1.247065,9.918805\n"
    ),
    "perm": (
        "0.0,0,50,101,64,20.531250,2.042936,1.437405,4.090130\n"
        "0.5,50,25,101,64,29.750000,2.960236,1.472772,6.236096\n"
        "0.9,90,5,101,64,53.531250,5.326558,1.185144,11.641427\n"
    ),
}


@pytest.mark.parametrize("method", sorted(PINNED_SCANS))
def test_height_scan_pinned_csv(capsys, method):
    code, out, err = run_cli(
        capsys,
        "height-scan",
        "--n",
        "101",
        "--fractions",
        "0,0.5,0.9",
        "--replicates",
        "64",
        "--seed",
        "3",
        "--method",
        method,
    )
    assert code == 0 and err == ""
    assert out == HEIGHT_SCAN_COLUMNS + "\n" + PINNED_SCANS[method]


# Output of `height-scan --engine E --method M --n 11 --fractions 0,0.5
# --replicates 2050 --seed 5`.  2050 rows cross the 2048-row chunk boundary,
# so these pin how each engine's word source is split into chunks.
PINNED_CHUNKED_SCANS = {
    ("scalar", "dicho"): (
        "0.0,0,5,11,2050,4.257561,1.283703,0.865472,0.678041\n"
        "0.5,6,2,11,2050,6.568780,1.980562,0.844514,1.082899\n"
    ),
    ("scalar", "perm"): (
        "0.0,0,5,11,2050,4.240000,1.278408,0.861903,0.693665\n"
        "0.5,6,2,11,2050,6.591707,1.987475,0.847462,1.085703\n"
    ),
    ("batch", "dicho"): (
        "0.0,0,5,11,2050,4.213171,1.270319,0.856449,0.675097\n"
        "0.5,6,2,11,2050,6.573171,1.981886,0.845079,1.079451\n"
    ),
    ("batch", "perm"): (
        "0.0,0,5,11,2050,4.234146,1.276643,0.860713,0.680772\n"
        "0.5,6,2,11,2050,6.623415,1.997035,0.851538,1.070314\n"
    ),
}


@pytest.mark.parametrize("engine, method", sorted(PINNED_CHUNKED_SCANS))
def test_height_scan_pinned_csv_across_a_chunk(capsys, engine, method):
    code, out, err = run_cli(
        capsys,
        "height-scan",
        "--engine",
        engine,
        "--method",
        method,
        "--n",
        "11",
        "--fractions",
        "0,0.5",
        "--replicates",
        "2050",
        "--seed",
        "5",
    )
    assert code == 0 and err == ""
    assert out == HEIGHT_SCAN_COLUMNS + "\n" + PINNED_CHUNKED_SCANS[engine, method]


def test_batch_scan_never_builds_the_rotation(capsys, monkeypatch):
    # the batch engine measures each chunk's rotation through a gather from
    # the words, so the rotated copy that batch_rotate returns is never made
    def refuse(words, degrees):
        raise AssertionError("the batch scan built the rotated words")

    monkeypatch.setattr("lukatree.batch.batch_rotate", refuse)
    for method in sorted(PINNED_SCANS):
        code, out, err = run_cli(
            capsys, "height-scan", "--n", "101", "--fractions", "0,0.5,0.9",
            "--replicates", "64", "--seed", "3", "--method", method,
        )
        assert code == 0 and err == ""
        assert out == HEIGHT_SCAN_COLUMNS + "\n" + PINNED_SCANS[method]
        code, out, err = run_cli(
            capsys, "height-scan", "--method", method, "--n", "11", "--fractions", "0,0.5",
            "--replicates", "2050", "--seed", "5",
        )
        assert code == 0 and err == ""
        assert out == HEIGHT_SCAN_COLUMNS + "\n" + PINNED_CHUNKED_SCANS["batch", method]


@pytest.mark.parametrize(
    "flags",
    [
        ("--replicates", "0"),
        ("--replicates", "-3"),
        ("--fractions", "nan"),
        ("--fractions", "0.2,inf"),
        ("--fractions", "1"),
        ("--fractions", "-0.25"),
        ("--n", "0"),
        ("--n", "-3"),
    ],
)
def test_height_scan_bad_input_is_a_domain_error(capsys, flags):
    code, out, err = run_cli(capsys, "height-scan", "--n", "15", *flags)
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines


def test_height_scan_huge_n_is_rejected_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "height-scan", "--n", "35184372088833", "--replicates", "1", "--fractions", "0"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines
    assert "2^31" in lines[0]  # the size check, not a caught MemoryError
    assert peak < 1 << 20


def test_memory_error_is_one_error_line(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "count", exhausted)
    code, out, err = run_cli(capsys, "count", "--alphabet", BINARY, "--tuple", "4,3")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines


def test_height_scan_negative_seed_is_read_modulo_2_64(capsys):
    argv = ("height-scan", "--n", "21", "--fractions", "0,0.5", "--replicates", "8")
    code, out, err = run_cli(capsys, *argv, "--seed", "-5")
    assert code == 0 and err == ""
    # the bytes of --seed 18446744073709551611, that is 2^64 - 5
    assert out == (
        HEIGHT_SCAN_COLUMNS + "\n"
        "0.0,0,10,21,8,7.250000,1.582080,1.091739,1.164965\n"
        "0.5,10,5,21,8,11.000000,2.400397,1.171274,2.507133\n"
    )
    assert run_cli(capsys, *argv, "--seed", str(2**64 - 5)) == (0, out, "")


# Output of `sample --alphabet a:-1,b:0,c:1 --tuple 14,13,13 --count 5
# --count-bits --seed 11`: the same seed must keep giving the same trees and
# spend the same fair bits on each.
PINNED_SAMPLES = {
    "dicho": (
        "ccaccacbacabbababccbaaccabbcbacabbbacbaa bits=106\n"
        "bcccccbacaabcabbabcbcbbcbaaaabcabcbcaaaa bits=103\n"
        "cacccbcabbbbcbaabccbacccabbbaaababacacaa bits=112\n"
        "ccbacacbbacaabcacaccabbbbabcabcabccababa bits=104\n"
        "bbbbbcccacbccabacbaacabaccacaacbbbbaacaa bits=93\n"
    ),
    "perm": (
        "caccccbabcaaabbcccbcbabaaacaabccbbbbabaa bits=307\n"
        "ccabbbaccaccbabbbcbcbaaaacbbcaccbcabaaaa bits=280\n"
        "ccbbccbbabccaabbbcccbaacacabcbaaacbaabaa bits=234\n"
        "ccbabccaacbcaccbbaabbccaaacbbbcbababacaa bits=294\n"
        "bcbaccbccacbaaacccacabbcbccabbbbaabaabaa bits=264\n"
    ),
}


@pytest.mark.parametrize("method", sorted(PINNED_SAMPLES))
def test_sample_pinned_words_and_bits(capsys, method):
    code, out, err = run_cli(
        capsys,
        "sample",
        "--alphabet",
        MOTZKIN,
        "--tuple",
        "14,13,13",
        "--count",
        "5",
        "--count-bits",
        "--seed",
        "11",
        "--method",
        method,
    )
    assert code == 0 and err == ""
    assert out == PINNED_SAMPLES[method]


# Output of `sample --alphabet a:-1,b:0,c:1 --tuple 14,13,13 --count 3
# --seed 11` in the formats that walk the decoded children.  The dot output
# (243 lines per method) is pinned by its SHA-256.
PINNED_RENDERINGS = {
    ("dicho", "paren"): (
        "c(c(a,c(c(a,c(b(a),c(a,b(b(a))))),b(a))),b(c(c(b(a),a),c(c(a,b(b(c(b(a),"
        "c(a,b(b(b(a)))))))),c(b(a),a)))))\n"
        "b(c(c(c(c(c(b(a),c(a,a)),b(c(a,b(b(a))))),b(c(b(c(b(b(c(b(a),a))),a)),a))),"
        "b(c(a,b(c(b(c(a,a)),a))))),a))\n"
        "c(a,c(c(c(b(c(a,b(b(b(b(c(b(a),a))))))),b(c(c(b(a),c(c(c(a,b(b(b(a)))),a),a)),"
        "b(a)))),b(a)),c(a,c(a,a))))\n"
    ),
    ("perm", "paren"): (
        "c(a,c(c(c(c(b(a),b(c(a,a))),a),b(b(c(c(c(b(c(b(a),b(a))),a),a),c(a,a))))),"
        "b(c(c(b(b(b(b(a)))),b(a)),a))))\n"
        "c(c(a,b(b(b(a)))),c(c(a,c(c(b(a),b(b(b(c(b(c(b(a),a)),a))))),a)),c(b(b(c(a,"
        "c(c(b(c(a,b(a))),a),a)))),a)))\n"
        "c(c(b(b(c(c(b(b(a)),b(c(c(a,a),b(b(b(c(c(c(b(a),a),c(a,c(a,b(c(b(a),a))))),"
        "a))))))),c(b(a),a)))),b(a)),a)\n"
    ),
    ("dicho", "dot"): "8f7b7150c350d9607be4e7f0bc2e06d911518bad37d3bd2f34a5c53ca03d9683",
    ("perm", "dot"): "3d0095eb50f7c1333da50b462e8ac316040d1fbf8429cc9e37fae01bb2946aa0",
}


@pytest.mark.parametrize("method,fmt", sorted(PINNED_RENDERINGS))
def test_sample_pinned_renderings(capsys, method, fmt):
    code, out, err = run_cli(
        capsys,
        "sample",
        "--alphabet",
        MOTZKIN,
        "--tuple",
        "14,13,13",
        "--count",
        "3",
        "--seed",
        "11",
        "--method",
        method,
        "--format",
        fmt,
    )
    assert code == 0 and err == ""
    if fmt == "dot":
        assert out.count("digraph tree {") == 3
        out = hashlib.sha256(out.encode()).hexdigest()
    assert out == PINNED_RENDERINGS[method, fmt]


# sha256 of `sample --alphabet a:-1,b:0,c:1 --tuple 3334,3334,3333 --count 2
# --count-bits --seed 3 --method M`: two benchmark-sized trees from one source
PINNED_LARGE_SAMPLES = {
    "dicho": "c8b8674b34d0fd5e1946a9db70a17d36737a56424d83a89d76551f7854dc3d39",
    "perm": "d0b62450e12978f78df327e74201bff33aa81e35b9e5dbd85bb9a53a56ed88a1",
}


@pytest.mark.parametrize("method", sorted(PINNED_LARGE_SAMPLES))
def test_sample_pinned_at_benchmark_scale(capsys, method):
    code, out, err = run_cli(
        capsys, "sample", "--alphabet", MOTZKIN, "--tuple", "3334,3334,3333",
        "--count", "2", "--count-bits", "--seed", "3", "--method", method,
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 2
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_LARGE_SAMPLES[method]


def test_bitcost_pinned_csv(capsys):
    # output of `bitcost --k-max 9 --replicates 50 --seed 4`
    code, out, err = run_cli(
        capsys, "bitcost", "--k-max", "9", "--replicates", "50", "--seed", "4"
    )
    assert code == 0 and err == ""
    assert out == (
        "k,replicates,mean_bits,stderr,ratio,"
        "mean_bits_offset,stderr_offset,ratio_offset,ctilde,bound\n"
        "2,50,1.000000,0.000000,0.333333,2.180000,0.236798,0.726667,3.000000,3.000000\n"
        "3,50,3.040000,0.176033,0.847987,1.440000,0.070912,0.401678,3.500000,3.584963\n"
        "4,50,2.000000,0.000000,0.500000,3.560000,0.171809,0.890000,4.000000,4.000000\n"
        "5,50,4.220000,0.194391,0.976416,3.340000,0.195061,0.772803,4.250000,4.321928\n"
        "6,50,4.180000,0.220741,0.911676,3.960000,0.211814,0.863693,4.500000,4.584963\n"
        "7,50,4.500000,0.219926,0.936066,2.660000,0.067673,0.553319,4.750000,4.807355\n"
        "8,50,3.000000,0.000000,0.600000,4.440000,0.159489,0.888000,5.000000,5.000000\n"
        "9,50,5.120000,0.195124,0.990343,5.000000,0.176126,0.967132,5.125000,5.169925\n"
    )


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sample_count_below_one_is_a_domain_error(capsys, count):
    code, out, err = run_cli(
        capsys, "sample", "--alphabet", BINARY, "--tuple", "2,1", "--count", count
    )
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines


@pytest.mark.parametrize("method", ["dicho", "perm"])
def test_sample_total_no_list_can_hold_is_a_domain_error(capsys, method):
    code, out, err = run_cli(
        capsys, "sample", "--alphabet", BINARY,
        "--tuple", "5000000000000000001,5000000000000000000", "--method", method,
    )
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines


def test_count_prints_answers_past_the_int_str_digit_cap(capsys):
    # Catalan(10000) has 6015 digits, more than str() of an int allows by default
    code, out, err = run_cli(capsys, "count", "--alphabet", BINARY, "--tuple", "10001,10000")
    assert code == 0 and err == ""
    text = out.strip()
    assert len(text) == 6015 and text.isdigit()
    assert int(decimal.Decimal(text)) == math.comb(20000, 10000) // 10001


def run_quiet(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def number_text(values):
    """Decimal text of a drawn value, or (one time in four) text that is no int."""
    junk = st.sampled_from(["", "x", "1e3", "nan", "0x10"])
    return st.integers(0, 3).flatmap(lambda i: values.map(str) if i else junk)


FRACTION_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0, 1).map(repr),
    st.sampled_from(["", "x", "1/2", " 0.3", "-inf"]),
)


# (text, degrees) pairs; the valid ones have at most three letters, the leaf
# first, so that any tuple below the caps stays small
VALID_ALPHABETS = [
    (MOTZKIN, (-1, 0, 1)),
    (BINARY, (-1, 1)),
    ("a:-1,b:0", (-1, 0)),
    ("a:-1,c:2", (-1, 2)),
]
JUNK_ALPHABETS = [(text, None) for text in ("", "a", "a:-1,a:0", "a:x", "a:-2,b:1", "a:0,b:1")]


def valid_counts(draw, degrees, largest):
    """An f-valid counts tuple: free counts for the inner letters, then leaves."""
    inner = [draw(st.integers(0, largest)) for _ in degrees[1:]]
    return [1 + sum(d * c for d, c in zip(degrees[1:], inner)), *inner]


def tuple_text(draw, degrees, largest):
    """Often an f-valid tuple of the alphabet, otherwise up to three drawn counts."""
    if degrees and draw(st.integers(0, 3)):
        return ",".join(map(str, valid_counts(draw, degrees, largest)))
    counts = st.lists(number_text(st.integers(-2, largest)), min_size=1, max_size=3)
    return ",".join(draw(counts))


def word_text(draw, alphabet_text, degrees):
    """Often an arrangement of a valid tuple, rotated Lukasiewicz or not; else junk."""
    if not degrees or not draw(st.integers(0, 3)):
        return draw(st.one_of(st.text("abcx", max_size=12), st.sampled_from(["a b", "-"])))
    counts = valid_counts(draw, degrees, 3)
    letters = draw(st.permutations([i for i, c in enumerate(counts) for _ in range(c)]))
    if draw(st.booleans()):
        alphabet = lukatree.parse_alphabet(alphabet_text)
        letters = lukatree.to_lukasiewicz(letters, alphabet)
    symbols = [part.split(":")[0] for part in alphabet_text.split(",")]
    return "".join(symbols[i] for i in letters)


def optional(draw, flag, values):
    return [flag, draw(values)] if draw(st.booleans()) else []


@st.composite
def height_scan_argv(draw):
    argv = ["height-scan"]
    if draw(st.integers(0, 9)):  # --n is required; leave it out now and then
        argv += ["--n", draw(number_text(st.integers(-3, 30)))]
    if draw(st.booleans()):
        fractions = draw(st.lists(FRACTION_TEXT, min_size=1, max_size=3))
        argv += ["--fractions", ",".join(fractions)]
    argv += ["--replicates", draw(number_text(st.integers(-3, 12)))]
    if draw(st.booleans()):
        argv += ["--seed", draw(number_text(st.integers(-(2**70), 2**70)))]
    if draw(st.booleans()):
        argv += ["--method", draw(st.sampled_from(["dicho", "perm", "magic"]))]
    if draw(st.booleans()):
        argv += ["--engine", draw(st.sampled_from(["batch", "scalar", "gpu"]))]
    return argv


@st.composite
def any_argv(draw):
    """Argument lists for every subcommand, sized so that each case runs fast."""
    command = draw(st.sampled_from(sorted(cli._HANDLERS) + ["", "grow"]))
    if command == "height-scan":
        return draw(height_scan_argv())
    seed = optional(draw, "--seed", number_text(st.integers(-(2**70), 2**70)))
    formats = st.sampled_from(["paren", "dot", "luka", "svg"])
    alphabets = VALID_ALPHABETS if draw(st.integers(0, 3)) else JUNK_ALPHABETS
    alphabet_text, degrees = draw(st.sampled_from(alphabets))
    argv = [command, "--alphabet", alphabet_text]
    if command == "sample":
        argv += ["--tuple", tuple_text(draw, degrees, 6)]
        argv += optional(draw, "--count", number_text(st.integers(-3, 5)))
        argv += optional(draw, "--method", st.sampled_from(["dicho", "perm", "magic"]))
        argv += optional(draw, "--format", formats)
        argv += ["--count-bits"] if draw(st.booleans()) else []
        argv += seed
    elif command in ("check", "render"):
        argv += ["--word", word_text(draw, alphabet_text, degrees)]
        argv += optional(draw, "--format", formats) if command == "render" else []
    elif command == "count":
        argv += ["--tuple", tuple_text(draw, degrees, 60)]
        argv += optional(draw, "--kind", st.sampled_from(["trees", "words", "forests"]))
    elif command == "enumerate":
        argv += ["--tuple", tuple_text(draw, degrees, 3)]
        argv += optional(draw, "--limit", number_text(st.integers(-3, 14)))
    elif command == "bitcost":
        argv = [command, "--k-max", draw(number_text(st.integers(-3, 8)))]
        argv += ["--replicates", draw(number_text(st.integers(-3, 20)))]
        argv += seed
    return argv


@settings(max_examples=300, deadline=None)
@given(any_argv())
def test_any_argv_never_crashes(argv):
    """Every subcommand ends in exit 0 with output, exit 1 with one error line,
    or exit 2 from argparse; never a traceback or a NaN."""
    code, out, err = run_quiet(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    assert "nan" not in out
    if code == 0:
        assert out.strip(), argv
        if argv[0] == "height-scan":
            assert out.startswith(HEIGHT_SCAN_COLUMNS + "\n") and out.count("\n") >= 2
    elif code == 1:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1, (argv, err)
        assert lines[0].startswith("lukatree: error:")
