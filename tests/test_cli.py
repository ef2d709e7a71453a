import decimal
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lukatree
from cli_goldens import CASES, SCAN_HEADER, needs_numpy, problems, run
from conftest import checkout_env
from lukatree import cli

MOTZKIN = "a:-1,b:0,c:1"
BINARY = "a:-1,c:1"
TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, id=name, marks=[pytest.mark.numpy] if needs_numpy(case) else [])
        for name, case in CASES.items()
    ],
)
def test_pinned_output(case):
    assert problems(case) == []


def test_goldens_run_without_pytest_or_numpy():
    # a None entry in sys.modules makes `import` fail as if the module were missing
    wrapper = (
        "import runpy, sys; sys.modules['numpy'] = sys.modules['pytest'] = None; "
        f"runpy.run_path({str(TESTS / 'cli_goldens.py')!r}, run_name='__main__')"
    )
    done = subprocess.run(
        [sys.executable, "-c", wrapper], capture_output=True, text=True, env=checkout_env()
    )
    scans = [case[0] for case in CASES.values() if needs_numpy(case)]
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout.splitlines() == [
        f"{len(CASES) - len(scans)} cases run, 0 failed",
        f"{len(scans)} height-scan cases skipped, numpy does not import:",
        *(f"  lukatree {command}" for command in scans),
    ]


def test_render_rejects_non_lukasiewicz():
    code, out, err = run(["render", "--alphabet", MOTZKIN, "--word", "babacac"])
    assert code == 1 and out == ""
    assert err.startswith("lukatree: error:")


@pytest.mark.parametrize("method", ["dicho", "perm"])
def test_sample_deterministic_and_well_formed(method):
    argv = ["sample", "--alphabet", MOTZKIN, "--tuple", "3,1,2", "--count", "5"]
    argv += ["--method", method, "--seed", "11"]
    code, first, _ = run(argv)
    assert code == 0
    assert run(argv)[1] == first
    lines = first.splitlines()
    assert len(lines) == 5
    for word in lines:
        assert len(word) == 6
        assert sorted(word) == sorted("aaabcc")


def test_sample_count_bits_reports_positive_cost():
    code, out, _ = run(
        ["sample", "--alphabet", MOTZKIN, "--tuple", "3,1,2", "--count", "3", "--count-bits",
         "--seed", "4"]
    )
    assert code == 0
    for line in out.splitlines():
        word, _, suffix = line.partition(" bits=")
        assert len(word) == 6
        assert int(suffix) > 0


def test_domain_errors_exit_one():
    cases = [
        ["count", "--alphabet", BINARY, "--tuple", "2,2"],
        ["enumerate", "--alphabet", MOTZKIN, "--tuple", "7,0,6"],
        ["check", "--alphabet", MOTZKIN, "--word", "caz"],
        ["height-scan", "--n", "9", "--fractions", "a,b"],
        ["bitcost", "--k-max", "1"],
        ["sample", "--alphabet", "a:0,b:1", "--tuple", "1,1"],
    ]
    for argv in cases:
        code, out, err = run(argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("lukatree: error:")


def test_flag_misuse_exits_two():
    for argv in (
        ["frobnicate"],
        ["count", "--tuple", "1,0"],  # missing --alphabet
        ["sample", "--alphabet", MOTZKIN, "--tuple", "1,0,0", "--method", "magic"],
    ):
        assert run(argv)[0] == 2, argv


@pytest.mark.numpy
def test_height_scan_smoke():
    code, out, _ = run(["height-scan", "--n", "15", "--fractions", "0,0.5", "--replicates", "30"])
    assert code == 0
    assert out.startswith(SCAN_HEADER)
    assert len(out.splitlines()) == 3


def test_bitcost_smoke():
    code, out, _ = run(["bitcost", "--k-max", "3", "--replicates", "40"])
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


@pytest.mark.numpy
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


# the batch engine's pinned scans: every height-scan case but the scalar ones
BATCH_SCANS = [case for case in CASES.values() if needs_numpy(case) and "scalar" not in case[0]]


@pytest.mark.numpy
def test_batch_scan_never_builds_the_rotation(monkeypatch):
    # the batch engine measures each chunk's rotation through a gather from
    # the words, so the rotated copy that batch_rotate returns is never made
    def refuse(words, degrees):
        raise AssertionError("the batch scan built the rotated words")

    monkeypatch.setattr("lukatree.batch.batch_rotate", refuse)
    for case in BATCH_SCANS:
        assert problems(case) == [], case[0]


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
def test_height_scan_bad_input_is_a_domain_error(flags):
    code, out, err = run(["height-scan", "--n", "15", *flags])
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines


def test_height_scan_huge_n_is_rejected_before_allocating():
    tracemalloc.start()
    try:
        code, out, err = run(
            ["height-scan", "--n", "35184372088833", "--replicates", "1", "--fractions", "0"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines
    assert "2^31" in lines[0]  # the size check, not a caught MemoryError
    assert peak < 1 << 20


def test_memory_error_is_one_error_line(monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "count", exhausted)
    code, out, err = run(["count", "--alphabet", BINARY, "--tuple", "4,3"])
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines


@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_height_scan_without_numpy_is_one_error_line(engine):
    # a None entry in sys.modules makes `import numpy` fail as if it were missing
    probe = (
        "import sys; sys.modules['numpy'] = None; from lukatree import cli; "
        "sys.exit(cli.main(['height-scan', '--n', '15', '--fractions', '0.5', "
        f"'--replicates', '4', '--engine', '{engine}']))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=checkout_env()
    )
    assert done.returncode == 1 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines
    assert "numpy" in lines[0]


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sample_count_below_one_is_a_domain_error(count):
    code, out, err = run(["sample", "--alphabet", BINARY, "--tuple", "2,1", "--count", count])
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines


@pytest.mark.parametrize("method", ["dicho", "perm"])
def test_sample_total_no_list_can_hold_is_a_domain_error(method):
    code, out, err = run(
        ["sample", "--alphabet", BINARY,
         "--tuple", "5000000000000000001,5000000000000000000", "--method", method]
    )
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lukatree: error:"), lines


def test_count_prints_answers_past_the_int_str_digit_cap():
    # Catalan(10000) has 6015 digits, more than str() of an int allows by default
    code, out, err = run(["count", "--alphabet", BINARY, "--tuple", "10001,10000"])
    assert code == 0 and err == ""
    text = out.strip()
    assert len(text) == 6015 and text.isdigit()
    assert int(decimal.Decimal(text)) == math.comb(20000, 10000) // 10001


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
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    assert "nan" not in out
    if code == 0:
        assert out.strip(), argv
        if argv[0] == "height-scan":
            assert out.startswith(SCAN_HEADER) and out.count("\n") >= 2
    elif code == 1:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1, (argv, err)
        assert lines[0].startswith("lukatree: error:")
