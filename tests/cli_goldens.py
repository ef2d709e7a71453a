"""Every pinned output of the lukatree CLI, and a runner that checks them without pytest.

CASES maps a case id to a command line and the exact stdout it must print,
with exit code 0 and nothing on stderr.  A long output is pinned by its
SHA-256, written "sha256:<hex>".  They pin what the sampler must keep: the
same seed gives the same trees, the same fair-bit counts and the same CSV
bytes.  tests/test_cli.py runs every case under pytest; this module uses the
standard library only, so any interpreter the package supports can run it:

    PYTHONPATH=src python3 tests/cli_goldens.py

A case needs numpy exactly when it runs `height-scan`.  Where numpy does not
import, the runner skips those cases and names them.  It exits 1 on any
mismatch.
"""

import contextlib
import hashlib
import io
import sys

from lukatree.cli import main

SCAN_HEADER = "fraction,u,c,n,replicates,mean_height,mean_height_over_sqrt_n,mean_norm,stddev\n"

# `--seed -5` is read modulo 2^64, as 18446744073709551611
NEGATIVE_SEED_SCAN = (
    SCAN_HEADER + "0.0,0,10,21,8,7.250000,1.582080,1.091739,1.164965\n"
    "0.5,10,5,21,8,11.000000,2.400397,1.171274,2.507133\n"
)

CASES = {
    "check-valid-not-lukasiewicz": (
        "check --alphabet a:-1,b:0,c:1 --word babacac",
        "valid,not-lukasiewicz\n0,-1,-1,-2,-1,-2,-1\n",
    ),
    "check-lukasiewicz": (
        "check --alphabet a:-1,b:0,c:1 --word cacbaba",
        "lukasiewicz\n1,0,1,1,0,0,-1\n",
    ),
    "check-invalid": ("check --alphabet a:-1,b:0,c:1 --word cc", "invalid\n1,2\n"),
    "count-trees": ("count --alphabet a:-1,b:0,c:1 --tuple 3,2,2", "30\n"),
    "count-words": ("count --alphabet a:-1,b:0,c:1 --tuple 3,2,2 --kind words", "210\n"),
    "enumerate": ("enumerate --alphabet a:-1,c:1 --tuple 3,2", "cacaa\nccaaa\n"),
    "enumerate-deeper-than-the-recursion-limit": (
        "enumerate --alphabet a:-1,b:0 --tuple 1,1500 --limit 2000",
        "b" * 1500 + "a\n",
    ),
    "render-paren": ("render --alphabet a:-1,b:0,c:1 --word cacbaba", "c(a,c(b(a),b(a)))\n"),
    "render-dot": (
        "render --alphabet a:-1,b:0,c:1 --word caa --format dot",
        'digraph tree {\n  n0 [label="c"];\n  n1 [label="a"];\n  n2 [label="a"];\n'
        "  n0 -> n1;\n  n0 -> n2;\n}\n",
    ),
    "sample-singleton-with-bits": (
        "sample --alphabet a:-1,b:0,c:1 --tuple 1,0,0 --count 2 --count-bits",
        "a bits=0\na bits=0\n",
    ),
    "scan-dicho": (
        "height-scan --n 101 --fractions 0,0.5,0.9 --replicates 64 --seed 3 --method dicho",
        SCAN_HEADER + "0.0,0,50,101,64,20.375000,2.027388,1.426465,4.651335\n"
        "0.5,50,25,101,64,29.718750,2.957126,1.471225,6.501450\n"
        "0.9,90,5,101,64,56.328125,5.604858,1.247065,9.918805\n",
    ),
    "scan-perm": (
        "height-scan --n 101 --fractions 0,0.5,0.9 --replicates 64 --seed 3 --method perm",
        SCAN_HEADER + "0.0,0,50,101,64,20.531250,2.042936,1.437405,4.090130\n"
        "0.5,50,25,101,64,29.750000,2.960236,1.472772,6.236096\n"
        "0.9,90,5,101,64,53.531250,5.326558,1.185144,11.641427\n",
    ),
    # 2050 rows cross the 2048-row chunk boundary, so these pin how each
    # engine's word source is split into chunks
    "scan-across-a-chunk-batch-dicho": (
        "height-scan --engine batch --method dicho --n 11 --fractions 0,0.5 --replicates 2050"
        " --seed 5",
        SCAN_HEADER + "0.0,0,5,11,2050,4.213171,1.270319,0.856449,0.675097\n"
        "0.5,6,2,11,2050,6.573171,1.981886,0.845079,1.079451\n",
    ),
    "scan-across-a-chunk-batch-perm": (
        "height-scan --engine batch --method perm --n 11 --fractions 0,0.5 --replicates 2050"
        " --seed 5",
        SCAN_HEADER + "0.0,0,5,11,2050,4.234146,1.276643,0.860713,0.680772\n"
        "0.5,6,2,11,2050,6.623415,1.997035,0.851538,1.070314\n",
    ),
    "scan-across-a-chunk-scalar-dicho": (
        "height-scan --engine scalar --method dicho --n 11 --fractions 0,0.5 --replicates 2050"
        " --seed 5",
        SCAN_HEADER + "0.0,0,5,11,2050,4.257561,1.283703,0.865472,0.678041\n"
        "0.5,6,2,11,2050,6.568780,1.980562,0.844514,1.082899\n",
    ),
    "scan-across-a-chunk-scalar-perm": (
        "height-scan --engine scalar --method perm --n 11 --fractions 0,0.5 --replicates 2050"
        " --seed 5",
        SCAN_HEADER + "0.0,0,5,11,2050,4.240000,1.278408,0.861903,0.693665\n"
        "0.5,6,2,11,2050,6.591707,1.987475,0.847462,1.085703\n",
    ),
    "scan-negative-seed": (
        "height-scan --n 21 --fractions 0,0.5 --replicates 8 --seed -5",
        NEGATIVE_SEED_SCAN,
    ),
    "scan-seed-2-64-minus-5": (
        "height-scan --n 21 --fractions 0,0.5 --replicates 8 --seed 18446744073709551611",
        NEGATIVE_SEED_SCAN,
    ),
    "sample-dicho": (
        "sample --alphabet a:-1,b:0,c:1 --tuple 14,13,13 --count 5 --count-bits --seed 11"
        " --method dicho",
        "ccaccacbacabbababccbaaccabbcbacabbbacbaa bits=106\n"
        "bcccccbacaabcabbabcbcbbcbaaaabcabcbcaaaa bits=103\n"
        "cacccbcabbbbcbaabccbacccabbbaaababacacaa bits=112\n"
        "ccbacacbbacaabcacaccabbbbabcabcabccababa bits=104\n"
        "bbbbbcccacbccabacbaacabaccacaacbbbbaacaa bits=93\n",
    ),
    "sample-perm": (
        "sample --alphabet a:-1,b:0,c:1 --tuple 14,13,13 --count 5 --count-bits --seed 11"
        " --method perm",
        "caccccbabcaaabbcccbcbabaaacaabccbbbbabaa bits=307\n"
        "ccabbbaccaccbabbbcbcbaaaacbbcaccbcabaaaa bits=280\n"
        "ccbbccbbabccaabbbcccbaacacabcbaaacbaabaa bits=234\n"
        "ccbabccaacbcaccbbaabbccaaacbbbcbababacaa bits=294\n"
        "bcbaccbccacbaaacccacabbcbccabbbbaabaabaa bits=264\n",
    ),
    # the formats that walk the decoded children; dot is 243 lines per method
    "sample-dicho-paren": (
        "sample --alphabet a:-1,b:0,c:1 --tuple 14,13,13 --count 3 --seed 11 --method dicho"
        " --format paren",
        "c(c(a,c(c(a,c(b(a),c(a,b(b(a))))),b(a))),b(c(c(b(a),a),c(c(a,b(b(c(b(a),"
        "c(a,b(b(b(a)))))))),c(b(a),a)))))\n"
        "b(c(c(c(c(c(b(a),c(a,a)),b(c(a,b(b(a))))),b(c(b(c(b(b(c(b(a),a))),a)),a))),"
        "b(c(a,b(c(b(c(a,a)),a))))),a))\n"
        "c(a,c(c(c(b(c(a,b(b(b(b(c(b(a),a))))))),b(c(c(b(a),c(c(c(a,b(b(b(a)))),a),a)),"
        "b(a)))),b(a)),c(a,c(a,a))))\n",
    ),
    "sample-perm-paren": (
        "sample --alphabet a:-1,b:0,c:1 --tuple 14,13,13 --count 3 --seed 11 --method perm"
        " --format paren",
        "c(a,c(c(c(c(b(a),b(c(a,a))),a),b(b(c(c(c(b(c(b(a),b(a))),a),a),c(a,a))))),"
        "b(c(c(b(b(b(b(a)))),b(a)),a))))\n"
        "c(c(a,b(b(b(a)))),c(c(a,c(c(b(a),b(b(b(c(b(c(b(a),a)),a))))),a)),c(b(b(c(a,"
        "c(c(b(c(a,b(a))),a),a)))),a)))\n"
        "c(c(b(b(c(c(b(b(a)),b(c(c(a,a),b(b(b(c(c(c(b(a),a),c(a,c(a,b(c(b(a),a))))),"
        "a))))))),c(b(a),a)))),b(a)),a)\n",
    ),
    "sample-dicho-dot": (
        "sample --alphabet a:-1,b:0,c:1 --tuple 14,13,13 --count 3 --seed 11 --method dicho"
        " --format dot",
        "sha256:8f7b7150c350d9607be4e7f0bc2e06d911518bad37d3bd2f34a5c53ca03d9683",
    ),
    "sample-perm-dot": (
        "sample --alphabet a:-1,b:0,c:1 --tuple 14,13,13 --count 3 --seed 11 --method perm"
        " --format dot",
        "sha256:3d0095eb50f7c1333da50b462e8ac316040d1fbf8429cc9e37fae01bb2946aa0",
    ),
    # two benchmark-sized trees from one source
    "sample-at-benchmark-scale-dicho": (
        "sample --alphabet a:-1,b:0,c:1 --tuple 3334,3334,3333 --count 2 --count-bits --seed 3"
        " --method dicho",
        "sha256:c8b8674b34d0fd5e1946a9db70a17d36737a56424d83a89d76551f7854dc3d39",
    ),
    "sample-at-benchmark-scale-perm": (
        "sample --alphabet a:-1,b:0,c:1 --tuple 3334,3334,3333 --count 2 --count-bits --seed 3"
        " --method perm",
        "sha256:d0b62450e12978f78df327e74201bff33aa81e35b9e5dbd85bb9a53a56ed88a1",
    ),
    "bitcost": (
        "bitcost --k-max 9 --replicates 50 --seed 4",
        "k,replicates,mean_bits,stderr,ratio,"
        "mean_bits_offset,stderr_offset,ratio_offset,ctilde,bound\n"
        "2,50,1.000000,0.000000,0.333333,2.180000,0.236798,0.726667,3.000000,3.000000\n"
        "3,50,3.040000,0.176033,0.847987,1.440000,0.070912,0.401678,3.500000,3.584963\n"
        "4,50,2.000000,0.000000,0.500000,3.560000,0.171809,0.890000,4.000000,4.000000\n"
        "5,50,4.220000,0.194391,0.976416,3.340000,0.195061,0.772803,4.250000,4.321928\n"
        "6,50,4.180000,0.220741,0.911676,3.960000,0.211814,0.863693,4.500000,4.584963\n"
        "7,50,4.500000,0.219926,0.936066,2.660000,0.067673,0.553319,4.750000,4.807355\n"
        "8,50,3.000000,0.000000,0.600000,4.440000,0.159489,0.888000,5.000000,5.000000\n"
        "9,50,5.120000,0.195124,0.990343,5.000000,0.176126,0.967132,5.125000,5.169925\n",
    ),
}


def run(argv):
    """Exit code, stdout and stderr of one in-process CLI call; argparse's exit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def needs_numpy(case):
    return case[0].split()[0] == "height-scan"


def problems(case):
    """What one (command line, expected stdout) case gets wrong; [] when it passes."""
    command, expected = case
    code, out, err = run(command.split())
    if expected.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    found = [f"exit code {code}"] if code != 0 else []
    found += [f"stderr {err!r}"] if err else []
    found += [f"stdout {out!r}, expected {expected!r}"] if out != expected else []
    return found


def check_all():
    """Run every case this interpreter can, print what failed and what was skipped; 0 or 1."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        skipped = [case for case in CASES.values() if needs_numpy(case)]
    else:
        skipped = []
    failed = 0
    for name, case in CASES.items():
        found = [] if case in skipped else problems(case)
        for problem in found:
            print(f"FAIL {name}: {problem}")
        failed += bool(found)
    print(f"{len(CASES) - len(skipped)} cases run, {failed} failed")
    if skipped:
        print(f"{len(skipped)} height-scan cases skipped, numpy does not import:")
        for command, _ in skipped:
            print(f"  lukatree {command}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(check_all())
