"""Command-line front end.

Subcommands mirror the library one to one:

  sample       draw uniform trees (permutation or dichotomic pipeline)
  check        classify a word, print its path heights
  count        exact number of trees (or valid words) for a counts tuple
  enumerate    list every Lukasiewicz word of a small counts tuple
  render       pretty-print the tree of a Lukasiewicz word
  bitcost      CSV: measured dichotomic bits per draw vs. 2 + log2 k
  height-scan  CSV: mean heights of uniform Motzkin trees by unary fraction

Domain errors exit with status 1 and a message on stderr; argparse handles
flag misuse with status 2.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import sys
from typing import Sequence

from .alphabet import parse_alphabet, parse_tuple
from .bitstream import BitSource
from .enumeration import DEFAULT_ENUMERATION_LIMIT, enumerate_lukasiewicz, tutte_count, valid_word_count
from .errors import DomainTooSmallError, LukatreeError
from .experiments import (
    bitcost_csv,
    height_scan_csv,
    run_bitcost_scan,
    run_height_scan,
)
from .samplers import sample_tree
from .tree import SERIALIZE_FORMATS, PlanarTree, serialize
from .words import classify, path_heights

_METHOD_NAMES = {"perm": "permutation", "dicho": "dichotomic"}


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="64-bit PRNG seed (default 0)")


@functools.cache  # parse_args leaves the parser as it was, so main reuses one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lukatree",
        description="Uniform random trees with prescribed degrees, via Lukasiewicz words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw uniform random trees")
    p.add_argument("--alphabet", required=True, help='e.g. "a:-1,b:0,c:1"')
    p.add_argument("--tuple", required=True, dest="counts", help='letter counts, e.g. "3,1,2"')
    p.add_argument("--count", type=int, default=1, help="number of trees (default 1)")
    p.add_argument(
        "--method",
        choices=sorted(_METHOD_NAMES),
        default="dicho",
        help="sampling pipeline (default dicho)",
    )
    p.add_argument("--format", choices=SERIALIZE_FORMATS, default="luka")
    p.add_argument(
        "--count-bits",
        action="store_true",
        help="append ' bits=<b>' with the fair bits consumed per tree",
    )
    _add_seed(p)

    p = sub.add_parser("check", help="classify a word and print its path heights")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--word", required=True, help="letter symbols, e.g. babacac")

    p = sub.add_parser("count", help="exact number of trees for a counts tuple")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--tuple", required=True, dest="counts")
    p.add_argument(
        "--kind",
        choices=("trees", "words"),
        default="trees",
        help="count trees (Lukasiewicz words) or all valid words",
    )

    p = sub.add_parser("enumerate", help="list all Lukasiewicz words of a tuple")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--tuple", required=True, dest="counts")
    p.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_ENUMERATION_LIMIT,
        help=f"size cap for exhaustion (default {DEFAULT_ENUMERATION_LIMIT})",
    )

    p = sub.add_parser("render", help="pretty-print the tree of a Lukasiewicz word")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--format", choices=SERIALIZE_FORMATS, default="paren")

    p = sub.add_parser("bitcost", help="CSV of measured dichotomic bits per draw")
    p.add_argument("--k-max", type=int, default=64, help="largest weight count (default 64)")
    p.add_argument("--replicates", type=int, default=1000, help="draws per k (default 1000)")
    _add_seed(p)

    p = sub.add_parser("height-scan", help="CSV of Motzkin tree heights by unary fraction")
    p.add_argument("--n", type=int, required=True, help="tree size (number of nodes)")
    p.add_argument(
        "--fractions",
        default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        help="comma-separated unary fractions (default 0..0.9)",
    )
    p.add_argument("--replicates", type=int, default=1000, help="trees per fraction")
    p.add_argument("--method", choices=sorted(_METHOD_NAMES), default="dicho")
    p.add_argument(
        "--engine",
        choices=("batch", "scalar"),
        default="batch",
        help="vectorized batch engine or the scalar bit-level pipelines",
    )
    _add_seed(p)

    return parser


def _cmd_sample(args: argparse.Namespace) -> None:
    if args.count < 1:
        raise DomainTooSmallError(f"need at least one tree, got --count {args.count}")
    alphabet = parse_alphabet(args.alphabet)
    counts = parse_tuple(args.counts)
    method = _METHOD_NAMES[args.method]
    source = BitSource(args.seed)
    for _ in range(args.count):
        before = source.bits_consumed
        tree = sample_tree(source, counts, alphabet, method)
        line = serialize(tree, args.format)
        if args.count_bits:
            line += f" bits={source.bits_consumed - before}"
        print(line)


def _cmd_check(args: argparse.Namespace) -> None:
    alphabet = parse_alphabet(args.alphabet)
    word = alphabet.parse_word(args.word)
    print(classify(word, alphabet).value)
    print(",".join(str(h) for h in path_heights(word, alphabet)))


def _cmd_count(args: argparse.Namespace) -> None:
    alphabet = parse_alphabet(args.alphabet)
    counts = parse_tuple(args.counts)
    fn = tutte_count if args.kind == "trees" else valid_word_count
    # str() of an int refuses more than sys.get_int_max_str_digits() digits;
    # an exact Decimal prints them all without touching that process-wide cap
    print(decimal.Decimal(fn(counts, alphabet)))


def _cmd_enumerate(args: argparse.Namespace) -> None:
    alphabet = parse_alphabet(args.alphabet)
    counts = parse_tuple(args.counts)
    for word in enumerate_lukasiewicz(counts, alphabet, args.limit):
        print(alphabet.format_word(word))


def _cmd_render(args: argparse.Namespace) -> None:
    alphabet = parse_alphabet(args.alphabet)
    word = alphabet.parse_word(args.word)
    print(serialize(PlanarTree(alphabet, word), args.format))


def _cmd_bitcost(args: argparse.Namespace) -> None:
    rows = run_bitcost_scan(args.k_max, args.replicates, args.seed)
    sys.stdout.write(bitcost_csv(rows))


def _cmd_height_scan(args: argparse.Namespace) -> None:
    try:
        fractions = tuple(float(f) for f in args.fractions.split(","))
    except ValueError:
        raise LukatreeError(f"malformed fractions list {args.fractions!r}") from None
    rows = run_height_scan(
        args.n,
        fractions,
        args.replicates,
        seed=args.seed,
        method=_METHOD_NAMES[args.method],
        engine=args.engine,
    )
    sys.stdout.write(height_scan_csv(rows))


_HANDLERS = {
    "sample": _cmd_sample,
    "check": _cmd_check,
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "render": _cmd_render,
    "bitcost": _cmd_bitcost,
    "height-scan": _cmd_height_scan,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _HANDLERS[args.command](args)
    except LukatreeError as exc:
        message = exc.args[0] if exc.args else exc
        print(f"lukatree: error: {message}", file=sys.stderr)
        return 1
    except MemoryError:
        print("lukatree: error: out of memory; try a smaller size", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
