"""Tree alphabets and degree-count tuples.

A tree alphabet is an ordered list of letters, each carrying an integer
degree >= -1, with the degrees non-decreasing and the first one equal to -1.
A letter of degree d labels a tree node with d+1 ordered children, so the
degree-(-1) letters are the leaves.  A word over the alphabet describes a
walk: each letter moves the running sum by its degree.  Words whose total
is exactly -1 are called f-valid; they are the raw material from which
Lukasiewicz words (and therefore rooted planar trees) are carved out.

Letters are handled as 0-based indices everywhere inside the package; the
single-character symbols only matter at the text boundary, through
:func:`parse_alphabet`, :meth:`TreeAlphabet.parse_word` and friends.

The two standard alphabets of the test suite and the experiments are

>>> motzkin_alphabet().degrees
(-1, 0, 1)
>>> binary_alphabet().degrees
(-1, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .errors import AlphabetError, ArityMismatchError, TupleNotValidError

__all__ = [
    "TreeAlphabet",
    "DegreeTuple",
    "motzkin_alphabet",
    "binary_alphabet",
    "is_f_valid",
    "f_valid_counts",
    "degree_counts",
    "parse_alphabet",
    "format_alphabet",
    "parse_tuple",
    "format_tuple",
]


@dataclass(frozen=True)
class TreeAlphabet:
    """An ordered alphabet of letters with degree function f.

    letters -- tuple of distinct single printable characters
    degrees -- tuple of integers, non-decreasing, first entry -1 (so all >= -1)

    Anything else raises :class:`AlphabetError`.
    """

    letters: tuple[str, ...]
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        degrees = tuple(int(d) for d in self.degrees)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "degrees", degrees)
        if len(letters) != len(degrees) or not letters:
            raise AlphabetError(
                f"need equally many letters and degrees, got {len(letters)} letters "
                f"and {len(degrees)} degrees"
            )
        for sym in letters:
            if len(sym) != 1 or not sym.isprintable() or sym in ",:":
                raise AlphabetError(
                    f"letter symbol {sym!r} is not a single printable character"
                )
        if len(set(letters)) != len(letters):
            raise AlphabetError(f"duplicate letter symbol in {letters!r}")
        if degrees[0] != -1:
            raise AlphabetError(f"first letter must have degree -1, got {degrees[0]}")
        if any(a > b for a, b in zip(degrees, degrees[1:])):
            raise AlphabetError(f"degrees not non-decreasing: {degrees!r}")

    @property
    def k(self) -> int:
        """Number of letters."""
        return len(self.letters)

    def index(self, symbol: str) -> int:
        """0-based index of a letter symbol."""
        try:
            return self.letters.index(symbol)
        except ValueError:
            raise AlphabetError(
                f"no letter {symbol!r} in alphabet {format_alphabet(self)}"
            ) from None

    def arity(self, letter: int) -> int:
        """Number of children of a node labelled by letter index i (= degree + 1)."""
        return self.degrees[letter] + 1

    def parse_word(self, text: str) -> tuple[int, ...]:
        """Turn a string of letter symbols into a word (tuple of letter indices)."""
        lookup = {sym: i for i, sym in enumerate(self.letters)}
        try:
            return tuple(lookup[ch] for ch in text)
        except KeyError as exc:
            raise ArityMismatchError(
                f"character {exc.args[0]!r} is not a letter of {format_alphabet(self)}"
            ) from None

    def format_word(self, word: Sequence[int]) -> str:
        """Inverse of parse_word."""
        letters = self.letters
        return "".join([letters[i] for i in word])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TreeAlphabet({format_alphabet(self)!r})"


@dataclass(frozen=True)
class DegreeTuple:
    """How many times each letter of an alphabet occurs, by letter index."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if not counts or any(c < 0 for c in counts):
            raise ArityMismatchError(f"counts must be non-negative and non-empty: {counts!r}")

    @property
    def total(self) -> int:
        """Word length n = sum of the counts."""
        return sum(self.counts)

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)


CountsLike = Union[DegreeTuple, Sequence[int]]


def degree_counts(t: CountsLike) -> tuple[int, ...]:
    """Normalize a DegreeTuple or plain sequence of counts to a tuple of ints."""
    return (t if isinstance(t, DegreeTuple) else DegreeTuple(t)).counts


def motzkin_alphabet() -> TreeAlphabet:
    """Leaf, unary, binary: a:-1, b:0, c:1 (unary-binary trees)."""
    return TreeAlphabet(("a", "b", "c"), (-1, 0, 1))


def binary_alphabet() -> TreeAlphabet:
    """Leaf and binary only: a:-1, c:1 (full binary trees)."""
    return TreeAlphabet(("a", "c"), (-1, 1))


def is_f_valid(t: CountsLike, alphabet: TreeAlphabet) -> bool:
    """Whether words with these letter counts have degree sum exactly -1.

    By the cycle lemma this is also the condition for the counts to be
    realizable as a rooted planar tree.  Zero counts are allowed: a tuple may
    simply not use some letters.
    """
    try:
        f_valid_counts(t, alphabet)
    except TupleNotValidError:
        return False
    return True


def f_valid_counts(t: CountsLike, alphabet: TreeAlphabet) -> tuple[int, ...]:
    """The counts of t as a tuple of ints, checked to be f-valid.

    Raises ArityMismatchError if they do not fit the alphabet and
    TupleNotValidError if their weighted degree sum is not -1.
    """
    counts = degree_counts(t)
    if len(counts) != alphabet.k:
        raise ArityMismatchError(
            f"{len(counts)} counts for an alphabet of {alphabet.k} letters"
        )
    weighted = sum(c * d for c, d in zip(counts, alphabet.degrees))
    if weighted != -1:
        raise TupleNotValidError(
            f"counts {counts!r} have weighted degree sum {weighted}, need -1"
        )
    return counts


# -- text forms --------------------------------------------------------------
#
# alphabet: "a:-1,b:0,c:1"     tuple: "3,1,2"     word: "cacbaba"


def parse_alphabet(text: str) -> TreeAlphabet:
    """Parse the "sym:degree,sym:degree,..." text form."""
    letters: list[str] = []
    degrees: list[int] = []
    for item in text.split(","):
        sym, sep, deg = item.strip().partition(":")
        if not sep:
            raise AlphabetError(f"malformed alphabet item {item!r}, want sym:degree")
        try:
            degrees.append(int(deg))
        except ValueError:
            raise AlphabetError(f"malformed degree in alphabet item {item!r}") from None
        letters.append(sym)
    return TreeAlphabet(tuple(letters), tuple(degrees))


def format_alphabet(alphabet: TreeAlphabet) -> str:
    """Inverse of parse_alphabet."""
    return ",".join(f"{s}:{d}" for s, d in zip(alphabet.letters, alphabet.degrees))


def parse_tuple(text: str) -> DegreeTuple:
    """Parse the "3,1,2" text form of a counts tuple."""
    try:
        counts = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ArityMismatchError(f"malformed counts tuple {text!r}") from None
    return DegreeTuple(counts)


def format_tuple(t: CountsLike) -> str:
    """Inverse of parse_tuple."""
    return ",".join(str(c) for c in degree_counts(t))
