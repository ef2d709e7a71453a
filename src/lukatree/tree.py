"""Rooted planar trees stored as their Lukasiewicz words, and the bijection.

A Lukasiewicz word is read left to right as the preorder letter sequence of a
rooted planar tree: a letter of degree d opens a node with d+1 children.  A
:class:`PlanarTree` therefore stores only that word, which its constructor
checks; the child lists are decoded from it on first use, on an explicit
stack of unfilled child slots, so deep (caterpillar-like) trees of any size
are fine.  Nothing in this module recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .alphabet import TreeAlphabet
from .errors import LukatreeError, NotAValidWordError
from .words import path_heights

__all__ = [
    "PlanarTree",
    "word_to_tree",
    "height",
    "serialize",
    "SERIALIZE_FORMATS",
]

SERIALIZE_FORMATS = ("paren", "dot", "luka")


@dataclass
class PlanarTree:
    """A tree held as its Lukasiewicz word: letters[i] labels node i.

    The root is node 0 and nodes are numbered in preorder (children left to
    right), which is exactly the order of the word.  ``children[i]`` lists
    node i's children; it is decoded from the word the first time it is read.

    The constructor checks the word on one walk of its path and stores its
    letters as a list of ints.  Letters that are no index of the alphabet
    raise ArityMismatchError.  The empty word, a word whose path touches -1
    before its last letter (the tree is complete with letters left over), and
    a word whose degree total is not -1 (child slots left unfilled) raise
    NotAValidWordError.
    """

    alphabet: TreeAlphabet
    letters: list[int]

    def __post_init__(self) -> None:
        path = path_heights(self.letters, self.alphabet)
        if not path:
            raise NotAValidWordError("the empty word encodes no tree")
        # steps are >= -1, so a path that goes below 0 first touches -1
        if min(path) >= 0:
            raise NotAValidWordError(
                f"{path[-1] + 1} child slots left unfilled; not a Lukasiewicz word"
            )
        done = path.index(-1) + 1
        if done < len(path):
            raise NotAValidWordError(
                f"tree complete after {done} letters but the word has {len(path)}; "
                "not a Lukasiewicz word"
            )
        self.letters = [int(x) for x in self.letters]

    def __len__(self) -> int:
        return len(self.letters)

    @cached_property
    def children(self) -> list[list[int]]:
        """Child lists in preorder, decoded on one stack of unfilled slots.

        Each stack entry names the parent of one unfilled child slot, so node
        i's parent is the top entry, and node i then pushes one entry per
        child of its own.
        """
        degrees = self.alphabet.degrees
        children: list[list[int]] = [[] for _ in self.letters]
        slots: list[int] = []
        for i, letter in enumerate(self.letters):
            if i:
                children[slots.pop()].append(i)
            slots.extend([i] * (degrees[letter] + 1))
        return children


def _unchecked_tree(alphabet: TreeAlphabet, letters: list[int]) -> PlanarTree:
    """The PlanarTree of letters, a list of ints already known to be a
    Lukasiewicz word over alphabet: nothing is checked."""
    tree = object.__new__(PlanarTree)
    tree.alphabet, tree.letters = alphabet, letters
    return tree


def word_to_tree(word: Sequence[int], alphabet: TreeAlphabet) -> PlanarTree:
    """The tree of a Lukasiewicz word: ``PlanarTree(alphabet, word)``."""
    return PlanarTree(alphabet, word)


def height(tree: PlanarTree) -> int:
    """Largest node depth; 0 for a single leaf."""
    # one pass over the word on a stack of unfilled child slots, each holding
    # its depth: a node takes the top slot's depth and pushes its children's
    degrees = tree.alphabet.degrees
    slots = [0]
    deepest = 0
    for letter in tree.letters:
        depth = slots.pop()
        kids = degrees[letter] + 1
        if kids:
            slots += [depth + 1] * kids
        elif depth > deepest:
            deepest = depth
    return deepest


def serialize(tree: PlanarTree, fmt: str = "paren") -> str:
    """Render the tree as text.

    paren -- nested symbols, e.g. "c(a,a)"; leaves are bare letters
    dot   -- Graphviz digraph with preorder node ids and letter labels
    luka  -- the Lukasiewicz word itself, one symbol per node
    """
    if fmt == "luka":
        return tree.alphabet.format_word(tree.letters)
    if fmt == "paren":
        return _paren(tree)
    if fmt == "dot":
        return _dot(tree)
    raise LukatreeError(f"unknown format {fmt!r}, expected one of {SERIALIZE_FORMATS}")


def _paren(tree: PlanarTree) -> str:
    # one pass over the word: each open node counts its children still to
    # come, and a leaf closes every node it was the last child of
    symbols = tree.alphabet.letters
    degrees = tree.alphabet.degrees
    parts: list[str] = []
    put = parts.append
    to_come: list[int] = []
    for letter in tree.letters:
        put(symbols[letter])
        kids = degrees[letter] + 1
        if kids:
            put("(")
            to_come.append(kids)
            continue
        while to_come:
            to_come[-1] -= 1
            if to_come[-1]:
                put(",")
                break
            to_come.pop()
            put(")")
    return "".join(parts)


def _dot(tree: PlanarTree) -> str:
    symbols = tree.alphabet.letters
    lines = ["digraph tree {"]
    for i, letter in enumerate(tree.letters):
        lines.append(f'  n{i} [label="{symbols[letter]}"];')
    for parent, kids in enumerate(tree.children):
        for child in kids:
            lines.append(f"  n{parent} -> n{child};")
    lines.append("}")
    return "\n".join(lines)
