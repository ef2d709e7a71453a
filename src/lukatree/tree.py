"""Rooted planar trees stored as their Lukasiewicz words, and the bijection.

A Lukasiewicz word is read left to right as the preorder letter sequence of a
rooted planar tree: a letter of degree d opens a node with d+1 children.  A
:class:`PlanarTree` therefore stores only that word; the child lists are
decoded from it on first use, on an explicit stack of unfilled child slots,
so deep (caterpillar-like) trees of any size are fine.  Nothing in this
module recurses.
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
    Build trees with :func:`word_to_tree`, which checks the word; the
    constructor rejects only the empty word, which encodes no tree.
    """

    alphabet: TreeAlphabet
    letters: list[int]

    def __post_init__(self) -> None:
        if not self.letters:
            raise NotAValidWordError("the empty word encodes no tree")

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


def word_to_tree(word: Sequence[int], alphabet: TreeAlphabet) -> PlanarTree:
    """The tree of a Lukasiewicz word, after checking the word's path.

    Letters outside the alphabet raise ArityMismatchError.  A word whose path
    touches -1 before its last letter (the tree is complete with letters left
    over), or whose degree total is not -1 (child slots left unfilled), raises
    NotAValidWordError.
    """
    path = path_heights(word, alphabet)
    tree = PlanarTree(alphabet, [int(x) for x in word])  # refuses the empty word
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
    return tree


def height(tree: PlanarTree) -> int:
    """Largest node depth; 0 for a single leaf."""
    # preorder puts every parent before its children, so one pass fills depth
    depth = [0] * len(tree.letters)
    for node, kids in enumerate(tree.children):
        below = depth[node] + 1
        for kid in kids:
            depth[kid] = below
    return max(depth)


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
