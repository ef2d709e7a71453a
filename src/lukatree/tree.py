"""Rooted planar trees stored as their Lukasiewicz words, and the bijection.

A Lukasiewicz word is read left to right as the preorder letter sequence of a
rooted planar tree: a letter of degree d opens a node with d+1 children.  A
:class:`PlanarTree` is a frozen dataclass of that word, a tuple of ints that
its constructor checks.  As a tree cannot change, it is decoded once, on
first use: one walk on an explicit stack of unfilled child slots records
each node's parent and depth, from which the child lists, the height and
both drawings are read, so deep (caterpillar-like) trees of any size are
fine.  Nothing in this module recurses.
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


@dataclass(frozen=True)
class PlanarTree:
    """A tree held as its Lukasiewicz word: letters[i] labels node i.

    The root is node 0 and nodes are numbered in preorder (children left to
    right), which is exactly the order of the word.  ``children[i]`` lists
    node i's children; it is decoded from the word the first time it is read.

    The constructor checks the word on one walk of its path and stores it as
    a tuple of ints, frozen.  Letters that are no index of the alphabet raise
    ArityMismatchError.  The empty word, a word whose path touches -1 before
    its last letter (the tree is complete with letters left over), and a word
    whose degree total is not -1 (child slots left unfilled) raise
    NotAValidWordError.
    """

    alphabet: TreeAlphabet
    letters: tuple[int, ...]

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
        object.__setattr__(self, "letters", tuple(map(int, self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    @cached_property
    def _decoded(self) -> tuple[list[int], list[int]]:
        """Each node's parent (-1 for the root) and depth, in preorder, from
        one walk on a stack of unfilled child slots, each naming its parent:
        node i fills the top slot, then pushes one per child of its own."""
        degrees = self.alphabet.degrees
        parents: list[int] = []
        depths: list[int] = []
        slots = [-1]
        for i, letter in enumerate(self.letters):
            parent = slots.pop()
            parents.append(parent)
            depths.append(depths[parent] + 1 if i else 0)
            slots += [i] * (degrees[letter] + 1)
        return parents, depths

    @cached_property
    def children(self) -> list[list[int]]:
        """Child lists in preorder, grouped from the decoded parents."""
        children: list[list[int]] = [[] for _ in self.letters]
        for i, parent in enumerate(self._decoded[0][1:], 1):
            children[parent].append(i)
        return children


def _unchecked_tree(alphabet: TreeAlphabet, letters: tuple[int, ...]) -> PlanarTree:
    """The PlanarTree of letters, a tuple of ints already known to be a
    Lukasiewicz word over alphabet: nothing is checked."""
    tree = object.__new__(PlanarTree)
    tree.__dict__.update(alphabet=alphabet, letters=letters)
    return tree


def word_to_tree(word: Sequence[int], alphabet: TreeAlphabet) -> PlanarTree:
    """The tree of a Lukasiewicz word: ``PlanarTree(alphabet, word)``."""
    return PlanarTree(alphabet, word)


def height(tree: PlanarTree) -> int:
    """Largest node depth; 0 for a single leaf."""
    return max(tree._decoded[1])


def serialize(tree: PlanarTree, fmt: str = "paren") -> str:
    """Render the tree as text.

    paren -- nested symbols, e.g. "c(a,a)"; leaves are bare letters
    dot   -- Graphviz digraph with preorder node ids and letter labels
    luka  -- the Lukasiewicz word itself, one symbol per node
    """
    if fmt == "luka":  # the letters were checked when the tree was made
        symbols = tree.alphabet.letters
        return "".join([symbols[i] for i in tree.letters])
    if fmt == "paren":
        return _paren(tree)
    if fmt == "dot":
        return _dot(tree)
    raise LukatreeError(f"unknown format {fmt!r}, expected one of {SERIALIZE_FORMATS}")


def _paren(tree: PlanarTree) -> str:
    # a node whose successor is deeper opens "(" for its children; any other
    # closes every level down to its successor's and writes the "," before it
    symbols = tree.alphabet.letters
    depths = tree._decoded[1]
    parts: list[str] = []
    for letter, depth, after in zip(tree.letters, depths, depths[1:]):
        parts += symbols[letter], ("(" if after > depth else ")" * (depth - after) + ",")
    parts += symbols[tree.letters[-1]], ")" * depths[-1]
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
