import sys

import pytest

from lukatree import (
    ArityMismatchError,
    DegreeTuple,
    LukatreeError,
    NotAValidWordError,
    PlanarTree,
    TreeAlphabet,
    enumerate_lukasiewicz,
    height,
    serialize,
    word_to_tree,
)


def test_single_leaf(motzkin):
    tree = word_to_tree((0,), motzkin)
    assert len(tree) == 1
    assert tree.letters == [0] and tree.children == [[]]
    assert height(tree) == 0
    assert serialize(tree, "paren") == "a"


def test_decode_worked_example(motzkin):
    word = motzkin.parse_word("cacbaba")
    tree = word_to_tree(word, motzkin)
    assert tree.letters == [2, 0, 2, 1, 0, 1, 0]
    assert tree.children == [[1, 2], [], [3, 5], [4], [], [6], []]
    assert height(tree) == 3
    assert tuple(tree.letters.count(i) for i in range(motzkin.k)) == (3, 2, 2)
    assert tree.letters == list(word)


def test_decode_rejects_malformed_words(motzkin):
    cases = [
        ("", "^the empty word encodes no tree$"),
        # complete too early
        ("aa", "^tree complete after 1 letters but the word has 2; not a Lukasiewicz word$"),
        ("caac", "^tree complete after 3 letters but the word has 4;"),
        ("baa", "^tree complete after 2 letters but the word has 3;"),
        # slots unfilled
        ("c", "^2 child slots left unfilled; not a Lukasiewicz word$"),
        ("bb", "^1 child slots left unfilled;"),  # never terminates a branch
        # valid but not Lukasiewicz
        ("aca", "^tree complete after 1 letters but the word has 3;"),
    ]
    for text, message in cases:
        word = motzkin.parse_word(text)
        with pytest.raises(NotAValidWordError, match=message):
            PlanarTree(motzkin, list(word))
        with pytest.raises(NotAValidWordError, match=message):
            word_to_tree(word, motzkin)


@pytest.mark.parametrize("bad", [-1, -3, 3, 2.0, "c", None])
def test_decode_rejects_letters_outside_the_alphabet(motzkin, bad):
    # negative indices would otherwise wrap around the alphabet's degrees,
    # and a letter that is no int would end in a bare TypeError
    message = f"^letter index {bad} outside alphabet of 3 letters$"
    for word in ([2, bad, 0], [bad]):
        with pytest.raises(ArityMismatchError, match=message):
            PlanarTree(motzkin, word)
        with pytest.raises(ArityMismatchError, match=message):
            word_to_tree(tuple(word), motzkin)


def test_serialize_paren_frozen(motzkin):
    tree = word_to_tree(motzkin.parse_word("cacbaba"), motzkin)
    assert serialize(tree, "paren") == "c(a,c(b(a),b(a)))"
    assert serialize(tree) == "c(a,c(b(a),b(a)))"


def test_serialize_luka_is_the_word(motzkin):
    tree = word_to_tree(motzkin.parse_word("cacbaba"), motzkin)
    assert serialize(tree, "luka") == "cacbaba"


def test_serialize_dot_frozen(motzkin):
    tree = word_to_tree(motzkin.parse_word("caa"), motzkin)
    assert serialize(tree, "dot") == "\n".join(
        [
            "digraph tree {",
            '  n0 [label="c"];',
            '  n1 [label="a"];',
            '  n2 [label="a"];',
            "  n0 -> n1;",
            "  n0 -> n2;",
            "}",
        ]
    )


def test_serialize_unknown_format(motzkin):
    tree = word_to_tree((0,), motzkin)
    with pytest.raises(LukatreeError, match="unknown format 'json'"):
        serialize(tree, "json")


def _preorder_letters(tree):
    """Letters met by an explicit-stack preorder walk of ``tree.children``.

    Each node must have as many children as its letter's arity; with that,
    a walk that meets the letters in word order pins the whole structure.
    """
    out = []
    stack = [0]
    while stack:
        node = stack.pop()
        letter = tree.letters[node]
        assert len(tree.children[node]) == tree.alphabet.degrees[letter] + 1
        out.append(letter)
        stack.extend(reversed(tree.children[node]))
    return out


def _height_by_recursion(tree, node=0):
    kids = tree.children[node]
    if not kids:
        return 0
    return 1 + max(_height_by_recursion(tree, kid) for kid in kids)


def test_height_matches_recursive_oracle(motzkin):
    four = TreeAlphabet(("a", "b", "c", "d"), (-1, 0, 1, 2))
    for alphabet, tuples in (
        (motzkin, ((4, 0, 3), (3, 2, 2), (1, 6, 0), (5, 1, 4))),
        (four, ((3, 1, 0, 1), (4, 0, 1, 1), (3, 1, 2, 0), (6, 1, 1, 2))),
    ):
        for counts in tuples:
            for word in enumerate_lukasiewicz(DegreeTuple(counts), alphabet):
                tree = word_to_tree(word, alphabet)
                assert height(tree) == _height_by_recursion(tree)


def test_deep_caterpillar_does_not_recurse(motzkin):
    # 5000 unary nodes over a leaf; would overflow any recursive walk
    word = motzkin.parse_word("b" * 5000 + "a")
    tree = word_to_tree(word, motzkin)
    assert height(tree) == 5000
    assert tree.letters == list(word)
    assert _preorder_letters(tree) == list(word)
    assert serialize(tree, "luka") == "b" * 5000 + "a"


def _paren_by_recursion(tree, node=0):
    symbol = tree.alphabet.letters[tree.letters[node]]
    kids = tree.children[node]
    if not kids:
        return symbol
    return symbol + "(" + ",".join([_paren_by_recursion(tree, kid) for kid in kids]) + ")"


def test_paren_matches_recursive_rendering(motzkin, binary):
    four = TreeAlphabet(("a", "b", "c", "d"), (-1, 0, 1, 2))
    for alphabet, tuples in (
        (motzkin, ((1, 0, 0), (2, 1, 1), (3, 2, 2), (4, 1, 3))),
        (binary, ((4, 3),)),
        (four, ((3, 1, 0, 1), (4, 0, 1, 1), (3, 1, 2, 0))),
    ):
        for counts in tuples:
            for word in enumerate_lukasiewicz(DegreeTuple(counts), alphabet):
                tree = word_to_tree(word, alphabet)
                assert serialize(tree, "paren") == _paren_by_recursion(tree)
    # the 5000-deep caterpillar: the oracle needs a raised recursion limit
    tree = word_to_tree(motzkin.parse_word("b" * 5000 + "a"), motzkin)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 12_000))
    try:
        expected = _paren_by_recursion(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert serialize(tree, "paren") == expected == "b(" * 5000 + "a" + ")" * 5000


def test_round_trip_exhaustive(motzkin, binary):
    for alphabet, tuples in (
        (motzkin, ((2, 1, 1), (3, 0, 2), (4, 1, 3))),
        (binary, ((3, 2), (4, 3))),
    ):
        for counts in tuples:
            words = enumerate_lukasiewicz(DegreeTuple(counts), alphabet)
            for word in words:
                tree = PlanarTree(alphabet, word)
                assert type(tree.letters) is list and tuple(tree.letters) == tuple(word)
                assert word_to_tree(word, alphabet) == tree
                assert _preorder_letters(tree) == list(word)
                assert tuple(tree.letters.count(i) for i in range(alphabet.k)) == counts
