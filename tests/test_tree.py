import pytest

from lukatree import (
    ArityMismatchError,
    DegreeTuple,
    NotAValidWordError,
    degree_census,
    enumerate_lukasiewicz,
    height,
    serialize,
    tree_to_word,
    word_to_tree,
)


def test_single_leaf(motzkin):
    tree = word_to_tree((0,), motzkin)
    assert tree.n == 1 and len(tree) == 1
    assert tree.letters == [0] and tree.children == [[]]
    assert height(tree) == 0
    assert serialize(tree, "paren") == "a"


def test_decode_worked_example(motzkin):
    word = motzkin.parse_word("cacbaba")
    tree = word_to_tree(word, motzkin)
    assert tree.letters == [2, 0, 2, 1, 0, 1, 0]
    assert tree.children == [[1, 2], [], [3, 5], [4], [], [6], []]
    assert height(tree) == 3
    assert degree_census(tree) == DegreeTuple((3, 2, 2))
    assert tree_to_word(tree) == word


def test_decode_rejects_malformed_words(motzkin):
    with pytest.raises(NotAValidWordError, match="^the empty word encodes no tree$"):
        word_to_tree((), motzkin)
    # complete too early
    with pytest.raises(NotAValidWordError, match="^tree complete after 1 letters but the word has 2;"):
        word_to_tree(motzkin.parse_word("aa"), motzkin)
    with pytest.raises(NotAValidWordError, match="^tree complete after 3 letters but the word has 4;"):
        word_to_tree(motzkin.parse_word("caac"), motzkin)
    # slots unfilled
    with pytest.raises(NotAValidWordError, match="^2 child slots left unfilled;"):
        word_to_tree(motzkin.parse_word("c"), motzkin)
    with pytest.raises(NotAValidWordError, match="^1 child slots left unfilled;"):
        word_to_tree(motzkin.parse_word("bb"), motzkin)  # never terminates a branch
    # valid but not Lukasiewicz
    with pytest.raises(NotAValidWordError, match="^tree complete after 1 letters but the word has 3;"):
        word_to_tree(motzkin.parse_word("aca"), motzkin)


@pytest.mark.parametrize("bad", [-1, -3, 3])
def test_decode_rejects_letters_outside_the_alphabet(motzkin, bad):
    # negative indices would otherwise wrap around the alphabet's degrees
    with pytest.raises(ArityMismatchError):
        word_to_tree((2, bad, 0), motzkin)
    with pytest.raises(ArityMismatchError):
        word_to_tree((bad,), motzkin)


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
    with pytest.raises(ValueError):
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
        assert len(tree.children[node]) == tree.alphabet.arity(letter)
        out.append(letter)
        stack.extend(reversed(tree.children[node]))
    return out


def _height_by_recursion(tree, node=0):
    kids = tree.children[node]
    if not kids:
        return 0
    return 1 + max(_height_by_recursion(tree, kid) for kid in kids)


def test_height_matches_recursive_oracle(motzkin):
    for counts in ((4, 0, 3), (3, 2, 2), (1, 6, 0), (5, 1, 4)):
        for word in enumerate_lukasiewicz(DegreeTuple(counts), motzkin):
            tree = word_to_tree(word, motzkin)
            assert height(tree) == _height_by_recursion(tree)


def test_deep_caterpillar_does_not_recurse(motzkin):
    # 5000 unary nodes over a leaf; would overflow any recursive walk
    word = motzkin.parse_word("b" * 5000 + "a")
    tree = word_to_tree(word, motzkin)
    assert height(tree) == 5000
    assert tree_to_word(tree) == word
    assert _preorder_letters(tree) == list(word)
    assert serialize(tree, "luka") == "b" * 5000 + "a"


def test_round_trip_exhaustive(motzkin, binary):
    for alphabet, tuples in (
        (motzkin, ((2, 1, 1), (3, 0, 2), (4, 1, 3))),
        (binary, ((3, 2), (4, 3))),
    ):
        for counts in tuples:
            words = enumerate_lukasiewicz(DegreeTuple(counts), alphabet)
            for word in words:
                tree = word_to_tree(word, alphabet)
                assert tuple(tree_to_word(tree)) == tuple(word)
                assert _preorder_letters(tree) == list(word)
                assert degree_census(tree) == DegreeTuple(counts)
