"""Public calls fed small ints and int lists return a value or raise a LukatreeError.

No input here may end in a bare IndexError or ValueError, and a value a call
returns must be one its contract allows: a PlanarTree is a Lukasiewicz word,
a feasible unary count makes a Motzkin tuple, and batch rows, zero or more,
hold the counts.
The sizes stay small, so no call allocates much.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lukatree import (
    METHODS,
    SERIALIZE_FORMATS,
    Classification,
    DiscreteWeights,
    LukatreeError,
    PlanarTree,
    binary_alphabet,
    classify,
    height,
    motzkin_alphabet,
    motzkin_tuple,
    nearest_feasible_unary,
    path_heights,
    serialize,
    to_lukasiewicz,
    word_to_tree,
)
from lukatree.batch import batch_valid_words

MOTZKIN = motzkin_alphabet()
ALPHABETS = st.sampled_from([MOTZKIN, binary_alphabet()])
INTS = st.integers(-3, 12)
INT_LISTS = st.lists(INTS, max_size=12)


def _call(fn, *args):
    """fn(*args), or None when it raises a LukatreeError; any other exception propagates."""
    try:
        return fn(*args)
    except LukatreeError:
        return None


@settings(max_examples=300, deadline=None)
@given(alphabet=ALPHABETS, letters=INT_LISTS)
@example(alphabet=MOTZKIN, letters=[])
@example(alphabet=MOTZKIN, letters=[2])
@example(alphabet=MOTZKIN, letters=[-1])
@example(alphabet=MOTZKIN, letters=[0, 0])
@example(alphabet=MOTZKIN, letters=[5])
@example(alphabet=MOTZKIN, letters=[1, 0, 0])
@example(alphabet=MOTZKIN, letters=[2, 0, 1, 0])
def test_words_and_trees(alphabet, letters):
    path = _call(path_heights, letters, alphabet)
    verdict = _call(classify, letters, alphabet)
    rotated = _call(to_lukasiewicz, letters, alphabet)
    if path is not None:
        assert verdict is not None
    if rotated is not None:
        assert classify(rotated, alphabet) is Classification.LUKASIEWICZ
    tree = _call(PlanarTree, alphabet, letters)
    assert (tree is not None) == (verdict is Classification.LUKASIEWICZ)
    assert _call(word_to_tree, letters, alphabet) == tree
    if tree is not None:
        assert tree.letters == letters
        assert 0 <= height(tree) < len(letters)
        for fmt in SERIALIZE_FORMATS:
            assert isinstance(serialize(tree, fmt), str)
        assert _call(serialize, tree, "json") is None


@settings(max_examples=300, deadline=None)
@given(n=INTS, u=INTS)
@example(n=0, u=0)
@example(n=5, u=9)
@example(n=5, u=-3)
def test_unary_counts(n, u):
    _call(motzkin_tuple, n, u)
    nearest = _call(nearest_feasible_unary, n, u)
    assert (nearest is not None) == (n >= 1 and 0 <= u <= n)
    if nearest is not None:
        assert abs(nearest - u) <= 1
        assert sum(motzkin_tuple(n, nearest).counts) == n


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=100, deadline=None)
@given(counts=INT_LISTS, reps=INTS)
@example(counts=[2, 0, 1], reps=-1)
@example(counts=[2, 0, 1], reps=0)
def test_batch_valid_words(method, counts, reps):
    words = _call(batch_valid_words, np.random.default_rng(0), tuple(counts), reps, method)
    if words is not None:
        assert reps >= 0
        assert words.shape == (reps, sum(counts))
        for letter, count in enumerate(counts):
            assert ((words == letter).sum(axis=1) == count).all()


@settings(max_examples=300, deadline=None)
@given(weights=INT_LISTS, index=INTS)
@example(weights=[2, 1, 1], index=-1)
@example(weights=[2, 1, 1], index=3)
def test_discrete_weights_decrement(weights, index):
    pool = _call(DiscreteWeights, weights)
    if pool is None:
        return
    before = list(pool.weights)
    try:
        pool.decrement(index)
    except LukatreeError:
        assert pool.weights == before
        assert not (0 <= index < len(before) and before[index] >= 1)
    else:
        assert 0 <= index < len(before) and pool.weights[index] == before[index] - 1
