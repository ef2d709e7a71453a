"""Public calls fed small ints and int lists return a value or raise a LukatreeError.

No input here may end in a bare IndexError or ValueError, and a value a call
returns must be one its contract allows: a PlanarTree is a Lukasiewicz word,
a feasible unary count makes a Motzkin tuple, and batch rows, zero or more,
hold the counts.  Fed a float (even 2.0) or a numeric string where an
integer belongs, every call raises a LukatreeError; a numpy int or a bool
passes as the int it stands for.
The sizes stay small, so no call allocates much.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lukatree import (
    METHODS,
    SERIALIZE_FORMATS,
    BitSource,
    Classification,
    DegreeTuple,
    DiscreteWeights,
    LukatreeError,
    PlanarTree,
    TreeAlphabet,
    binary_alphabet,
    classify,
    dichotomic_draw,
    fisher_yates,
    height,
    mean_cost_closed_form,
    motzkin_alphabet,
    motzkin_tuple,
    nearest_feasible_unary,
    path_heights,
    permutation_to_valid_word,
    sample_tree,
    serialize,
    to_lukasiewicz,
    uniform_int,
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
        assert tree.letters == tuple(letters)
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


def _edited_draw(weight):
    pool = DiscreteWeights([2, 1])
    pool.weights[1] = weight
    return dichotomic_draw(BitSource(0), pool)


def _decremented(index):
    pool = DiscreteWeights([2, 1])
    pool.decrement(index)
    return pool.weights


# call of one integer argument -> a value it takes
INTEGER_ARGUMENTS = {
    "DegreeTuple": (lambda x: DegreeTuple((2, x, 1)), 1),
    "sample_tree": (lambda x: sample_tree(BitSource(0), (2, x, 1), MOTZKIN), 1),
    "TreeAlphabet": (lambda x: TreeAlphabet(("a", "b"), (-1, x)), 0),
    "DiscreteWeights": (lambda x: DiscreteWeights([2, x]).weights, 1),
    "dichotomic_draw": (_edited_draw, 1),
    "decrement": (_decremented, 1),
    "mean_cost_closed_form": (mean_cost_closed_form, 5),
    "uniform_int": (lambda x: uniform_int(BitSource(0), x), 5),
    "fisher_yates": (lambda x: fisher_yates(BitSource(0), x), 5),
    "next_bits": (lambda x: BitSource(0).next_bits(x), 9),
    "permutation_to_valid_word": (lambda x: permutation_to_valid_word([x, 2, 3], (2, 0, 1), MOTZKIN), 1),
    "format_word": (lambda x: MOTZKIN.format_word([2, x]), 0),
    "path_heights": (lambda x: path_heights([2, x, 0], MOTZKIN), 0),
    "PlanarTree": (lambda x: PlanarTree(MOTZKIN, [2, x, 0]), 0),
    "motzkin_tuple.n": (lambda x: motzkin_tuple(x, 2), 5),
    "motzkin_tuple.u": (lambda x: motzkin_tuple(5, x), 0),
    "nearest_feasible_unary": (lambda x: nearest_feasible_unary(5, x), 1),
    "batch_valid_words.counts": (
        lambda x: batch_valid_words(np.random.default_rng(0), (2, 0, x), 2).tolist(), 1
    ),
    "batch_valid_words.reps": (
        lambda x: batch_valid_words(np.random.default_rng(0), (2, 0, 1), x).tolist(), 2
    ),
}
NOT_INTS = st.one_of(
    INTS.map(float),
    st.floats(-3, 12),
    INTS.map(str),
    st.sampled_from(["1.5", "", "c"]),
)


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
@settings(max_examples=40, deadline=None)
@given(value=NOT_INTS)
@example(value=1.0)
@example(value="1")
def test_non_integers_are_refused(name, value):
    call, _ = INTEGER_ARGUMENTS[name]
    with pytest.raises(LukatreeError):
        call(value)


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_numpy_ints_and_bools_pass_as_ints(name):
    call, good = INTEGER_ARGUMENTS[name]
    want = call(good)
    for stand_in in (np.int64(good), np.int8(good), *([bool(good)] if good in (0, 1) else [])):
        assert call(stand_in) == want, stand_in
