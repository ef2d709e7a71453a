import pytest

from lukatree import (
    AlphabetError,
    ArityMismatchError,
    DegreeTuple,
    TreeAlphabet,
    TupleNotValidError,
    binary_alphabet,
    is_f_valid,
    motzkin_alphabet,
    parse_alphabet,
    parse_tuple,
)
from lukatree.alphabet import f_valid_counts


@pytest.mark.parametrize(
    "word, bad", [([-1, -2], -1), ([5], 5), ([0, 3], 3), ([2.0], 2.0), ([1, "c"], "c"), ([None], None)]
)
def test_format_word_refuses_letters_outside_the_alphabet(word, bad):
    # a negative index would wrap round to a letter from the end
    with pytest.raises(ArityMismatchError, match=f"^letter index {bad} outside alphabet of 3 letters$"):
        motzkin_alphabet().format_word(word)


def test_standard_alphabets():
    A = motzkin_alphabet()
    assert A.letters == ("a", "b", "c")
    assert A.degrees == (-1, 0, 1)
    assert A.k == 3
    B = binary_alphabet()
    assert B.degrees == (-1, 1)
    assert B.k == 2


def test_construction_errors():
    cases = [
        (("a", "a"), (-1, 1), "duplicate letter symbol"),
        (("ab", "c"), (-1, 1), "not a single printable character"),
        (("a", "b"), (0, 1), "first letter must have degree -1"),
        (("a", "b", "c"), (-1, 1, 0), "not non-decreasing"),
        # below -1 after a first -1 is out of order
        (("a", "b"), (-1, -2), "not non-decreasing"),
        (("a", "b"), (-1,), "equally many letters and degrees"),
        ((), (), "equally many letters and degrees"),
        # an int where a sequence belongs
        (5, (-1,), "must be sequences"),
        (("a",), -1, "must be sequences"),
    ]
    for letters, degrees, message in cases:
        with pytest.raises(AlphabetError, match=message):
            TreeAlphabet(letters, degrees)


def test_repeated_degrees_allowed():
    # several leaf letters are fine, degrees only need to be non-decreasing
    A = TreeAlphabet(("a", "b", "c"), (-1, -1, 1))
    assert is_f_valid((1, 2, 1), A) is False
    assert is_f_valid((1, 2, 2), A)
    assert is_f_valid((2, 1, 2), A)


def test_alphabet_text_form_round_trip():
    A = parse_alphabet("a:-1,b:0,c:1")
    assert A == motzkin_alphabet()
    assert str(A) == "a:-1,b:0,c:1"
    assert parse_alphabet(" a:-1 , c:1 ") == binary_alphabet()
    with pytest.raises(AlphabetError, match="want sym:degree"):
        parse_alphabet("a-1,b:0")
    with pytest.raises(AlphabetError, match="malformed degree"):
        parse_alphabet("a:x")


def test_tuple_text_form_round_trip():
    t = parse_tuple("3,1,2")
    assert t == DegreeTuple((3, 1, 2))
    assert t.total == 6
    with pytest.raises(ArityMismatchError):
        parse_tuple("3,,2")
    with pytest.raises(ArityMismatchError):
        parse_tuple("3,-1")


def test_word_text_form(motzkin):
    w = motzkin.parse_word("cacbaba")
    assert w == (2, 0, 2, 1, 0, 1, 0)
    assert motzkin.format_word(w) == "cacbaba"
    assert motzkin.parse_word("") == ()
    with pytest.raises(ArityMismatchError):
        motzkin.parse_word("caz")


def test_is_f_valid(motzkin, binary):
    assert is_f_valid((3, 1, 2), motzkin)
    assert is_f_valid(DegreeTuple((1, 0, 0)), motzkin)  # unused letters allowed
    assert not is_f_valid((1, 1, 1), motzkin)
    assert is_f_valid((3, 2), binary)
    assert not is_f_valid((2, 2), binary)
    with pytest.raises(ArityMismatchError):
        is_f_valid((3, 1), motzkin)


def test_f_valid_counts(motzkin):
    assert f_valid_counts(DegreeTuple((3, 1, 2)), motzkin) == (3, 1, 2)
    assert f_valid_counts([1, 0, 0], motzkin) == (1, 0, 0)
    with pytest.raises(TupleNotValidError, match="weighted degree sum 0, need -1"):
        f_valid_counts((1, 1, 1), motzkin)
    with pytest.raises(ArityMismatchError, match="2 counts for an alphabet of 3"):
        f_valid_counts((3, 2), motzkin)
    with pytest.raises(ArityMismatchError, match="non-negative"):
        f_valid_counts((3, -1, 2), motzkin)


def test_degree_tuple_validation():
    with pytest.raises(ArityMismatchError):
        DegreeTuple((1, -1))
    with pytest.raises(ArityMismatchError):
        DegreeTuple(())
    with pytest.raises(ArityMismatchError, match="must be a sequence"):
        DegreeTuple(5)
    assert len(DegreeTuple((0, 2))) == 2
    assert list(DegreeTuple((0, 2))) == [0, 2]
