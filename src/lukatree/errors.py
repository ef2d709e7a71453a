"""Exception hierarchy shared by all modules.

Every domain error derives from :class:`LukatreeError`, itself a ValueError,
so callers that do not care about the fine distinction can catch one thing.
The CLI maps LukatreeError to exit code 1 and leaves flag misuse to argparse
(exit code 2).
"""

__all__ = [
    "LukatreeError", "AlphabetError", "ArityMismatchError", "NotAValidWordError",
    "NotAPermutationError", "TupleNotValidError", "DomainTooSmallError",
    "LimitExceededError", "InfeasibleParityError",
]


class LukatreeError(ValueError):
    """Base class for all domain errors raised by this package."""


# -- alphabets and what must fit them --------------------------------------

class AlphabetError(LukatreeError):
    """The alphabet itself is malformed.

    Raised for a bad or duplicate letter symbol, a first degree other than
    -1, degrees out of order, unequal or empty letter and degree lists,
    malformed "sym:degree" text, and a symbol the alphabet does not have.
    """


class ArityMismatchError(LukatreeError):
    """A word or counts tuple does not fit its alphabet.

    A letter index outside the alphabet, a character that is no letter of
    it, a counts tuple of the wrong length, or counts that are negative,
    empty or not integers.
    """


# -- words and permutations --------------------------------------------------

class NotAValidWordError(LukatreeError):
    """The word's degrees do not sum to -1, so it encodes nothing."""


class NotAPermutationError(LukatreeError):
    """The sequence is not a permutation of 1..n."""


class TupleNotValidError(LukatreeError):
    """The counts tuple is not f-valid (weighted degree sum is not -1)."""


# -- sampling ----------------------------------------------------------------

class DomainTooSmallError(LukatreeError):
    """The requested quantity is undefined below its minimum domain."""


# -- size caps ---------------------------------------------------------------

class LimitExceededError(LukatreeError):
    """A size is beyond a cap: exhaustive enumeration beyond its configured
    limit, or a sampled word longer than a list can hold."""


# -- experiments -------------------------------------------------------------

class InfeasibleParityError(LukatreeError):
    """No Motzkin tree exists with the requested size and unary count."""
