"""Uniform random generation of rooted planar trees with prescribed degrees.

The pipeline: a tree alphabet assigns each letter a degree (children minus
one); a counts tuple fixes how often each letter occurs; uniform valid words
of that multiset are drawn either by shuffling positions or letter by letter
from fair bits; the cycle lemma rotates each valid word to the unique
Lukasiewicz representative; and Lukasiewicz words are preorder codes of
rooted planar trees.  Exact counting formulas and brute-force enumerators
make every stage checkable, and the experiments module measures what the
sampler costs in random bits and how tree height scales.
"""

from .alphabet import (
    DegreeTuple,
    TreeAlphabet,
    binary_alphabet,
    is_f_valid,
    motzkin_alphabet,
    parse_alphabet,
    parse_tuple,
)
from .bitstream import BitSource, fisher_yates, uniform_int
from .enumeration import (
    DEFAULT_ENUMERATION_LIMIT,
    enumerate_lukasiewicz,
    enumerate_valid_words,
    tutte_count,
    valid_word_count,
)
from .errors import (
    AlphabetError,
    ArityMismatchError,
    DomainTooSmallError,
    InfeasibleParityError,
    LimitExceededError,
    LukatreeError,
    NotAPermutationError,
    NotAValidWordError,
    TupleNotValidError,
)
from .experiments import (
    HEIGHT_SCAN_COLUMNS,
    BitCostRow,
    ScanRow,
    bitcost_csv,
    height_scan_csv,
    motzkin_tuple,
    nearest_feasible_unary,
    run_bitcost_scan,
    run_height_scan,
)
from .samplers import (
    METHODS,
    DiscreteWeights,
    dichotomic_draw,
    mean_cost_closed_form,
    sample_trees,
)
from .tree import (
    SERIALIZE_FORMATS,
    PlanarTree,
    height,
    serialize,
    word_to_tree,
)
from .words import (
    Classification,
    classify,
    path_heights,
    permutation_to_valid_word,
    rotation_index,
    rotations_that_are_lukasiewicz,
    to_lukasiewicz,
)

__version__ = "0.1.0"
