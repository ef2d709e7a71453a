"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single line

    [criterion N] PASS name: detail

(or FAIL) before asserting, so `pytest -s tests/test_acceptance.py` reads as
a checklist.  These deliberately re-derive expectations through independent
routes (factorials by hand, exhaustive enumeration, closed forms) instead of
trusting the library's own formulas.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import exact_distribution
from lukatree import (
    BitSource,
    Classification,
    DegreeTuple,
    binary_alphabet,
    classify,
    enumerate_lukasiewicz,
    enumerate_valid_words,
    mean_cost_closed_form,
    motzkin_alphabet,
    motzkin_tuple,
    path_heights,
    rotation_index,
    rotations_that_are_lukasiewicz,
    run_bitcost_scan,
    run_height_scan,
    sample_trees,
    to_lukasiewicz,
    tutte_count,
    valid_word_count,
    word_to_tree,
)

MOTZKIN = motzkin_alphabet()
BINARY = binary_alphabet()


def report(number, name, passed, detail=""):
    line = f"[criterion {number}] {'PASS' if passed else 'FAIL'} {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert passed, line


def motzkin_tuples(n):
    for u in range(n):
        if (n - u) % 2 == 1:
            yield motzkin_tuple(n, u)


def test_criterion_1_cycle_lemma_exhaustive():
    words_checked = 0
    ok = True
    for n in range(1, 11):
        for t in motzkin_tuples(n):
            rotated = Counter()
            for word in enumerate_valid_words(t, MOTZKIN):
                if rotations_that_are_lukasiewicz(word, MOTZKIN) != 1:
                    ok = False
                rotated[to_lukasiewicz(word, MOTZKIN)] += 1
                words_checked += 1
            expected = {w: n for w in enumerate_lukasiewicz(t, MOTZKIN)}
            if dict(rotated) != expected:
                ok = False
    report(
        1,
        "each valid word has exactly one Lukasiewicz rotation",
        ok,
        f"{words_checked} valid words over all Motzkin tuples with n <= 10",
    )


def test_criterion_2_counting_formulas():
    def by_hand(counts):
        n = sum(counts)
        denom = 1
        for c in counts:
            denom *= math.factorial(c)
        assert math.factorial(n) % (n * denom) == 0
        return math.factorial(n - 1) // denom, math.factorial(n) // denom

    tuples = [t for n in range(1, 11) for t in motzkin_tuples(n)]
    tuples += [DegreeTuple((b + 1, b)) for b in range(5)]
    alphabets = [MOTZKIN] * (len(tuples) - 5) + [BINARY] * 5
    ok = True
    for t, alphabet in zip(tuples, alphabets):
        trees, words = by_hand(t.counts)
        n = t.total
        if tutte_count(t, alphabet) != trees:
            ok = False
        if valid_word_count(t, alphabet) != words:
            ok = False
        if n * tutte_count(t, alphabet) != valid_word_count(t, alphabet):
            ok = False
        if len(enumerate_lukasiewicz(t, alphabet)) != trees:
            ok = False
    report(
        2,
        "tree counts equal (n-1)!/prod n_i! and n * trees = valid words",
        ok,
        f"{len(tuples)} tuples, enumeration and factorials agree",
    )


def test_criterion_3_classical_sequences():
    motzkin_numbers = (1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798)
    catalan_numbers = (1, 1, 2, 5, 14, 42, 132)
    ok = True
    for n, expected in enumerate(motzkin_numbers, start=1):
        by_formula = sum(tutte_count(t, MOTZKIN) for t in motzkin_tuples(n))
        by_exhaustion = sum(
            len(enumerate_lukasiewicz(t, MOTZKIN)) for t in motzkin_tuples(n)
        )
        if by_formula != expected or by_exhaustion != expected:
            ok = False
    for b, expected in enumerate(catalan_numbers):
        t = DegreeTuple((b + 1, b))
        if tutte_count(t, BINARY) != expected:
            ok = False
        if len(enumerate_lukasiewicz(t, BINARY, limit=13)) != expected:
            ok = False
    report(
        3,
        "Motzkin numbers for n <= 12 and Catalan numbers for b <= 6",
        ok,
        "formula and exhaustive enumeration both reproduce the sequences",
    )


def test_criterion_4_both_pipelines_uniform():
    # exact laws from every bit string to a depth: the dichotomic masses lie
    # within the unresolved residual of 1/10; the permutation masses are
    # equal at every depth, because uniform_int's rejections ignore the value
    t = DegreeTuple((3, 1, 2))
    support = {tuple(w) for w in enumerate_lukasiewicz(t, MOTZKIN)}
    laws = {
        method: exact_distribution(
            lambda src: next(sample_trees(src, t, MOTZKIN, method)).letters,
            max_depth=depth,
        )
        for method, depth in (("dichotomic", 30), ("permutation", 14))
    }
    dicho, dicho_residual = laws["dichotomic"]
    perm, perm_residual = laws["permutation"]
    ok = (
        len(support) == tutte_count(t, MOTZKIN) == 10
        and set(dicho) == set(perm) == support
        and dicho_residual < Fraction(1, 10**5)
        and all(abs(p - Fraction(1, 10)) <= dicho_residual for p in dicho.values())
        and len(set(perm.values())) == 1
    )
    report(
        4,
        "dichotomic and permutation pipelines are uniform and agree",
        ok,
        f"exact laws on (3,1,2): dichotomic all 10 trees within a residual of "
        f"{float(dicho_residual):.1e} of 1/10 (depth 30); permutation 10 equal "
        f"masses, residual {float(perm_residual):.2f} (depth 14)",
    )


def test_criterion_5_worked_example_bit_exact():
    word = MOTZKIN.parse_word("babacac")
    ok = path_heights(word, MOTZKIN) == [0, -1, -1, -2, -1, -2, -1]
    ok = ok and classify(word, MOTZKIN) is Classification.VALID_NOT_LUKASIEWICZ
    ok = ok and rotation_index(word, MOTZKIN) == 4
    rotated = to_lukasiewicz(word, MOTZKIN)
    ok = ok and MOTZKIN.format_word(rotated) == "cacbaba"
    letters = word_to_tree(rotated, MOTZKIN).letters
    ok = ok and tuple(letters.count(i) for i in range(MOTZKIN.k)) == (3, 2, 2)
    ok = ok and path_heights(MOTZKIN.parse_word("babacca"), MOTZKIN) == [0, -1, -1, -2, -1, 0, -1]
    ok = ok and path_heights(MOTZKIN.parse_word("ccbabaa"), MOTZKIN) == [1, 2, 2, 1, 1, 0, -1]
    ok = ok and classify(MOTZKIN.parse_word("ccbabaa"), MOTZKIN) is Classification.LUKASIEWICZ
    report(
        5,
        "worked example babacac rotates at 4 to cacbaba with census (3,2,2)",
        ok,
        "path heights, classification and rotation all bit-exact",
    )


def test_criterion_6_dichotomic_bit_cost():
    replicates = 100
    rows = run_bitcost_scan(1024, replicates, seed=0)
    measured_ok = all(
        row.mean_bits <= row.bound + 3 * row.stderr
        and row.mean_bits_offset <= row.bound + 3 * row.stderr_offset
        for row in rows
    )
    worst = max(max(r.ratio, r.ratio_offset) for r in rows)

    # closed form vs ceiling for every k <= 2^20: exact equality at powers of
    # two, and elsewhere the slack is >= 2^-j * 0.27 > 5e-7, so a strict float
    # comparison with a 1e-9 margin is conclusive
    closed_ok = True
    for k in range(2, 2**20 + 1):
        ctilde = mean_cost_closed_form(k)
        if k & (k - 1) == 0:
            if ctilde != Fraction(2 + k.bit_length() - 1):
                closed_ok = False
        elif not float(ctilde) < 2 + math.log2(k) - 1e-9:
            closed_ok = False
    report(
        6,
        "mean dichotomic cost stays below 2 + log2 k",
        measured_ok and closed_ok,
        f"measured for k <= 1024 over {2 * 1023 * replicates} draws "
        f"(worst ratio {worst:.3f}), closed form certified for k <= 2^20",
    )


def test_criterion_7_linear_vs_nlogn_bits():
    n = 100_000
    u = 49_999  # nearest feasible to n/2 (n - u must be odd)
    t = motzkin_tuple(n, u)
    k = 3

    source = BitSource(0)
    next(sample_trees(source, t, MOTZKIN, method="dichotomic"))
    dicho_bits = source.bits_consumed

    source = BitSource(1)
    next(sample_trees(source, t, MOTZKIN, method="permutation"))
    perm_bits = source.bits_consumed

    budget = n * (2 + math.log2(k))
    ok = dicho_bits <= budget and perm_bits >= 2 * dicho_bits
    report(
        7,
        "letter-by-letter sampling is linear in bits, shuffling is not",
        ok,
        f"n = {n}, u = {u}: {dicho_bits} bits <= {budget:.0f} budget, "
        f"shuffle used {perm_bits} ({perm_bits / dicho_bits:.1f}x)",
    )


@pytest.fixture(scope="module")
def height_scans():
    replicates = 10_000
    base = run_height_scan(
        n=1000,
        unary_fractions=tuple(i / 10 for i in range(10)),
        replicates=replicates,
        seed=0,
    )
    big_zero = run_height_scan(n=4000, unary_fractions=(0.0,), replicates=replicates, seed=0)
    halves = run_height_scan(
        n=4000,
        unary_fractions=(1999 / 4000, 1 / 4000),
        replicates=replicates,
        seed=0,
    )
    return base, big_zero, halves


@pytest.mark.numpy
def test_criterion_8a_height_grows_with_unary_fraction(height_scans):
    base, _, _ = height_scans
    values = [row.mean_height_over_sqrt_n for row in base]
    ok = all(a < b for a, b in zip(values, values[1:]))
    report(
        "8a",
        "mean height / sqrt(n) increases strictly with the unary fraction",
        ok,
        f"n = 1000, 10^4 trees per fraction: {values[0]:.3f} .. {values[-1]:.3f}",
    )


@pytest.mark.numpy
def test_criterion_8b_normalized_height_is_stable(height_scans):
    base, big_zero, _ = height_scans
    ratio = big_zero[0].mean_norm / base[0].mean_norm
    ok = 0.9 <= ratio <= 1.1
    report(
        "8b",
        "sqrt(c)/n * height has an n-independent mean",
        ok,
        f"n = 4000 vs n = 1000 at the smallest unary fraction: ratio {ratio:.3f}",
    )


@pytest.mark.numpy
def test_criterion_8c_halving_binary_nodes_scales_height(height_scans):
    _, _, halves = height_scans
    few_binary, many_binary = halves[0], halves[1]
    ratio = few_binary.mean_height_over_sqrt_n / many_binary.mean_height_over_sqrt_n
    ok = 1.35 <= ratio <= 1.65
    report(
        "8c",
        "height scales like 1/sqrt(c) in the binary-node count",
        ok,
        f"n = 4000, c = {few_binary.c} vs c = {many_binary.c}: "
        f"ratio {ratio:.3f}, sqrt prediction {math.sqrt(many_binary.c / few_binary.c):.3f}",
    )


def test_criterion_9_word_tree_bijection():
    words_checked = 0
    ok = True
    families = [(MOTZKIN, t) for n in range(1, 11) for t in motzkin_tuples(n)]
    families += [(BINARY, DegreeTuple((b + 1, b))) for b in range(5)]
    for alphabet, t in families:
        words = enumerate_lukasiewicz(t, alphabet)
        if len(set(words)) != tutte_count(t, alphabet):
            ok = False
        for word in words:
            if tuple(word_to_tree(word, alphabet).letters) != tuple(word):
                ok = False
            words_checked += 1
    report(
        9,
        "decode then re-encode is the identity on Lukasiewicz words",
        ok,
        f"{words_checked} words across Motzkin n <= 10 and binary b <= 4",
    )
