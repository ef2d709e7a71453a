"""The two uniform sampling pipelines and what they cost in fair bits.

Both routes draw a uniform valid word of the requested letter counts and
rotate it to its Lukasiewicz representative; they differ only upstream:

  permutation -- shuffle positions 1..n (Theta(n log n) random bits), fill
                 the word letter block by letter block;
  dichotomic  -- draw each letter from the shrinking multiset with a
                 near-entropy-optimal dyadic search (O(n) bits).

Tallying many draws over the exactly known support shows both spreading
evenly: each method's smallest and largest tally over the 10 trees sit next
to the expected draws / 10.  The bit counters show the asymptotic gap
already at n = 600.
"""

from lukatree import (
    BitSource,
    DegreeTuple,
    enumerate_lukasiewicz,
    motzkin_alphabet,
    motzkin_tuple,
    sample_trees,
    serialize,
)

alphabet = motzkin_alphabet()
t = DegreeTuple((3, 1, 2))

print("five uniform trees with 3 leaves, 1 unary, 2 binary (seed 7):")
source = BitSource(7)
trees = sample_trees(source, t, alphabet)  # checks t once, then draws on demand
for _ in range(5):
    before = source.bits_consumed
    tree = next(trees)
    print(f"  {serialize(tree, 'paren'):24s} cost {source.bits_consumed - before} bits")

support = [tuple(w) for w in enumerate_lukasiewicz(t, alphabet)]
print(f"\nuniformity check: tuple (3,1,2) has exactly {len(support)} trees;")
draws = 20_000
for method in ("dichotomic", "permutation"):
    source = BitSource(1)
    trees = sample_trees(source, t, alphabet, method)
    tally = {}
    for _ in range(draws):
        word = next(trees).letters
        tally[word] = tally.get(word, 0) + 1
    counts = [tally.get(w, 0) for w in support]
    mean_bits = source.bits_consumed / draws
    print(
        f"  {method:12s} {draws} draws: tallies {min(counts)}..{max(counts)} "
        f"(expected {draws / len(support):g} each), {mean_bits:.1f} bits/tree"
    )

print("\nscaling up (one tree each, u = n/2 unary nodes):")
print("      n   dichotomic bits   permutation bits")
for n in (601, 6001, 60_001):
    t_big = motzkin_tuple(n, n // 2)
    row = []
    for method in ("dichotomic", "permutation"):
        source = BitSource(3)
        next(sample_trees(source, t_big, alphabet, method))
        row.append(source.bits_consumed)
    print(f"  {n:7d}   {row[0]:15d}   {row[1]:16d}")
print("the first column grows linearly in n, the second like n log n")
