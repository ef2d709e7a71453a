"""From letters to trees: path heights, the cycle lemma, and decoding.

Walks one 7-letter example through the whole chain: a word over the
unary-binary alphabet draws a lattice path; a valid word (path ending at -1)
has exactly one cyclic rotation whose path stays non-negative until the end;
that rotation is a Lukasiewicz word, i.e. the preorder code of a tree.
"""

from lukatree import (
    PlanarTree,
    classify,
    motzkin_alphabet,
    path_heights,
    rotation_index,
    rotations_that_are_lukasiewicz,
    serialize,
    to_lukasiewicz,
)

alphabet = motzkin_alphabet()
print("alphabet: a:-1 (leaf), b:0 (unary), c:1 (binary)")

word = alphabet.parse_word("babacac")
print(f"\nthe word babacac has path heights {path_heights(word, alphabet)}")
print(f"classification: {classify(word, alphabet).value}")
print("(the path ends at -1 but dips below zero early, so it is valid")
print(" without being Lukasiewicz)")

ell = rotation_index(word, alphabet)
rotated = to_lukasiewicz(word, alphabet)
print(f"\nthe path first reaches its minimum at position {ell};")
print(f"rotating just past it gives {alphabet.format_word(rotated)}")
print(f"new path heights: {path_heights(rotated, alphabet)}")
print(f"classification:   {classify(rotated, alphabet).value}")

hits = rotations_that_are_lukasiewicz(word, alphabet)
print(f"\nbrute force over all 7 rotations confirms: exactly {hits} is Lukasiewicz")

tree = PlanarTree(alphabet, rotated)
print(f"\ndecoded tree (children in preorder): {serialize(tree, 'paren')}")
print("\nas Graphviz input:")
print(serialize(tree, "dot"))
