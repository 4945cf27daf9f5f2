"""Embedding, decoding, and the two equivariance clauses.

A random configuration over the free group on two generators is embedded
at depth 4, decoded back from the bare tree, and compared; then each
single-generator shift of the configuration is checked against rebasing
the tree at the matching edge.

The inverse-generator clause is the subtle one: the rebasing word reads
the symbol at the generator itself, not at the identity.  The report keeps
the identity-symbol variant alongside so the difference stays visible.
"""
from treeshift import (
    alphabet,
    check_equivariance,
    decode_tree,
    embed_config,
    enumerate_ball,
    free_group,
    random_config,
    random_encoding,
)

trits = alphabet([0, 1, 2])
f2 = free_group(2)
sigma = random_config(f2, trits, seed=42)
encoding = random_encoding(2, trits, 6, seed=42)

depth = 4
result = embed_config(sigma, encoding, depth)
print(f"embedded {len(result.tree.vertices)} vertices at depth {depth}")

decoded = decode_tree(result.tree, encoding, depth)
mismatches = sum(
    1 for w in enumerate_ball(2, depth - 1)
    if decoded.eval_word(w) != sigma.eval_word(w))
print(f"decode(embed(sigma)) disagreements on the radius-{depth - 1} ball: {mismatches}")
print()

for report in check_equivariance(sigma, encoding, (1, -1, 2, -2), depth):
    line = f"generator {report.generator:+d}: clause={report.clause:<8} witness={report.witness}  " \
           f"ball-equal={report.ball_equal}"
    if report.clause == "negative":
        line += (f"  [identity-symbol variant {report.alternate_witness}: "
                 f"defined={report.alternate_defined}, equal={report.alternate_equal}]")
    print(line)
