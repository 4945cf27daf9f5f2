"""The parity configuration on the integers and its two-point orbit.

The parity sequence ... 0 1 0 1 ... has exactly two translates.  Encoding
symbol 0 as a g0-edge and symbol 1 as a g1-edge turns each translate into a
two-sided path in the rank-2 Cayley tree whose edge labels alternate, and
rebasing the path one step along itself swaps the two translates.  The
bounded orbit graph therefore has two nodes joined by a g0-edge and a
g1-edge.
"""
from treeshift import (
    alphabet,
    edge_encoding,
    embed_config,
    integer_lattice,
    orbit_graph,
    periodic_config,
    tree_to_dot,
)
from treeshift.trees import orbit_to_dot

bits = alphabet([0, 1])
z = integer_lattice(d=1)
parity = periodic_config(z, bits, [0, 1])

# one generator, two symbols: the target free group needs rank >= 2
encoding = edge_encoding(1, bits, 2, {(1, 0): 1, (1, 1): 2})

result = embed_config(parity, encoding, depth=6)
print("image tree, depth 6:")
print(f"  {len(result.tree.vertices)} vertices (a two-sided alternating path)")
print()

shallow = embed_config(parity, encoding, depth=2)
print("the depth-2 truncation as DOT:")
print(tree_to_dot(shallow.tree))

og = orbit_graph(result.tree, step_bound=4, working_radius=2)
print(f"orbit graph: {len(og.nodes)} nodes, edges labeled {sorted(og.edge_labels)}")
print()
print(orbit_to_dot(og))
