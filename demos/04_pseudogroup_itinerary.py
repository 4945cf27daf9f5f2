"""Itineraries of the one-sided full shift and their pruned trees.

The one-sided shift on two symbols is generated by two partial maps, one
per leading symbol, each dropping that symbol; their inverses prepend.
Following a point through every reduced word over these generators gives an
itinerary; words whose composition is undefined at the point get the empty
marker, and the embedding simply skips those branches, so vertex degrees
can drop below the regular value.
"""
from treeshift import (
    S_EMPTY,
    SymbolStream,
    alphabet,
    builtin_n0_shift,
    compose_word,
    edge_encoding,
    embed_pseudo,
    enumerate_ball,
    itinerary,
)
from treeshift.freegroup import Word
from treeshift.trees import tree_to_dot

bits = alphabet([0, 1])
shift = builtin_n0_shift(bits)
omega = SymbolStream.eventually_periodic((), (0, 1))
print(f"point: {omega!r}")

itin = itinerary(shift, omega, depth=2)
names = [pm.name for pm in shift.positive]


def show(w):
    if w.is_identity:
        return "e"
    return " ".join(names[abs(x) - 1] + ("" if x > 0 else "'") for x in w.letters)


print("itinerary to depth 2:")
for w in enumerate_ball(2, 2):
    value = itin.eval_word(w)
    print(f"  {show(w):<12} -> {'undefined' if value is S_EMPTY else value}")
print()

composed = compose_word(shift, Word(2, (1, 2)))
print(f"composite along 1_0 then 1_1 is defined on: "
      f"{[ ' '.join(map(str, c.prefix)) for c in composed.domain.parts ]}")
print()

encoding = edge_encoding(2, bits, 4, {(1, 0): 1, (1, 1): 2, (2, 0): 3, (2, 1): 4})
tree = embed_pseudo(itin, encoding, 1).tree
print(f"depth-1 tree: vertices {sorted(str(v) for v in tree.vertices)}")
print(f"basepoint degree {tree.degrees(0)[0]} "
      f"(below the regular degree 4: the 1_1 branch is missing)")
print()
print(tree_to_dot(embed_pseudo(itinerary(shift, omega, 3), encoding, 3).tree))
