"""Value semantics of the package's value types.

Each case gives two equal values built different ways and values that differ
from them.  Equal values hash alike, and a value compared with an instance of
another class is never equal to it (``__eq__`` returns NotImplemented).
Every ``errors.Value`` of the package has a case, and so does ``Word``, which
keeps its own pair.
"""
import importlib
import pkgutil

import pytest

import treeshift
from treeshift.errors import Alphabet, Value, alphabet
from treeshift.freegroup import Word, parse_word
from treeshift.groups import custom_group, free_group, integer_lattice
from treeshift.pseudogroup import Cylinder, CylinderUnion
from treeshift.shift import AgreementDepth
from treeshift.trees import BoxDistance, PointedTree, make_tree

Z = integer_lattice(d=1)

# name -> (value, an equal value built another way, values that differ)
CASES = {
    "Word": (Word(2, (1, -2)), parse_word("g0 g1'", 2),
             [Word(3, (1, -2)), Word(2, (1, 2)), Word(2, ())]),
    # equality reads the group and the payload, never the representative word
    "GroupElement": (Z.normalize(parse_word("g0 g0 g0'", 1)), Z.normalize(parse_word("g0", 1)),
                     [Z.normalize(parse_word("g0 g0", 1)),
                      integer_lattice(images=[[1], [0]]).normalize(parse_word("g0", 2)),
                      free_group(1).normalize(parse_word("g0", 1))]),
    # equality reads the key, never the normalizer's identity
    "GroupModel": (free_group(2), free_group(2),
                   [free_group(3), integer_lattice(d=2), custom_group(2, len)]),
    "Alphabet": (alphabet([0, 1]), Alphabet((0, 1)), [alphabet([1, 0]), alphabet(["0", "1"])]),
    "Cylinder": (Cylinder((0, 1)), Cylinder((0,)).meet(Cylinder((0, 1))),
                 [Cylinder((0,)), Cylinder(())]),
    "CylinderUnion": (CylinderUnion.of([Cylinder((0, 1)), Cylinder((0,))]),
                      CylinderUnion((Cylinder((0,)),)),
                      [CylinderUnion((Cylinder(()),)), CylinderUnion(())]),
    "PointedTree": (make_tree(2, 1, ["e", "g0"]), PointedTree(2, 1, frozenset({0, 1})),
                    [PointedTree(2, 2, frozenset({0, 1})), PointedTree(3, 1, frozenset({0, 1}))]),
    "BoxDistance": (BoxDistance(2, exact=True), BoxDistance(2, True),
                    [BoxDistance(2, exact=False), BoxDistance(3, exact=True)]),
    "AgreementDepth": (AgreementDepth(2, exact=True), AgreementDepth(2, True),
                       [AgreementDepth(2, exact=False), AgreementDepth(-1, exact=True)]),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_values_compare_and_hash_alike(name):
    a, b, others = CASES[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    for c in others:
        assert a != c and not a == c
    assert len({a, b, *others}) == 1 + len(others)


@pytest.mark.parametrize("name", CASES)
def test_another_class_is_not_implemented(name):
    a, _, _ = CASES[name]
    assert a.__eq__(object()) is NotImplemented
    assert a != (a,) and a != str(a)


def test_every_value_type_has_a_case():
    modules = [importlib.import_module(f"treeshift.{m.name}")
               for m in pkgutil.iter_modules(treeshift.__path__)]
    values = {c.__name__ for m in modules for c in vars(m).values()
              if isinstance(c, type) and issubclass(c, Value) and c is not Value}
    assert values | {"Word"} == set(CASES)


def test_same_fields_of_another_class_differ():
    assert BoxDistance(2, exact=True) != AgreementDepth(2, exact=True)
    assert Cylinder((0,)) != CylinderUnion((0,))
