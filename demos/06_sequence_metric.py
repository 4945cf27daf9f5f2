"""The two-sided sequence metric and the expansivity witness.

Configurations over the integers carry the metric
``sum_i 2^(-|i|) |sigma(i) - sigma'(i)|`` (symbols compared through their
alphabet indices).  Finite evaluation gives a partial sum plus a rigorous
tail bound, reported as an interval containing the true value.  Any two
distinct configurations can be translated so that they differ at position
zero, which pushes the metric to at least 1: the witness finder returns
that translation.
"""
from fractions import Fraction

from treeshift import (
    agree_depth,
    alphabet,
    config_metric_interval,
    expansivity_witness,
    integer_lattice,
    periodic_config,
    random_config,
)
from treeshift.groups import lattice_unit_element

bits = alphabet([0, 1])
z = integer_lattice(d=1)
parity = periodic_config(z, bits, [0, 1])
shifted = parity.shifted(lattice_unit_element(z, 1))

interval = config_metric_interval(parity, shifted, tail_cutoff=10)
print("distance between parity and its translate:")
print(f"  interval [{interval.lower} , {interval.upper}]  (width {interval.width})")
print(f"  the true value is 3 = sum of 2^-|i| over all i: contained? {interval.contains(Fraction(3))}")
print()

s1 = random_config(z, bits, seed=1)
s2 = random_config(z, bits, seed=2)
print(f"two random configurations agree to radius: {agree_depth(s1, s2, cap=8)}")
n = expansivity_witness(s1, s2, cap=10)
print(f"translating both by n = {n} separates them:")
g = lattice_unit_element(z, n)
moved = config_metric_interval(s1.shifted(g), s2.shifted(g), tail_cutoff=0)
print(f"  lower bound after translation: {moved.lower} >= 1")
