"""Acceptance suite: every criterion at its stated sample size and tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or in captured
output) and asserts the criterion, including the stated runtime budgets.
"""
import time

import pytest

from treeshift import verify
from treeshift.embed import Embedding
from treeshift.verify import (
    check_continuity,
    check_equivariance_suite,
    check_ladder_orbit,
    check_lattice_collapse,
    check_metric_axioms,
    check_pseudogroup_examples,
    check_round_trip,
    check_separation,
    check_tree_shape,
)

SEED = 7

# the line `treeshift verify --suite all --seed 7` prints for each suite;
# any change to a check's output must show up here
LINES = {
    "continuity": "PASS  continuity         100 pairs, 0 failures",
    "equivariance": "PASS  equivariance       600 generator checks, 0 failures; "
                    "identity-symbol variant unusable in 175 of them",
    "ladder-orbit": "PASS  ladder-orbit       2 nodes, edges ['g0', 'g1']",
    "lattice-collapse": "PASS  lattice-collapse   50 oracles, 0 failures",
    "metric-axioms": "PASS  metric-axioms      500 triples (0 axiom failures), "
                     "100 oracle pairs (0 discrepancies)",
    "pseudogroup": "PASS  pseudogroup        example values ok, tree ok, "
                   "20 sampled points (0 failures)",
    "round-trip": "PASS  round-trip         200 oracles, 0 failures",
    "separation": "PASS  separation         100 pairs, 0 failures",
    "tree-shape": "PASS  tree-shape         200 trees, 0 failures",
}

# the same for `--seed 0`; its equivariance count hangs on every symbol that
# random_config hashes from a word's text, so any change to Word.__str__ shows
SEED_0_LINES = {
    **LINES,
    "equivariance": "PASS  equivariance       600 generator checks, 0 failures; "
                    "identity-symbol variant unusable in 174 of them",
}


def report(number: int, result, elapsed: float) -> None:
    flag = "PASS" if result.ok else "FAIL"
    print(f"{flag}  criterion {number}: {result.name} ({result.details}) [{elapsed:.2f}s]")


def run_criterion(number, check, budget=None):
    started = time.monotonic()
    result = check(SEED)
    elapsed = time.monotonic() - started
    report(number, result, elapsed)
    assert result.ok, result.details
    assert result.line() == LINES[result.name]
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_ladder_orbit():
    # exactly two nodes joined by one g0 and one g1 edge, in under a second
    run_criterion(1, check_ladder_orbit, budget=1.0)


def test_criterion_2_round_trip():
    # 200 seeded oracles across (M, m) in {1,2} x {2,3}, depths <= 5, in under 30 s
    run_criterion(2, check_round_trip, budget=30.0)


def test_criterion_3_equivariance():
    # both shift directions on the same sample, zero failures
    run_criterion(3, check_equivariance_suite)


def test_criterion_4_length_and_degree():
    # embedded words keep their length; interior degrees are exactly 2M
    run_criterion(4, check_tree_shape)


def test_tree_shape_flags_a_vertex_of_another_length(monkeypatch):
    # send the empty word of every embedding to a vertex of length 1
    embed_config = verify.embed_config

    def misplaced(sigma, enc, depth):
        result = embed_config(sigma, enc, depth)
        (root, _), *rest = result.vertex_keys
        return Embedding(result.tree, ((root, result.tree.sorted_keys[1]), *rest),
                         result.source_rank)

    monkeypatch.setattr(verify, "embed_config", misplaced)
    assert check_tree_shape(SEED).details == "200 trees, 200 failures"


def test_criterion_5_metric_axioms():
    # 500 triples for symmetry/ultrametric, 100 pairs fast path vs oracle
    run_criterion(5, check_metric_axioms)


def test_criterion_6_separation():
    # 100 pairs with known exact agreement radius, rebased distance exactly 1
    run_criterion(6, check_separation)


def test_criterion_7_pseudogroup():
    # worked one-sided shift example plus propagation over sampled points
    run_criterion(7, check_pseudogroup_examples)


def test_criterion_8_lattice_collapse():
    # the generator commutator acts trivially on pulled-back configurations
    run_criterion(8, check_lattice_collapse)


def test_criterion_9_continuity():
    # agreement radius k gives ball-equality at k and divergence by k + 2
    run_criterion(9, check_continuity)


@pytest.mark.parametrize("name", sorted(SEED_0_LINES))
def test_seed_0_lines(name):
    assert verify.SUITES[name](0).line() == SEED_0_LINES[name]
