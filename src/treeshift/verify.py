"""Seeded verification suites behind the ``verify`` command.

Each check returns a :class:`CheckResult` and is deterministic in its seed,
so a run with the same seed produces byte-identical reports.  The sample
sizes are fixed: they are the package's acceptance contract, not tunables.

The module also holds what only the suites run: the seeded tree samplers
:func:`random_tree` and :func:`regrown_tree`, and the isomorphism oracle
:func:`balls_isomorphic` with :func:`box_distance_brute`, which the
metric-axioms suite checks :func:`treeshift.trees.box_distance` against.
"""
from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right

from .embed import (
    check_equivariance,
    decode_tree,
    edge_encoding,
    embed_config,
    random_encoding,
    separate_witness,
)
from .errors import InsufficientDepthError, RankMismatchError, ValidationError, alphabet
from .freegroup import (S_EMPTY, Word, enumerate_ball, identity, inverse_digit, key_base,
                        signed_letters)
from .groups import free_group, induced_config, integer_lattice
from .shift import agree_depth, flipped_config, periodic_config, random_config
from .trees import (BoxDistance, PointedTree, _tree, act, ball, box_distance, orbit_graph,
                    tree_to_json)

BITS = alphabet([0, 1])


class CheckResult:
    def __init__(self, name: str, ok: bool, details: str) -> None:
        self.name = name
        self.ok = ok
        self.details = details

    def line(self) -> str:
        flag = "PASS" if self.ok else "FAIL"
        return f"{flag}  {self.name:<18} {self.details}"


def _case_seed(seed: int, *parts: int) -> int:
    value = seed & 0xFFFFFFFF
    for p in parts:
        value = (value * 1_000_003 + p + 1) & 0xFFFFFFFF
    return value


def _embedding_sample(seed: int):
    """The shared sample: 50 cases per (M, m) in {1,2} x {2,3}, depth <= 5."""
    cases = []
    for M in (1, 2):
        for m in (2, 3):
            alph = alphabet(list(range(m)))
            for i in range(50):
                cs = _case_seed(seed, M, m, i)
                n = M * m + cs % 3
                enc = random_encoding(M, alph, n, seed=cs)
                sigma = random_config(free_group(M), alph, seed=cs + 101)
                depth = 1 + cs % 5
                cases.append((M, m, sigma, enc, depth))
    return cases


def _grow(keys: set[int], frontier: list[int], levels: int, base: int,
          rng: random.Random, fill: float) -> frozenset[int]:
    """Grow ``levels`` levels below an ascending frontier, keeping each child
    with probability ``fill`` (one draw per child, in canonical order)."""
    for _ in range(levels):
        nxt = []
        for k in frontier:
            head, back = k * base, inverse_digit(k % base)
            for d in range(1, base):
                if d != back and rng.random() < fill:
                    keys.add(head + d)
                    nxt.append(head + d)
        frontier = nxt
    return frozenset(keys)


def random_tree(rank: int, radius: int, seed: int, fill: float = 0.6) -> PointedTree:
    """Seeded random prefix-closed tree grown level by level from the root,
    whose constructor refuses a rank below 1 and a negative radius."""
    return regrown_tree(PointedTree(rank, radius, frozenset({0})), 0, seed, fill)


def regrown_tree(t: PointedTree, keep_below: int, seed: int, fill: float = 0.6) -> PointedTree:
    """Copy of t rebuilt with fresh randomness from level ``keep_below`` on.

    Useful for producing pairs that agree on a deep ball: the result shares
    every level < keep_below with t.
    """
    start = max(keep_below - 1, 0)
    base = key_base(t.rank)
    kept = t.sorted_keys[:bisect_left(t.sorted_keys, base ** start)]
    frontier = kept[bisect_left(kept, base ** start // base):]
    return _tree(t.rank, t.radius, _grow(set(kept), frontier, t.radius - start, base,
                                         random.Random(seed), fill))


def balls_isomorphic(t1: PointedTree, t2: PointedTree, r: int) -> bool:
    """Backtracking search for a basepoint-preserving isomorphism of balls.

    Matches edges by signed label (generator plus direction away from the
    basepoint, which is the last digit of a child's key) without assuming
    labels are unique among siblings, so it stays an independent check on
    the key-set-equality fast path.
    """
    if t1.rank != t2.rank:
        raise RankMismatchError(f"ranks {t1.rank} and {t2.rank} differ")
    if r > t1.radius or r > t2.radius:
        raise InsufficientDepthError(f"radius {r} ball not stored on both trees")
    b1, b2 = ball(t1, r), ball(t2, r)
    base = key_base(t1.rank)

    def match(u1: int, u2: int) -> bool:
        kids1 = b1.child_keys(u1)
        kids2 = b2.child_keys(u2)
        if len(kids1) != len(kids2):
            return False
        by_label1: dict[int, list[int]] = {}
        by_label2: dict[int, list[int]] = {}
        for c in kids1:
            by_label1.setdefault(c % base, []).append(c)
        for c in kids2:
            by_label2.setdefault(c % base, []).append(c)
        if set(by_label1) != set(by_label2):
            return False
        for label, group1 in by_label1.items():
            group2 = by_label2[label]
            if len(group1) != len(group2):
                return False
            matched = False
            for perm in itertools.permutations(group2):
                if all(match(a, b) for a, b in zip(group1, perm)):
                    matched = True
                    break
            if not matched:
                return False
        return True

    return match(0, 0)


def box_distance_brute(t1: PointedTree, t2: PointedTree) -> BoxDistance:
    """Box metric through the isomorphism search instead of set equality."""
    rmin = min(t1.radius, t2.radius)
    for rr in range(rmin + 1):
        if not balls_isomorphic(t1, t2, rr):
            return BoxDistance(rr - 1, exact=True)
    return BoxDistance(rmin, exact=False)


def check_ladder_orbit(seed: int = 0) -> CheckResult:
    """Parity over the integers: two nodes joined by a g0 and a g1 edge."""
    z = integer_lattice(d=1)
    parity = periodic_config(z, BITS, [0, 1])
    enc = edge_encoding(1, BITS, 2, {(1, 0): 1, (1, 1): 2})
    tree = embed_config(parity, enc, 6).tree
    og = orbit_graph(tree, step_bound=4, working_radius=2)
    ok = len(og.nodes) == 2 and len(og.edges) == 2 and sorted(og.edge_labels) == ["g0", "g1"]
    return CheckResult(
        "ladder-orbit", ok,
        f"{len(og.nodes)} nodes, edges {sorted(og.edge_labels)}")


def check_round_trip(seed: int = 0) -> CheckResult:
    """decode(embed(sigma, j)) must reproduce sigma on the radius j-1 ball."""
    failures = 0
    total = 0
    for M, m, sigma, enc, depth in _embedding_sample(seed):
        total += 1
        decoded = decode_tree(embed_config(sigma, enc, depth), enc, depth)
        for w in enumerate_ball(M, depth - 1):
            if decoded.eval_word(w) != sigma.eval_word(w):
                failures += 1
                break
    return CheckResult("round-trip", failures == 0, f"{total} oracles, {failures} failures")


def check_equivariance_suite(seed: int = 0) -> CheckResult:
    """Both shift directions must match the rebased embedding at radius j-1."""
    failures = 0
    checks = 0
    alternate_disagrees = 0
    for M, m, sigma, enc, depth in _embedding_sample(seed):
        for report in check_equivariance(sigma, enc, signed_letters(M), depth):
            checks += 1
            if not report.ball_equal:
                failures += 1
            if report.clause == "negative" and report.alternate_equal is False:
                alternate_disagrees += 1
    return CheckResult(
        "equivariance", failures == 0,
        f"{checks} generator checks, {failures} failures; "
        f"identity-symbol variant unusable in {alternate_disagrees} of them")


def check_tree_shape(seed: int = 0) -> CheckResult:
    """Embedded words keep their length; interior vertices have degree 2M.

    A key's length n <= depth is the number of powers ``B**0, ..., B**depth``
    at or below it, so no word, of the source or the target, is a ``Word``.
    """
    failures = 0
    trees = 0
    for M, m, sigma, enc, depth in _embedding_sample(seed):
        result = embed_config(sigma, enc, depth)
        trees += 1
        source, target = ([b ** j for j in range(depth + 1)]
                          for b in (key_base(M), key_base(result.tree.rank)))
        if any(bisect_right(source, s) != bisect_right(target, k) for s, k in result.vertex_keys):
            failures += 1
            continue
        if any(d != 2 * M for d in result.tree.degrees(depth - 1)):
            failures += 1
    return CheckResult("tree-shape", failures == 0, f"{trees} trees, {failures} failures")


def check_metric_axioms(seed: int = 0) -> CheckResult:
    """Symmetry plus the ultrametric inequality, and fast path versus oracle."""
    failures = 0
    for i in range(500):
        cs = _case_seed(seed, 5, i)
        radius = cs % 7
        triple = [random_tree(2, radius, cs + k) for k in (0, 7_000, 14_000)]
        d12 = box_distance(triple[0], triple[1])
        d21 = box_distance(triple[1], triple[0])
        d23 = box_distance(triple[1], triple[2])
        d13 = box_distance(triple[0], triple[2])
        if d12 != d21:
            failures += 1
        if d12.exact and d23.exact and d13.exact:
            if d13.value > max(d12.value, d23.value) + 1e-12:
                failures += 1
    discrepancies = 0
    for i in range(100):
        cs = _case_seed(seed, 55, i)
        radius = cs % 4
        t1 = random_tree(2, radius, cs)
        t2 = regrown_tree(t1, keep_below=cs % (radius + 1), seed=cs + 31) \
            if i % 2 else random_tree(2, radius, cs + 61)
        if box_distance(t1, t2) != box_distance_brute(t1, t2):
            discrepancies += 1
    ok = failures == 0 and discrepancies == 0
    return CheckResult(
        "metric-axioms", ok,
        f"500 triples ({failures} axiom failures), "
        f"100 oracle pairs ({discrepancies} discrepancies)")


def check_separation(seed: int = 0) -> CheckResult:
    """A witness of length r must rebase a known discrepancy to distance 1."""
    produced = 0
    failures = 0
    attempts = 0
    trits = alphabet([0, 1, 2])
    while produced < 100 and attempts < 1000:
        cs = _case_seed(seed, 6, attempts)
        attempts += 1
        M = 1 + cs % 2
        alph = BITS if cs % 2 else trits
        enc = random_encoding(M, alph, M * len(alph), seed=cs)
        sigma = random_config(free_group(M), alph, seed=cs + 11)
        if attempts % 2:
            other = random_config(free_group(M), alph, seed=cs + 17)
        else:
            lead = 1 + cs % 3
            target = [w for w in enumerate_ball(M, lead) if len(w) == lead][cs % (2 * M)]
            other = flipped_config(sigma, target, seed=cs)
        depth = 5
        t1 = embed_config(sigma, enc, depth).tree
        t2 = embed_config(other, enc, depth).tree
        d = box_distance(t1, t2)
        if not d.exact:
            continue
        produced += 1
        g = separate_witness(t1, t2)
        if g is None or len(g) != d.r:
            failures += 1
            continue
        if box_distance(act(t1, g, 1), act(t2, g, 1)) != BoxDistance(0, exact=True):
            failures += 1
    ok = failures == 0 and produced == 100
    return CheckResult("separation", ok, f"{produced} pairs, {failures} failures")


def check_pseudogroup_examples(seed: int = 0) -> CheckResult:
    """The one-sided shift example: itinerary values, tree, and propagation."""
    # imported here: no other suite runs the pseudogroup module
    from .pseudogroup import SymbolStream, builtin_n0_shift, embed_pseudo, itinerary

    cgs = builtin_n0_shift(BITS)
    omega = SymbolStream.eventually_periodic((), (0, 1))
    itin = itinerary(cgs, omega, 4)
    e = identity(2)
    expected = {
        e: 0,
        Word(2, (1,)): 1,
        Word(2, (2,)): S_EMPTY,
        Word(2, (-1,)): 0,
    }
    values_ok = all(itin.eval_word(w) == s for w, s in expected.items())  # S_EMPTY equals only itself
    enc = edge_encoding(2, BITS, 4, {(1, 0): 1, (1, 1): 2, (2, 0): 3, (2, 1): 4})
    tree = embed_pseudo(itin, enc, 1).tree
    tree_ok = tree_to_json(tree)["vertices"] == ["e", "g0", "g0'", "g3'"]
    degree_ok = tree.degrees(0) == [3] and 3 <= 2 * cgs.generator_count
    propagation_failures = 0
    for i in range(20):
        cs = _case_seed(seed, 7, i)
        pre = tuple((cs >> k) & 1 for k in range(cs % 3))
        cycle = tuple(((cs + 13) >> k) & 1 for k in range(1 + cs % 3))
        point = SymbolStream.eventually_periodic(pre, cycle)
        sample = itinerary(cgs, point, 4)
        if sample.validate_propagation():
            propagation_failures += 1
        sample_tree = embed_pseudo(sample, enc, 4).tree
        if max(sample_tree.degrees(3)) > 2 * cgs.generator_count:
            propagation_failures += 1
    ok = values_ok and tree_ok and degree_ok and propagation_failures == 0
    return CheckResult(
        "pseudogroup", ok,
        f"example values {'ok' if values_ok else 'WRONG'}, tree {'ok' if tree_ok else 'WRONG'}, "
        f"20 sampled points ({propagation_failures} failures)")


def check_lattice_collapse(seed: int = 0) -> CheckResult:
    """The commutator of the two lattice generators acts trivially upstream."""
    z2 = integer_lattice(d=2)
    commutator = Word(2, (1, 2, -1, -2))
    words = enumerate_ball(2, 3)
    failures = 0
    for i in range(50):
        sigma = induced_config(z2, random_config(z2, BITS, seed=_case_seed(seed, 8, i)))
        for w in words:
            if sigma.eval_word(commutator * w) != sigma.eval_word(w):
                failures += 1
                break
    return CheckResult("lattice-collapse", failures == 0, f"50 oracles, {failures} failures")


def check_continuity(seed: int = 0) -> CheckResult:
    """Agreement to radius k forces ball-equality at k; a flip at length
    k + 1 must surface within radius k + 2."""
    failures = 0
    for i in range(100):
        cs = _case_seed(seed, 9, i)
        k = cs % 5
        M = 1 + cs % 2
        m = 2 + cs % 2
        alph = alphabet(list(range(m)))
        enc = random_encoding(M, alph, M * m, seed=cs)
        sigma = random_config(free_group(M), alph, seed=cs + 23)
        targets = [w for w in enumerate_ball(M, k + 1) if len(w) == k + 1]
        other = flipped_config(sigma, targets[cs % len(targets)], seed=cs)
        depth_result = agree_depth(sigma, other, cap=k + 1)
        if not (depth_result.exact and depth_result.value == k):
            failures += 1
            continue
        t1 = embed_config(sigma, enc, k + 2).tree
        t2 = embed_config(other, enc, k + 2).tree
        if ball(t1, k).keys != ball(t2, k).keys:
            failures += 1
            continue
        d = box_distance(t1, t2)
        if not (d.exact and d.r <= k + 1):
            failures += 1
    return CheckResult("continuity", failures == 0, f"100 pairs, {failures} failures")


SUITES = {
    "ladder-orbit": check_ladder_orbit,
    "round-trip": check_round_trip,
    "equivariance": check_equivariance_suite,
    "tree-shape": check_tree_shape,
    "metric-axioms": check_metric_axioms,
    "separation": check_separation,
    "pseudogroup": check_pseudogroup_examples,
    "lattice-collapse": check_lattice_collapse,
    "continuity": check_continuity,
}


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    results = []
    for name in names:
        if name not in SUITES:
            raise ValidationError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.append(SUITES[name](seed))
    return results
