import functools
from hashlib import blake2b
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from oracles import embed_by_words, sphere_agree_depth
from treeshift import embed as embed_module, freegroup, groups, trees
from treeshift.errors import (
    ConsistencyError,
    InsufficientDepthError,
    NotInImageError,
    RankMismatchError,
    ValidationError,
    alphabet,
)
from treeshift.freegroup import (ball_size, enumerate_ball, enumerate_spheres, identity, key_word,
                                 parse_word, word_key)
from treeshift.groups import custom_group, free_group, induced_config, integer_lattice
from treeshift.shift import (
    AgreementDepth,
    Config,
    agree_depth,
    finite_support_config,
    flipped_config,
    periodic_config,
    random_config,
)
from treeshift.embed import (
    EdgeEncoding,
    check_equivariance,
    decode_tree,
    edge_encoding,
    embed_config,
    encoding_from_json,
    encoding_to_json,
    random_encoding,
    separate_witness,
    validate_alpha,
)
from treeshift.pseudogroup import SymbolStream, builtin_n0_shift, embed_pseudo, itinerary
from treeshift.trees import (BoxDistance, act, ball, box_distance, make_tree, orbit_graph,
                             validate_tree)
from treeshift.verify import random_tree, regrown_tree

BITS = alphabet([0, 1])
Z = integer_lattice(d=1)
F1 = free_group(1)

# the two-generator target encoding used by the worked ladder example:
# (t0, 0) -> g0 and (t0, 1) -> g1
E1 = edge_encoding(1, BITS, 2, {(1, 0): 1, (1, 1): 2})


def parity_on_f1():
    return induced_config(Z, periodic_config(Z, BITS, [0, 1]))


def constant_on_f1(symbol=0):
    return Config(F1, BITS, lambda p: symbol)


class TestValidateAlpha:
    def test_ladder_encoding_ok(self):
        assert validate_alpha(E1) == []

    def test_not_injective(self):
        with pytest.raises(ValidationError, match="invalid encoding: .*not injective"):
            edge_encoding(1, BITS, 2, {(1, 0): 1, (1, 1): 1})

    def test_pigeonhole(self):
        enc = random_encoding(2, BITS, 4, seed=0)
        with pytest.raises(ValidationError, match="invalid encoding: target rank 3 below"):
            EdgeEncoding(2, BITS, 3, enc.entries)

    def test_missing_entry(self):
        with pytest.raises(ValidationError, match="invalid encoding: .*missing entry"):
            edge_encoding(1, BITS, 2, {(1, 0): 1})

    def test_walks_trust_the_encoding(self, monkeypatch):
        sigma = parity_on_f1()
        tree = embed_config(sigma, E1, 2)
        itin = itinerary(builtin_n0_shift(BITS), SymbolStream((0,), (1,)), 2)
        enc4 = random_encoding(2, BITS, 4, seed=0)
        calls = []
        monkeypatch.setattr(embed_module, "validate_alpha", lambda enc: calls.append(enc) or [])
        embed_config(sigma, E1, 2)
        decode_tree(tree, E1, 2)
        embed_pseudo(itin, enc4, 2)
        assert calls == []

    def test_json_round_trip(self):
        blob = encoding_to_json(E1)
        assert blob == {"M": 1, "alphabet": [0, 1], "n": 2,
                        "table": {"t0,0": "g0", "t0,1": "g1"}}
        again = encoding_from_json(blob)
        assert again.entries == E1.entries

    def test_json_alphabet_cross_check(self):
        blob = encoding_to_json(E1)
        with pytest.raises(ValidationError):
            encoding_from_json(blob, alphabet=alphabet([0, 1, 2]))


class TestEmbed:
    def test_ladder_depth_two(self):
        result = embed_config(parity_on_f1(), E1, 2)
        assert {str(v) for v in result.tree.vertices} == {
            "e", "g0", "g0 g1", "g1'", "g1' g0'"}
        t = result.tree
        assert validate_tree(t.rank, t.radius, t.keys) == []

    def test_depth_zero(self):
        result = embed_config(parity_on_f1(), E1, 0)
        assert {str(v) for v in result.tree.vertices} == {"e"}

    def test_constant_depth_two(self):
        result = embed_config(constant_on_f1(0), E1, 2)
        assert {str(v) for v in result.tree.vertices} == {
            "e", "g0", "g0 g0", "g0'", "g0' g0'"}

    def test_length_preservation(self):
        result = embed_config(parity_on_f1(), E1, 4)
        for w, v in result.vertex_of.items():
            assert len(w) == len(v)

    def test_kappa_bijective_onto_vertices(self):
        result = embed_config(parity_on_f1(), E1, 3)
        assert set(result.vertex_of.values()) == set(result.tree.vertices)
        assert len(result.vertex_of) == len(result.tree.vertices)

    def test_interior_degree_regular(self):
        for seed in (0, 1):
            enc = random_encoding(2, BITS, 4, seed=seed)
            sigma = random_config(free_group(2), BITS, seed=seed)
            result = embed_config(sigma, enc, 3)
            assert all(d == 4 for d in result.tree.degrees(2))

    def test_rejects_config_of_other_generator_count(self):
        z2 = integer_lattice(d=2)
        for sigma in (random_config(free_group(2), BITS, 0),
                      periodic_config(z2, BITS, [[0, 1], [1, 0]], periods=[2, 2])):
            with pytest.raises(ValidationError, match="source generators"):
                embed_config(sigma, E1, 2)

    def test_rejects_bad_encoding(self):
        blob = dict(encoding_to_json(E1), table={"t0,0": "g0", "t0,1": "g0"})
        with pytest.raises(ValidationError, match="invalid encoding: not injective"):
            encoding_from_json(blob)

    def test_injectivity_within_depth(self):
        sigma = parity_on_f1()
        other = flipped_config(random_config(F1, BITS, 3), parse_word("g0 g0", 1))
        base = random_config(F1, BITS, 3)
        t_base = embed_config(base, E1, 3).tree
        t_other = embed_config(other, E1, 3).tree
        assert t_base.vertices != t_other.vertices


class TestDecode:
    def test_ladder_symbols(self):
        result = embed_config(parity_on_f1(), E1, 2)
        decoded = decode_tree(result, E1, 2)
        assert decoded.eval_word(identity(1)) == 0       # edge e -> g0 decodes to 0
        assert decoded.eval_word(parse_word("g0'", 1)) == 1   # entered through g1'
        assert decoded.eval_word(parse_word("g0", 1)) == 1    # read off edge g0 -> g0 g1

    def test_domain_is_one_level_shallower(self):
        result = embed_config(parity_on_f1(), E1, 2)
        decoded = decode_tree(result, E1, 2)
        with pytest.raises(InsufficientDepthError):
            decoded.eval_word(parse_word("g0 g0", 1))

    def test_round_trip_ladder(self):
        sigma = parity_on_f1()
        for depth in (1, 2, 4):
            decoded = decode_tree(embed_config(sigma, E1, depth), E1, depth)
            for w in enumerate_ball(1, depth - 1):
                assert decoded.eval_word(w) == sigma.eval_word(w)

    def test_round_trip_seeded(self):
        trits = alphabet([0, 1, 2])
        for seed in range(10):
            enc = random_encoding(2, trits, 6, seed=seed)
            sigma = random_config(free_group(2), trits, seed=seed + 50)
            depth = 1 + seed % 4
            decoded = decode_tree(embed_config(sigma, enc, depth), enc, depth)
            for w in enumerate_ball(2, depth - 1):
                assert decoded.eval_word(w) == sigma.eval_word(w)

    def test_label_outside_range(self):
        stray = make_tree(2, 1, ["e", "g1"])
        enc = edge_encoding(1, BITS, 2, {(1, 0): 1, (1, 1): 1 + 1})
        # target g1 is taken by (t0, 1); a bare g1 child of e is fine, so
        # force a label outside the range instead
        bad = make_tree(3, 1, ["e", "g2"])
        wide = EdgeEncoding(1, BITS, 3, enc.entries)
        with pytest.raises(NotInImageError):
            decode_tree(bad, wide, 1)
        assert decode_tree(stray, enc, 1).eval_word(identity(1)) == 1

    def test_missing_continuation(self):
        # g0 is entered positively but has no outward edge inside depth 2
        stub = make_tree(2, 2, ["e", "g0", "g1'"])
        with pytest.raises(ConsistencyError):
            decode_tree(stub, E1, 2)

    def test_conflicting_votes(self):
        # two positive children of e with different decoded symbols
        twisted = make_tree(2, 1, ["e", "g0", "g1"])
        with pytest.raises(ConsistencyError):
            decode_tree(twisted, E1, 1)



@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.randoms(use_true_random=False))
def test_first_missing_key_is_the_first_missing_word_of_the_ball(rank, radius, rng):
    ball = [word_key(w) for w in enumerate_ball(rank, radius)]
    kept = rng.choice([0.5, 0.9, 0.99])
    keys = {k: None for k in ball if rng.random() < kept}
    missing = [k for k in ball if k not in keys]
    if missing:
        limit = freegroup.key_base(rank) ** radius
        assert embed_module._first_missing(keys, rank, limit) == missing[0]


class TestEquivariance:
    def test_positive_generator_ladder(self):
        report, = check_equivariance(parity_on_f1(), E1, [1], 2)
        assert report.clause == "positive"
        assert str(report.witness) == "g0"
        assert report.ball_equal
        assert report.alternate_witness is None

    def test_negative_generator_ladder(self):
        report, = check_equivariance(parity_on_f1(), E1, [-1], 2)
        assert report.clause == "negative"
        assert str(report.witness) == "g1'"
        assert report.ball_equal
        # the identity-symbol variant would rebase at g0', which is not a
        # vertex of the ladder: recorded as undefined, not patched over
        assert str(report.alternate_witness) == "g0'"
        assert report.alternate_defined is False
        assert report.alternate_equal is False

    def test_depth_one_trivial(self):
        report, = check_equivariance(random_config(F1, BITS, 9), E1, [-1], 1)
        assert report.ball_equal

    def test_seeded_sample_both_signs(self):
        trits = alphabet([0, 1, 2])
        for seed in range(6):
            enc = random_encoding(2, trits, 6, seed=seed)
            sigma = random_config(free_group(2), trits, seed=seed)
            depth = 2 + seed % 3
            reports = check_equivariance(sigma, enc, (1, -1, 2, -2), depth)
            assert [r.generator for r in reports] == [1, -1, 2, -2]
            assert all(r.ball_equal for r in reports)


class TestSeparateWitness:
    def ladder_pair(self):
        base = embed_config(parity_on_f1(), E1, 4).tree
        flipped = flipped_config(parity_on_f1(), parse_word("g0 g0", 1))
        other = embed_config(flipped, E1, 4).tree
        return base, other

    def test_known_discrepancy(self):
        base, other = self.ladder_pair()
        assert box_distance(base, other) == BoxDistance(2, exact=True)
        g = separate_witness(base, other)
        assert str(g) == "g0 g1"
        from treeshift.trees import act

        assert box_distance(act(base, g), act(other, g)) == BoxDistance(0, exact=True)

    def test_identical_trees(self):
        base = embed_config(parity_on_f1(), E1, 3).tree
        assert separate_witness(base, base) is None

    def test_radius_one_difference(self):
        base = embed_config(parity_on_f1(), E1, 2).tree
        other = embed_config(constant_on_f1(0), E1, 2).tree
        assert separate_witness(base, other) == identity(2)


class TestContinuity:
    def test_flip_controls_divergence(self):
        trits = alphabet([0, 1, 2])
        for seed in range(8):
            k = seed % 3
            enc = random_encoding(2, trits, 6, seed=seed)
            sigma = random_config(free_group(2), trits, seed=seed + 7)
            targets = [w for w in enumerate_ball(2, k + 1) if len(w) == k + 1]
            flip_at = targets[seed % len(targets)]
            other = flipped_config(sigma, flip_at, seed=seed)
            depth_result = agree_depth(sigma, other, cap=k + 1)
            assert depth_result.exact and depth_result.value == k
            t1 = embed_config(sigma, enc, k + 2).tree
            t2 = embed_config(other, enc, k + 2).tree
            d = box_distance(t1, t2)
            assert d.exact and d.r >= k
            assert d.r <= k + 1


def _exponent_sums_mod_3(w):
    sums = [0, 0]
    for x in w.letters:
        sums[abs(x) - 1] += 1 if x > 0 else -1
    return (sums[0] % 3, sums[1] % 3)


# Z/3 x Z/3 on two generators, known to the package only through its normalizer
Z3_SQUARED = custom_group(2, _exponent_sums_mod_3, name="z3xz3")


def _nested_table(rng, periods, symbols):
    if not periods:
        return rng.choice(symbols)
    return [_nested_table(rng, periods[1:], symbols) for _ in range(periods[0])]


@st.composite
def walked_configs(draw):
    """A configuration over a free group of rank 1-3, a lattice Z^1-Z^3 with
    random integer images, or a custom group, possibly pulled back to the
    free group (``induced_config``) before or after it is flipped at one or
    two words of length 0-3 (``flipped_config``), possibly shifted; and an
    encoding."""
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["free", "lattice", "custom"]))
    m = draw(st.integers(2, 3))
    alph = alphabet(range(m))
    if kind == "custom":
        group = Z3_SQUARED
    elif kind == "free":
        group = free_group(draw(st.integers(1, 3)))
    else:
        d, M = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        group = integer_lattice(images=[[rng.randint(-2, 2) for _ in range(d)] for _ in range(M)])
    M = group.generator_count
    rule = draw(st.sampled_from(["random", "finite", "custom"]
                                + (["periodic"] if kind == "lattice" else [])))
    if rule == "random":
        sigma = random_config(group, alph, seed=rng.randrange(1000))
    elif rule == "periodic":
        periods = [rng.randint(1, 3) for _ in range(group.key[1])]
        sigma = periodic_config(group, alph, _nested_table(rng, periods, alph.symbols), periods)
    elif rule == "finite":
        words = rng.sample(enumerate_ball(M, 2), 3)
        support = {group.normalize(w).payload: rng.choice(alph.symbols) for w in words}
        sigma = finite_support_config(group, alph, support, rng.choice(alph.symbols))
    else:
        sigma = Config(group, alph, lambda p: len(str(p)) % m)
    pull = draw(st.sampled_from(["no", "before the flips", "after the flips"]))
    if pull == "before the flips":
        sigma = induced_config(group, sigma)
    for _ in range(draw(st.integers(0, 2))):
        length = rng.randint(0, 3)
        at = rng.choice(enumerate_spheres(M, length)[length])
        sigma = flipped_config(sigma, at, seed=rng.randrange(1000))
    if pull == "after the flips":
        sigma = induced_config(group, sigma)
    if draw(st.booleans()):
        sigma = sigma.shifted(rng.choice(enumerate_ball(M, 3)))
    enc = random_encoding(M, alph, M * m + rng.randint(0, 2), seed=rng.randrange(1000))
    return sigma, enc, draw(st.integers(0, 4))


class TestGroupWalk:
    @settings(max_examples=120, deadline=None)
    @given(walked_configs())
    def test_walk_matches_per_word_evaluation(self, case):
        sigma, enc, depth = case
        result = embed_config(sigma, enc, depth)
        tree, vertex_of = embed_by_words(sigma, enc, depth)
        assert result.tree.keys == tree.keys
        assert result.vertex_of == vertex_of
        assert [s for s, _ in result.vertex_keys] == [
            word_key(w) for w in enumerate_ball(enc.source_rank, depth)]

    @settings(max_examples=40, deadline=None)
    @given(walked_configs())
    def test_embeds_as_its_pullback(self, case):
        # the pullback walks sigma's group, so the oracle is a per-word read
        sigma, enc, depth = case
        pulled = embed_config(induced_config(sigma.group, sigma), enc, depth)
        tree, vertex_of = embed_by_words(sigma, enc, depth)
        assert pulled.tree == tree
        assert pulled.vertex_of == vertex_of

    @settings(max_examples=60, deadline=None)
    @given(walked_configs(), st.randoms(use_true_random=False))
    def test_trees_built_from_trusted_keys_are_trees(self, case, rng):
        # the embeddings, ball, act, orbit_graph and the samplers build their
        # trees unchecked (trees._tree): the one scan is random_tree's of its root
        sigma, enc, depth = case
        scanned, faults = [], trees._faults
        stream = SymbolStream.eventually_periodic(
            tuple(rng.choice(BITS.symbols) for _ in range(rng.randint(0, 3))),
            tuple(rng.choice(BITS.symbols) for _ in range(rng.randint(1, 3))))
        with patch.object(trees, "_faults",
                          lambda *args: scanned.append(len(args[2])) or faults(*args)):
            t = embed_config(sigma, enc, depth).tree
            sampled = random_tree(rng.randint(1, 3), depth, rng.randrange(1000),
                                  rng.choice([0.3, 0.9]))
            built = [t, embed_config(induced_config(sigma.group, sigma), enc, depth).tree,
                     embed_pseudo(itinerary(builtin_n0_shift(BITS), stream, depth),
                                  random_encoding(2, BITS, 4, seed=rng.randrange(1000)),
                                  depth).tree,
                     ball(t, rng.randint(0, depth)), sampled,
                     regrown_tree(sampled, rng.randint(0, depth + 1), rng.randrange(1000))]
            for tree in (t, sampled):
                g = key_word(rng.choice(tree.sorted_keys), tree.rank)
                built += [act(tree, g), act(tree, g, rng.randint(0, tree.radius - len(g)))]
            steps = rng.randint(0, depth)
            built += orbit_graph(t, steps, depth - steps).nodes
        assert scanned == [1]
        for tree in built:
            assert validate_tree(tree.rank, tree.radius, tree.keys) == []

    def test_lattice_embed_normalizes_no_word(self, monkeypatch):
        # nor does it build one, directly or through its pullback, flipped or
        # not; nor do the itinerary walks, the decoder or ball_json, which
        # carry each source word as its key
        z3 = integer_lattice(d=3)
        sigma = random_config(z3, BITS, seed=2)
        pulled = induced_config(z3, sigma)
        flipped = flipped_config(pulled, parse_word("g0 g2'", 3), seed=1)
        enc = random_encoding(3, BITS, 6, seed=1)
        tree = embed_config(sigma, enc, 5).tree
        flipped_tree = embed_by_words(flipped, enc, 5)[0]
        shift = builtin_n0_shift(BITS)
        omega = SymbolStream.eventually_periodic((), (0, 1))
        enc4 = edge_encoding(2, BITS, 4, {(1, 0): 1, (1, 1): 2, (2, 0): 3, (2, 1): 4})
        calls, built = [], []
        normalize = groups.GroupModel.normalize
        monkeypatch.setattr(groups.GroupModel, "normalize",
                            lambda self, w: calls.append(w) or normalize(self, w))
        check, word = freegroup.Word.__post_init__, freegroup._word
        monkeypatch.setattr(freegroup.Word, "__post_init__",
                            lambda self: built.append(self) or check(self))
        monkeypatch.setattr(freegroup, "_word", lambda *args: built.append(args) or word(*args))
        embed_config(sigma, enc, 4)
        assert embed_config(pulled, enc, 5).tree == tree
        assert embed_config(flipped, enc, 5).tree == flipped_tree != tree
        assert calls == []
        decode_tree(tree, enc, 5)
        embed_pseudo(itinerary(shift, omega, 6), enc4, 6)
        "".join(freegroup.ball_json(3, 4, dict.fromkeys(range(10), 0)))
        assert built == []

    def test_free_random_walk_builds_no_word(self, monkeypatch):
        # random_config and flipped_config step a hash along the walk; shifted
        # by g0 g1' g0, the step by g0' cancels onto g0 g1', the flipped word
        f2, enc = free_group(2), random_encoding(2, BITS, 4, seed=1)
        sigma = random_config(f2, BITS, seed=2)
        gamma = parse_word("g0 g1' g0", 2)
        flipped = flipped_config(sigma, parse_word("g0 g1'", 2), seed=3)
        s1, s2 = sigma.shifted(gamma), flipped.shifted(gamma)
        expected = [embed_by_words(s, enc, 4)[0].keys for s in (s1, s2)]
        depth = sphere_agree_depth(s1, s2, 5)
        assert depth == AgreementDepth(0, exact=True)
        calls, built = [], []
        normalize = groups.GroupModel.normalize
        monkeypatch.setattr(groups.GroupModel, "normalize",
                            lambda self, w: calls.append(w) or normalize(self, w))
        check, word = freegroup.Word.__post_init__, freegroup._word
        monkeypatch.setattr(freegroup.Word, "__post_init__",
                            lambda self: built.append(self) or check(self))
        monkeypatch.setattr(freegroup, "_word", lambda *args: built.append(args) or word(*args))
        assert [embed_config(s, enc, 4).tree.keys for s in (s1, s2)] == expected
        assert agree_depth(s1, s2, 5) == depth
        assert agree_depth(s1, s1, 5) == AgreementDepth(5, exact=False)
        assert calls == [] and built == []

    def test_free_finite_support_walk_builds_no_word(self, monkeypatch):
        # the walk steps the word's key; shifted by g0 g1' g0, the step by g0'
        # cancels onto g0 g1', which is in the support and flipped
        f2, trits = free_group(2), alphabet(range(3))
        enc = random_encoding(2, trits, 6, seed=1)
        support = {parse_word(t, 2): s for t, s in [("g0 g1'", 1), ("g1", 2), ("g0 g1' g0 g1", 2)]}
        sigma = finite_support_config(f2, trits, support, 0)
        flipped = flipped_config(sigma, parse_word("g0 g1'", 2), seed=3)
        gamma = parse_word("g0 g1' g0", 2)
        configs = (sigma, flipped, sigma.shifted(gamma), flipped.shifted(gamma))
        expected = [embed_by_words(s, enc, 4)[0].keys for s in configs]
        pairs = [(sigma, flipped), configs[2:], (sigma, configs[2])]
        depths = [sphere_agree_depth(s1, s2, 5) for s1, s2 in pairs]
        assert depths == [AgreementDepth(1, exact=True), AgreementDepth(0, exact=True),
                          AgreementDepth(0, exact=True)]
        calls, built = [], []
        normalize = groups.GroupModel.normalize
        monkeypatch.setattr(groups.GroupModel, "normalize",
                            lambda self, w: calls.append(w) or normalize(self, w))
        check, word = freegroup.Word.__post_init__, freegroup._word
        monkeypatch.setattr(freegroup.Word, "__post_init__",
                            lambda self: built.append(self) or check(self))
        monkeypatch.setattr(freegroup, "_word", lambda *args: built.append(args) or word(*args))
        assert [embed_config(s, enc, 4).tree.keys for s in configs] == expected
        assert [agree_depth(s1, s2, 5) for s1, s2 in pairs] == depths
        assert calls == [] and built == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.randoms(use_true_random=False))
    def test_the_bare_walk_reads_the_keyed_walk_of_a_flip_off_the_flip(self, rank, m, rng):
        # from e with no flip the walk state is the bare hasher; under a flip
        # at w it is (key, hasher), and the two read the same symbols off w
        sigma = random_config(free_group(rank), alphabet(range(m)), seed=rng.randrange(10**6))
        length = rng.randint(0, 3)
        w = rng.choice(enumerate_spheres(rank, length)[length])
        flipped = flipped_config(sigma, w, seed=rng.randrange(1000))
        read = {}
        for config in (sigma, flipped):
            (symbol, state), step = config.walk()
            states, symbols = {identity(rank): state}, {identity(rank): symbol}
            for v in enumerate_ball(rank, 4)[1:]:
                symbols[v], states[v] = step(states[v.parent], v.last)
            read[config] = symbols
            assert isinstance(state, tuple) == (config is flipped)
        assert {v for v in read[sigma] if read[sigma][v] != read[flipped][v]} == {w}
        assert all(s == sigma.eval_word(v) for v, s in read[sigma].items())
        assert read[flipped][w] == flipped.eval_word(w)

    def test_the_outer_of_two_flips_at_one_word_wins_along_the_walk(self):
        trits = alphabet(range(3))
        at = parse_word("g1'", 2)
        once = flipped_config(random_config(free_group(2), trits, seed=4), at, seed=0)
        twice = flipped_config(once, at, seed=1)
        assert twice.eval_word(at) != once.eval_word(at)
        enc = random_encoding(2, trits, 6, seed=0)
        for sigma in (twice, twice.shifted(parse_word("g1 g0", 2))):
            assert embed_config(sigma, enc, 3).tree.keys == embed_by_words(sigma, enc, 3)[0].keys

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_random_symbols_hash_the_word_text(self, rank):
        # the symbol at w is the blake2b of f"{seed}|{w}", read one word at a
        # time, along the walk, and back from the tree
        group = free_group(rank)
        for m in (2, 3, 4):
            alph = alphabet(f"s{i}" for i in range(m))
            enc = random_encoding(rank, alph, rank * m, seed=m)
            for seed in (0, 7, 123456789):
                sigma = random_config(group, alph, seed=seed)
                decoded = decode_tree(embed_config(sigma, enc, 5), enc, 5)
                for w in enumerate_ball(rank, 4):
                    digest = blake2b(f"{seed}|{w}".encode(), digest_size=8).digest()
                    symbol = alph.symbols[int.from_bytes(digest, "big") % m]
                    assert sigma.eval_word(w) == symbol
                    assert decoded.eval_word(w) == symbol

    def test_custom_group_walk_renormalizes_the_representative(self):
        seen = []

        def normalizer(w):
            seen.append(w)
            return _exponent_sums_mod_3(w)

        group = custom_group(2, normalizer)
        sigma = random_config(group, BITS, seed=4).shifted(parse_word("g0 g1", 2))
        seen.clear()
        embed_config(sigma, random_encoding(2, BITS, 4, seed=0), 2)
        assert seen == [parse_word("g0 g1", 2) * w for w in enumerate_ball(2, 2)]

    def test_symbol_outside_the_alphabet(self):
        sigma = Config(integer_lattice(d=1), BITS, lambda p: 2 if p == (2,) else 0)
        embed_config(sigma, E1, 1)
        with pytest.raises(ValidationError, match="outside the alphabet"):
            embed_config(sigma, E1, 2)

    @settings(max_examples=120, deadline=None)
    @given(walked_configs(), st.randoms(use_true_random=False),
           st.sampled_from(["flip", "other", "same"]))
    def test_agree_depth_matches_the_sphere_walk(self, case, rng, partner):
        sigma, _, cap = case
        group, alph = sigma.group, sigma.alphabet
        if partner == "flip":
            length = rng.randint(0, cap + 1)
            w = rng.choice(enumerate_spheres(group.generator_count, length)[length])
            at = group.normalize(sigma.translate.rep * w).payload
            new = (sigma.rule(at) + 1) % len(alph)
            other = Config(group, alph, lambda p: new if p == at else sigma.rule(p),
                           translate=sigma.translate)
        elif partner == "other":
            other = random_config(group, alph, seed=rng.randrange(1000))
        else:
            other = sigma
        assert agree_depth(sigma, other, cap) == sphere_agree_depth(sigma, other, cap)

    def test_lattice_agree_depth_normalizes_only_the_identity(self, monkeypatch):
        sigma = random_config(integer_lattice(d=3), BITS, seed=2)
        calls = []
        normalize = groups.GroupModel.normalize
        monkeypatch.setattr(groups.GroupModel, "normalize",
                            lambda self, w: calls.append(w) or normalize(self, w))
        assert agree_depth(sigma, sigma, cap=6) == AgreementDepth(6, exact=False)
        assert calls == [identity(3)]


def counted_steps(monkeypatch) -> list[int]:
    """The letter of every ``step`` the embeddings run from now on: each
    step is wrapped, keeping its attributes, before it reaches the loop."""
    letters, run = [], embed_module._run_embedding

    def run_counting(source_rank, depth, root, step, enc):
        @functools.wraps(step)
        def counted(state, x):
            letters.append(x)
            return step(state, x)

        return run(source_rank, depth, root, counted, enc)

    monkeypatch.setattr(embed_module, "_run_embedding", run_counting)
    return letters


def _random_on(rank):
    return random_config(free_group(rank), alphabet(range(3)), seed=5)


def _finite_on(rank):
    support = {w: i % 3 for i, w in enumerate(enumerate_ball(rank, 2)[::2])}
    return finite_support_config(free_group(rank), alphabet(range(3)), support, 1)


# configurations whose walk only fetches symbols checked in advance ...
CHECKED = {
    "random": _random_on,
    "finite": _finite_on,
    "flipped": lambda rank: flipped_config(_random_on(rank), parse_word("g0 g0", rank), seed=1),
    "flipped finite": lambda rank: flipped_config(_finite_on(rank), parse_word("g0'", rank)),
    "shifted": lambda rank: _finite_on(rank).shifted(parse_word("g0 g0", rank)),
    "pulled back": lambda rank: induced_config(free_group(rank), _random_on(rank)),
}
# ... and those whose walk checks each symbol it reads
READ_AND_CHECKED = {
    "lattice": lambda rank: random_config(integer_lattice(d=rank), alphabet(range(3)), seed=5),
    "lattice pulled back": lambda rank: induced_config(
        integer_lattice(d=rank),
        random_config(integer_lattice(d=rank), alphabet(range(3)), seed=5)),
    "rule": lambda rank: Config(free_group(rank), alphabet(range(3)), lambda w: len(w) % 3),
}


class TestLastSphereReads:
    """A radius-d tree reads no symbol of a last-sphere word entered through
    a positive letter, so a walk that only fetches symbols checked in advance
    is not stepped there; every other walk is."""

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("kind", [*CHECKED, *READ_AND_CHECKED])
    def test_steps_per_embedding(self, monkeypatch, kind, rank):
        sigma = {**CHECKED, **READ_AND_CHECKED}[kind](rank)
        enc = random_encoding(rank, sigma.alphabet, 3 * rank, seed=2)
        letters = counted_steps(monkeypatch)
        for depth in range(1, 6):
            letters.clear()
            tree = embed_config(sigma, enc, depth).tree
            assert tree.keys == embed_by_words(sigma, enc, depth)[0].keys
            skipped = sum(w.last > 0 for w in enumerate_spheres(rank, depth)[depth])
            assert len(letters) == ball_size(rank, depth) - 1 - skipped * (kind in CHECKED)

    def test_embed_pseudo_steps_every_child_of_a_live_word(self, monkeypatch):
        # a step decides whether a word is live, so none is left out
        enc4 = edge_encoding(2, BITS, 4, {(1, 0): 1, (1, 1): 2, (2, 0): 3, (2, 1): 4})
        stream = SymbolStream.eventually_periodic((1,), (0, 1))
        letters = counted_steps(monkeypatch)
        for depth in range(1, 6):
            itin = itinerary(builtin_n0_shift(BITS), stream, depth)
            letters.clear()
            embed_pseudo(itin, enc4, depth)
            lengths = [len(key_word(k, 2)) for k in itin.values]
            assert len(letters) == sum(4 if n == 0 else 3 for n in lengths if n < depth)
            assert len(lengths) < ball_size(2, depth)  # some words are dead

    def test_a_pullback_of_a_checking_walk_reads_the_last_sphere(self):
        # cell 2 of Z is reached only by g0 g0, a last-sphere word entered
        # through a positive letter: no edge reads its symbol, but the
        # lattice's walk checks it
        pulled = induced_config(Z, periodic_config(Z, BITS, [0, 0, 2, 0, 0]))
        embed_config(pulled, E1, 1)
        with pytest.raises(ValidationError, match="outside the alphabet"):
            embed_config(pulled, E1, 2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: EdgeEncoding(1, BITS, 4, ((1, 0, 1), (1, 1, 2), (2, 0, 3))), ValidationError,
     "invalid encoding: source generator t1 out of range"),
    (lambda: EdgeEncoding(1, BITS, 4, ((1, 0, 1), (1, 1, 2), (1, 2, 3))), ValidationError,
     "invalid encoding: symbol 2 not in the alphabet"),
    (lambda: EdgeEncoding(1, BITS, 4, ((1, 0, 1), (1, 1, 2), (1, 0, 3))), ValidationError,
     "invalid encoding: duplicate entry for (t0, 0)"),
    (lambda: random_encoding(2, BITS, 3, seed=0), ValidationError, "target rank 3 below 4"),
    (lambda: decode_tree(make_tree(3, 1, ["e"]), E1, 1), RankMismatchError,
     "tree rank 3 vs encoding target 2"),
    (lambda: decode_tree(make_tree(2, 1, ["e"]), E1, 0), ValidationError,
     "decoding needs depth >= 1"),
    (lambda: decode_tree(make_tree(2, 1, ["e"]), E1, 2), InsufficientDepthError,
     "decode depth 2 exceeds tree radius 1"),
    (lambda: check_equivariance(parity_on_f1(), E1, [1], 0), ValidationError,
     "equivariance checks need depth >= 1"),
])
def test_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
