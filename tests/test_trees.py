import math
import random
import time
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from treeshift.errors import (
    ActionUndefinedError,
    InsufficientDepthError,
    InvalidGeneratorError,
    RankMismatchError,
    ValidationError,
)
from treeshift import freegroup, trees
from treeshift.freegroup import Word, identity, letter_str, parse_word, signed_letters, word_key
from treeshift.trees import (
    BoxDistance,
    act,
    ball,
    box_distance,
    make_tree,
    neighborhood,
    orbit_graph,
    orbit_to_dot,
    orbit_to_json,
    PointedTree,
    dumps_json,
    tree_from_json,
    tree_json,
    tree_to_dot,
    tree_to_json,
    validate_tree,
)
from treeshift.verify import balls_isomorphic, box_distance_brute, random_tree, regrown_tree

from treeshift.embed import separate_witness

from oracles import (
    levelwise_box_distance,
    parse_word_tree,
    relabel_tree,
    sorted_separate_witness,
    sorted_tree_dot,
    sorted_tree_json,
    sorted_violations,
    translated_act,
    tree_from_words,
)


def alternating(first, second, length):
    return tuple(first if i % 2 == 0 else second for i in range(length))


def ladder(radius, forward=(1, 2), backward=(-2, -1)):
    """Two-sided path whose edges alternate between two generators."""
    words = set()
    for k in range(radius + 1):
        words.add(Word(2, alternating(forward[0], forward[1], k)))
        words.add(Word(2, alternating(backward[0], backward[1], k)))
    return tree_from_words(2, radius, words)


def parity_tree(radius):
    return ladder(radius)


def shifted_parity_tree(radius):
    return ladder(radius, forward=(2, 1), backward=(-1, -2))


def flipped_at_two_tree(radius):
    """Hand derivation of the embedding whose symbol at +2 is flipped.

    Forward spine reads a b b b a b a b ... (the flip turns position two
    into the odd symbol and leaves everything else to parity); backward
    spine is untouched.
    """
    forward = [1, 2, 2, 2, 1, 2]
    words = {Word(2, tuple(forward[:k])) for k in range(min(radius, len(forward)) + 1)}
    for k in range(radius + 1):
        words.add(Word(2, alternating(-2, -1, k)))
    return tree_from_words(2, radius, words)


E1_DEPTH2 = {"e", "g0", "g0 g1", "g1'", "g1' g0'"}


def keys_of(rank, texts):
    return frozenset(freegroup.text_keys(texts, rank))


class TestValidate:
    def test_ok(self):
        t = make_tree(2, 2, ["e", "g0", "g0 g1"])
        assert validate_tree(t.rank, t.radius, t.keys) == []

    def test_missing_prefix(self):
        problems = validate_tree(2, 2, keys_of(2, ["e", "g0 g1"]))
        assert problems == ["missing prefix g0 of vertex g0 g1"]

    def test_missing_basepoint(self):
        assert "missing basepoint e" in validate_tree(2, 1, keys_of(2, ["g0"]))

    def test_radius_violation(self):
        problems = validate_tree(2, 1, keys_of(2, ["e", "g0", "g0 g1"]))
        assert any("exceeds radius" in p for p in problems)

    def test_make_tree_raises(self):
        with pytest.raises(ValidationError):
            make_tree(2, 2, ["e", "g0 g1"])


class TestBall:
    def test_parity_ball_one(self):
        t = parity_tree(2)
        assert {str(v) for v in ball(t, 1).vertices} == {"e", "g0", "g1'"}

    def test_ball_zero(self):
        assert ball(parity_tree(3), 0).vertices == {identity(2)}

    def test_full_ball_is_identity(self):
        t = parity_tree(3)
        assert ball(t, t.radius) == t

    def test_too_deep(self):
        with pytest.raises(InsufficientDepthError):
            ball(parity_tree(2), 3)


class TestBoxDistance:
    def test_self_distance_bounded(self):
        t = parity_tree(4)
        assert box_distance(t, t) == BoxDistance(4, exact=False)

    def test_parity_vs_shift(self):
        d = box_distance(parity_tree(2), shifted_parity_tree(2))
        assert d == BoxDistance(0, exact=True)
        assert d.value == 1.0

    def test_parity_vs_flip_at_two(self):
        d = box_distance(parity_tree(4), flipped_at_two_tree(4))
        assert d == BoxDistance(2, exact=True)
        assert d.value == pytest.approx(math.exp(-2))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            box_distance(parity_tree(1), PointedTree(1, 0, frozenset({0})))

    def test_no_distance_to_a_key_set_without_basepoint(self):
        # the keys {g0} would read exact(-1), a distance of e, above the maximum 1
        with pytest.raises(ValidationError, match="missing basepoint e"):
            box_distance(make_tree(2, 2, ["e", "g0"]), PointedTree(2, 1, frozenset({1})))

    def test_symmetry_and_ultrametric_random(self):
        for seed in range(60):
            t1 = random_tree(2, 4, seed)
            t2 = random_tree(2, 4, seed + 1000)
            t3 = random_tree(2, 4, seed + 2000)
            d12, d23, d13 = box_distance(t1, t2), box_distance(t2, t3), box_distance(t1, t3)
            assert d12 == box_distance(t2, t1)
            if d12.exact and d23.exact and d13.exact:
                assert d13.value <= max(d12.value, d23.value) + 1e-12


class TestNeighborhood:
    def test_contains_self(self):
        t = parity_tree(2)
        assert neighborhood(t, 2, [t]) == [t]

    def test_radius_one_separates(self):
        t, other = parity_tree(2), shifted_parity_tree(2)
        assert neighborhood(t, 1, [t, other]) == [t]

    def test_radius_zero_keeps_all(self):
        t, other = parity_tree(2), shifted_parity_tree(2)
        assert neighborhood(t, 0, [t, other]) == [t, other]

    def test_shallow_member_flagged(self):
        t = parity_tree(3)
        with pytest.raises(InsufficientDepthError):
            neighborhood(t, 2, [parity_tree(1)])

    def test_member_of_another_rank_flagged(self):
        # key 1 is g0 in both ranks, so the balls' keys alone would match
        with pytest.raises(RankMismatchError, match="has rank 3, tree has rank 2"):
            neighborhood(make_tree(2, 1, ["e", "g0"]), 1, [make_tree(3, 1, ["e", "g0"])])


class TestAct:
    def test_identity_action(self):
        t = parity_tree(2)
        assert act(t, identity(2)) == t

    def test_rebase_at_g0(self):
        t = make_tree(2, 2, ["e", "g0", "g0 g1", "g1'", "g1' g0'"])
        result = act(t, parse_word("g0", 2))
        assert {str(v) for v in result.vertices} == {"g0'", "e", "g1"}
        assert result.radius == 1

    def test_undefined_outside_vertices(self):
        t = make_tree(2, 2, sorted(E1_DEPTH2))
        with pytest.raises(ActionUndefinedError):
            act(t, parse_word("g1", 2))

    def test_word_longer_than_radius(self):
        t = parity_tree(2)
        with pytest.raises(InsufficientDepthError):
            act(t, parse_word("g0 g1 g0", 2))

    def test_output_is_valid(self):
        for seed in range(10):
            t = random_tree(2, 4, seed, fill=0.8)
            for v in sorted(t.vertices, key=Word.sort_key):
                if len(v) > 2:
                    continue
                image = act(t, v)
                assert validate_tree(image.rank, image.radius, image.keys) == []

    def test_composition_where_defined(self):
        t = parity_tree(6)
        g = parse_word("g0", 2)
        h = parse_word("g1", 2)
        double = act(act(t, g), h)
        joined = act(t, g * h)
        r = min(double.radius, joined.radius)
        assert ball(double, r).vertices == ball(joined, r).vertices


class TestOrbitGraph:
    def test_parity_ladder(self):
        og = orbit_graph(parity_tree(6), step_bound=4, working_radius=2)
        assert len(og.nodes) == 2
        assert len(og.edges) == 2
        assert sorted(og.edge_labels) == ["g0", "g1"]

    def test_constant_axis_self_loop(self):
        axis = tree_from_words(2, 6, [Word(2, (x,) * k) for x in (1, -1) for k in range(7)])
        og = orbit_graph(axis, step_bound=4, working_radius=2)
        assert len(og.nodes) == 1
        assert og.edges == ((0, 1, 0),)

    def test_step_bound_zero(self):
        og = orbit_graph(parity_tree(3), step_bound=0, working_radius=2)
        assert len(og.nodes) == 1
        assert og.edges == ()

    def test_depth_requirement(self):
        with pytest.raises(InsufficientDepthError):
            orbit_graph(parity_tree(3), step_bound=3, working_radius=2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
           st.integers(0, 10**6))
    def test_rebasing_to_what_is_read_keeps_the_graph(self, rank, step_bound, working_radius,
                                                       spare, seed):
        # each image is rebased only as far as the steps left read it; the
        # graph is the one of rebasing every image to its full radius
        t = random_tree(rank, working_radius + step_bound + spare, seed, fill=0.7)
        og = orbit_graph(t, step_bound, working_radius)
        with patch.object(trees, "act", lambda tree, g, radius=None: act(tree, g)):
            full = orbit_graph(t, step_bound, working_radius)
        assert og.nodes == full.nodes and og.edges == full.edges

    def test_exports(self):
        og = orbit_graph(parity_tree(6), step_bound=4, working_radius=2)
        blob = orbit_to_json(og)
        assert blob["identification"] == "ball-equality at radius 2"
        assert len(blob["nodes"]) == 2
        dot = orbit_to_dot(og)
        assert "T0 ->" in dot or "T1 ->" in dot


class TestIsomorphismOracle:
    def test_agrees_on_hand_examples(self):
        pairs = [
            (parity_tree(3), parity_tree(3)),
            (parity_tree(3), shifted_parity_tree(3)),
            (parity_tree(3), flipped_at_two_tree(3)),
        ]
        for t1, t2 in pairs:
            assert box_distance_brute(t1, t2) == box_distance(t1, t2)

    def test_signed_labels_distinguish_directions(self):
        plus = make_tree(2, 1, ["e", "g0"])
        minus = make_tree(2, 1, ["e", "g0'"])
        assert not balls_isomorphic(plus, minus, 1)
        assert box_distance(plus, minus) == BoxDistance(0, exact=True)

    def test_agrees_on_random_pairs(self):
        for seed in range(40):
            t1 = random_tree(2, 3, seed)
            t2 = regrown_tree(t1, keep_below=seed % 4, seed=seed + 77)
            assert box_distance_brute(t1, t2) == box_distance(t1, t2)

    def test_relabel_changes_distance(self):
        for seed in range(20):
            t = random_tree(2, 3, seed, fill=0.7)
            swapped = relabel_tree(t, {1: 2, 2: 1})
            if swapped.vertices != t.vertices:
                d = box_distance(t, swapped)
                assert d.exact and d.value > 0
                assert box_distance_brute(t, swapped) == d


class TestSerialization:
    def test_json_round_trip(self):
        t = make_tree(2, 2, sorted(E1_DEPTH2))
        blob = tree_to_json(t)
        assert blob == {"rank": 2, "radius": 2,
                        "vertices": ["e", "g0", "g1'", "g0 g1", "g1' g0'"]}
        assert tree_from_json(blob) == t

    def test_json_rejects_bad_tree(self):
        with pytest.raises(ValidationError):
            tree_from_json({"rank": 2, "radius": 2, "vertices": ["g0"]})

    def test_writers_reject_a_tree_the_walk_cannot_cover(self):
        # the writers walk from the root, so the constructor refuses the gap
        # before any writer meets it
        gap = [identity(2), parse_word("g0 g1", 2)]
        for build in (lambda: tree_from_words(2, 2, gap),
                      lambda: PointedTree(2, 2, frozenset(map(word_key, gap)))):
            with pytest.raises(ValidationError, match="^missing prefix g0 of vertex g0 g1$"):
                build()

    def test_dot_contains_edges(self):
        t = make_tree(2, 2, sorted(E1_DEPTH2))
        dot = tree_to_dot(t)
        assert '"e" -- "g0" [label="g0"];' in dot
        assert '"g1\'" -- "g1\' g0\'" [label="g0"];' in dot


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 4))
def test_random_trees_are_valid(seed, radius):
    t = random_tree(2, radius, seed)
    assert validate_tree(t.rank, t.radius, t.keys) == []


@pytest.mark.parametrize("seed", range(6))
def test_children_match_parent_links(seed):
    t = random_tree(1 + seed % 3, 4, seed)
    for v in t.vertices:
        below = sorted(word_key(u) for u in t.vertices if u.letters and u.parent == v)
        assert t.child_keys(word_key(v)) == below


def test_children_cost_the_tree_not_the_rank():
    t = make_tree(10**6, 2, ["e", "g0", "g0 g1"])
    start = time.perf_counter()
    kids = [t.child_keys(k) for k in t.keys]
    degrees = t.degrees(t.radius)
    assert time.perf_counter() - start < 0.2
    assert sorted(map(len, kids)) == [0, 1, 1] and sorted(degrees) == [1, 1, 2]


def test_a_huge_radius_costs_nothing():
    start = time.perf_counter()
    t = tree_from_json({"rank": 2, "radius": 10**9, "vertices": ["e", "g0", "g0 g1"]})
    other = make_tree(2, 10**9, ["e", "g0"])
    assert box_distance(t, other) == BoxDistance(1, exact=True)
    assert ball(t, 10**9 - 1).keys == t.keys
    assert act(t, parse_word("g0", 2)).radius == 10**9 - 1
    assert orbit_graph(t, 1, 10**9 - 1).edges == ((0, 1, 1),)
    assert time.perf_counter() - start < 0.2


def test_act_refuses_a_tree_that_is_not_prefix_closed():
    # act walks the tree's edges, so the constructor refuses the gap before act meets it
    keys = keys_of(2, ["e", "g0", "g1 g1"])
    with pytest.raises(ValidationError, match="^missing prefix g1 of vertex g1 g1$"):
        PointedTree(2, 3, keys)


random_trees = st.builds(random_tree, st.integers(1, 3), st.integers(0, 5),
                         st.integers(0, 10**6), st.sampled_from([0.3, 0.6, 0.9]))


def outcome(build, *args):
    """The tree ``build`` returns, or the type and message of its error."""
    try:
        return build(*args)
    except (ValidationError, InvalidGeneratorError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("rank,radius,texts,error,message", [
    (0, 1, ["e"], InvalidGeneratorError, "rank must be >= 1, got 0"),
    (2, -1, ["e"], ValidationError, "radius -1 is negative; vertex e exceeds radius -1"),
    (2, 1, ["g0"], ValidationError, "missing basepoint e; missing prefix e of vertex g0"),
    (2, 2, ["e", "g0 g1"], ValidationError, "missing prefix g0 of vertex g0 g1"),
    (2, 1, ["e", "g0", "g0 g1"], ValidationError, "vertex g0 g1 exceeds radius 1"),
    (2, 0, ["e", "g0", "g0'", "g1", "g1'", "g0 g1"], ValidationError,
     "vertex g0 exceeds radius 0; vertex g0' exceeds radius 0; vertex g1 exceeds radius 0; "
     "and 2 more violations"),
], ids=["rank-0", "radius-negative", "no-basepoint", "missing-prefix", "past-the-radius",
        "more-than-three"])
def test_the_constructor_refuses_what_make_tree_refuses(rank, radius, texts, error, message):
    keys = keys_of(2, texts)  # "e" has key 0 in every rank, even one below 1
    for build, vertices in ((PointedTree, keys), (make_tree, texts)):
        assert outcome(build, rank, radius, vertices) == (error, message)


def test_random_tree_refuses_a_rank_below_one_and_a_negative_radius():
    assert outcome(random_tree, 0, 2, 1) == (InvalidGeneratorError, "rank must be >= 1, got 0")
    assert outcome(random_tree, 2, -1, 1) == (
        ValidationError, "radius -1 is negative; vertex e exceeds radius -1")


@settings(max_examples=100, deadline=None)
@given(random_trees)
@example(random_tree(2, 0, 1))
@example(random_tree(3, 6, 1, fill=0.9))  # past one piece of output
def test_tree_json_prints_what_dumps_json_prints(t):
    pieces = list(tree_json(t))
    assert "".join(pieces) == dumps_json(tree_to_json(t))
    assert all(len(p) <= freegroup._CHUNK + max(map(len, p.split("\n"))) for p in pieces)


@settings(max_examples=60, deadline=None)
@given(random_trees)
def test_walk_renders_and_parses_like_the_sorted_path(t):
    blob = tree_to_json(t)
    assert blob == sorted_tree_json(t)
    assert tree_to_dot(t) == sorted_tree_dot(t)
    assert make_tree(t.rank, t.radius, blob["vertices"]) == t
    assert parse_word_tree(t.rank, t.radius, blob["vertices"]) == t


@settings(max_examples=60, deadline=None)
@given(random_trees, st.randoms(use_true_random=False))
def test_make_tree_reads_children_listed_before_their_parents(t, rng):
    texts = tree_to_json(t)["vertices"]
    early = {text for text in texts if rng.random() < 0.3}
    texts = sorted(early, reverse=True) + [text for text in texts if text not in early]
    assert outcome(make_tree, t.rank, t.radius, texts) == t
    assert outcome(parse_word_tree, t.rank, t.radius, texts) == t


@pytest.mark.parametrize("rank,radius,texts", [
    (2, 2, ["e", "g0", "g0 g0'"]),
    (2, 3, ["e", "g0", "g0 g0'", "g0 g0' g1", "g1"]),
    (2, 2, ["e", "g0", "g0  g1"]),
    (2, 2, ["e", "g0", "g0\tg1"]),
    (2, 2, ["e", "g0", "g0 \tg1", "g0 g1 "]),
    (2, 2, ["e", "g0", "g0 g2"]),
    (2, 2, ["e", "g0", "g0 g2", "g0 x"]),
    (2, 2, ["e", "g0", "g0 x", "g0 g2"]),
    (2, 2, ["e", "g0", "g0", "g0 g1", "g0 g1", "e"]),
    (2, 1, ["e", "e g0"]),
    (2, 1, ["e", " g0"]),
    (0, 1, ["e"]),
    (0, 1, ["g0", "e"]),
    (0, 1, []),
    (-1, -1, []),
], ids=["cancelling-pair", "after-a-cancelled-parent", "two-spaces", "tab", "space-and-tab",
        "out-of-range", "first-error-out-of-range", "first-error-junk", "duplicates",
        "e-as-parent", "leading-space", "rank-0", "rank-0-generator", "rank-0-no-vertices",
        "rank-negative-no-vertices"])
def test_make_tree_reads_texts_after_their_parents_like_parse_word(rank, radius, texts):
    expected = outcome(parse_word_tree, rank, radius, texts)
    assert outcome(make_tree, rank, radius, texts) == expected


def test_a_written_tree_reads_every_vertex_but_the_root_from_its_parent(monkeypatch):
    t = random_tree(3, 5, 4, 0.6)
    read = []
    parse_key = freegroup.parse_key
    monkeypatch.setattr(freegroup, "parse_key",
                        lambda text, rank: read.append(text) or parse_key(text, rank))
    assert tree_from_json(tree_to_json(t)) == t
    assert len(t.keys) > 100 and read == ["e"]


def messy_text(rng: random.Random, v: Word) -> str:
    """A rendering of v with extra whitespace and inserted cancelling pairs."""
    tokens = [letter_str(x) for x in v.letters]
    for _ in range(rng.choice([0, 0, 1, 2])):
        x = rng.choice(signed_letters(v.rank))
        at = rng.randrange(len(tokens) + 1)
        tokens[at:at] = [letter_str(x), letter_str(-x)]
    gaps = [rng.choice([" ", "  ", "\t", " \n "]) for _ in tokens]
    text = "".join(tok + gap for tok, gap in zip(tokens, gaps)) or "e"
    return rng.choice(["", " ", "\t"]) + text


@settings(max_examples=60, deadline=None)
@given(random_trees, st.randoms(use_true_random=False),
       st.sampled_from([None, "g9", "x", "e", "g0''", "g-1"]))
def test_make_tree_parses_messy_text_like_parse_word(t, rng, junk):
    texts = [messy_text(rng, v) for v in t.vertices]
    rng.shuffle(texts)
    if junk is not None:
        at = rng.randrange(len(texts))
        texts[at] = f"{texts[at]} {junk}"
    expected = outcome(parse_word_tree, t.rank, t.radius, texts)
    assert outcome(make_tree, t.rank, t.radius, texts) == expected
    if junk is None:
        assert expected == t


@settings(max_examples=60, deadline=None)
@given(random_trees, st.randoms(use_true_random=False), st.integers(-1, 2), st.booleans())
def test_validate_tree_lists_violations_like_the_sorted_path(t, rng, shallower, foreign):
    vertices = {v for v in t.vertices if rng.random() < 0.8}
    radius = t.radius - shallower
    if foreign:  # a word of another rank has no key in the tree: tree_from_words refuses it
        stranger = Word(t.rank + 1, (t.rank + 1,) * rng.randrange(3))
        words = vertices | {stranger}
        expected = sorted_violations(t.rank, radius, words)
        with pytest.raises(ValidationError) as caught:
            tree_from_words(t.rank, radius, words)
        assert str(caught.value) in expected
        assert str(stranger) in str(caught.value)
    keys = frozenset(map(word_key, vertices))
    assert validate_tree(t.rank, radius, keys) == sorted_violations(t.rank, radius, vertices)
    texts = [str(v) for v in vertices]
    assert (outcome(make_tree, t.rank, radius, texts)
            == outcome(parse_word_tree, t.rank, radius, texts))
    assert outcome(PointedTree, t.rank, radius, keys) == outcome(make_tree, t.rank, radius, texts)


tree_pairs = random_trees.flatmap(lambda t: st.tuples(
    st.just(t),
    st.one_of(st.builds(regrown_tree, st.just(t), st.integers(0, t.radius + 1),
                        st.integers(0, 10**6)),
              st.builds(random_tree, st.just(t.rank), st.integers(0, 5),
                        st.integers(0, 10**6)))))


@settings(max_examples=80, deadline=None)
@given(random_trees, st.randoms(use_true_random=False))
def test_act_matches_left_translation(t, rng):
    for g in rng.sample(sorted(t.vertices, key=Word.sort_key), min(4, len(t.vertices))):
        assert act(t, g) == translated_act(t, g)


@settings(max_examples=80, deadline=None)
@given(random_trees, st.randoms(use_true_random=False))
def test_act_to_a_radius_is_the_ball_of_the_full_rebasing(t, rng):
    for g in rng.sample(sorted(t.vertices, key=Word.sort_key), min(4, len(t.vertices))):
        full = act(t, g)
        for r in range(full.radius + 1):
            assert act(t, g, r) == ball(full, r)
        with pytest.raises(InsufficientDepthError, match="exceeds radius"):
            act(t, g, full.radius + 1)
        with pytest.raises(ValidationError, match="is negative"):
            act(t, g, -1)


@settings(max_examples=80, deadline=None)
@given(tree_pairs)
def test_box_distance_and_witness_match_the_levelwise_oracles(pair):
    t1, t2 = pair
    assert box_distance(t1, t2) == levelwise_box_distance(t1, t2)
    assert separate_witness(t1, t2) == sorted_separate_witness(t1, t2)


@pytest.mark.parametrize("build, error, message", [
    (lambda: ball(parity_tree(2), -1), ValidationError, "ball radius -1 is negative"),
    (lambda: neighborhood(parity_tree(2), 3, []), InsufficientDepthError,
     "neighborhood radius 3 exceeds tree radius 2"),
    (lambda: act(parity_tree(2), Word(3, (1,))), RankMismatchError, "word rank 3 vs tree rank 2"),
    (lambda: orbit_graph(parity_tree(2), -1, 1), ValidationError,
     "step_bound and working_radius must be >= 0"),
])
def test_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message
