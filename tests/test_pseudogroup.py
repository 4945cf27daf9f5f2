import functools
import itertools
import math
import re
from operator import attrgetter, is_, itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from treeshift.errors import (ActionUndefinedError, InsufficientDepthError, RankMismatchError,
                             ValidationError, alphabet)
from treeshift.freegroup import Word, enumerate_ball, identity, multiply
from treeshift.shift import Config
from treeshift.groups import free_group
from treeshift.embed import edge_encoding, embed_config, random_encoding
from treeshift.trees import BoxDistance, act, box_distance
from treeshift.pseudogroup import (
    Cylinder,
    CylinderPseudogroup,
    CylinderUnion,
    PartialMap,
    S_EMPTY,
    SymbolStream,
    builtin_n0_shift,
    cgs_from_json,
    cgs_to_json,
    compose_word,
    embed_pseudo,
    inverse_of,
    itinerary,
    partition_faults,
    stream_from_json,
    _minimal,
    validate_cgs,
)

from oracles import pairwise_minimal, union_contains_by_scan, wordwise_partition_faults

BITS = alphabet([0, 1])
N0 = builtin_n0_shift(BITS)
OMEGA = SymbolStream.eventually_periodic((), (0, 1))   # 0 1 0 1 ...
EVERYWHERE = CylinderUnion((Cylinder(()),))

# encoding for the worked example: (1_0, 0)->g0, (1_0, 1)->g1, (1_1, 0)->g2, (1_1, 1)->g3
ENC4 = edge_encoding(2, BITS, 4, {(1, 0): 1, (1, 1): 2, (2, 0): 3, (2, 1): 4})


def wrd(*letters):
    return Word(2, tuple(letters))


class TestBuiltin:
    def test_two_generators_and_partition(self):
        assert len(N0.positive) == 2
        assert validate_cgs(N0) == []

    @pytest.mark.parametrize("symbols,problem", [
        (["0", "0'"], "generators[1].name \"1_0'\" ends in"),
        (["0", " 1"], "generators[1].name '1_ 1' holds a character at or below ' '"),
    ])
    def test_symbols_that_would_merge_words_are_refused(self, symbols, problem):
        with pytest.raises(ValidationError, match=re.escape(problem)):
            builtin_n0_shift(alphabet(symbols))

    def test_a_repeated_name_is_refused(self):
        positive = N0.positive[:1] * 2
        with pytest.raises(ValidationError, match=re.escape("repeats generators[0].name")):
            CylinderPseudogroup(BITS, positive, positive, N0.partition)

    def test_drop_map(self):
        point = SymbolStream.eventually_periodic((0,), (1,))   # 0 1 1 1 ...
        dropped = N0.positive[0].apply(point)
        assert dropped.prefix(3) == (1, 1, 1)

    def test_wrong_cylinder_undefined(self):
        point = SymbolStream.eventually_periodic((0,), (1,))
        assert not N0.positive[1].defined_at(point)
        with pytest.raises(ActionUndefinedError):
            N0.positive[1].apply(point)

    def test_inverse_prepends_everywhere(self):
        inv = N0.negative[0]
        assert inv.domain == EVERYWHERE
        assert inv.apply(OMEGA).prefix(3) == (0, 0, 1)

    def test_errors_show_the_stream(self):
        point = SymbolStream.eventually_periodic((1,), (0, 1))
        shown = "SymbolStream(pre=(1,), cycle=(0, 1))"
        assert repr(point) == shown
        with pytest.raises(ActionUndefinedError, match=re.escape(f"1_0 undefined at {shown}")):
            N0.positive[0].apply(point)
        with pytest.raises(ActionUndefinedError,
                           match=re.escape(f"composite along g0 undefined at {shown}")):
            compose_word(N0, wrd(1)).apply(point)
        foreign = SymbolStream((2,), (0, 1))
        with pytest.raises(ValidationError, match=re.escape(
                f"stream {foreign!r} holds a symbol outside the system's alphabet")):
            itinerary(N0, foreign, 1)

    def test_overlapping_pieces_are_refused(self):
        with pytest.raises(ValidationError, match=re.escape(
                "invalid generating system: cylinder on () met 2 partition pieces")):
            CylinderPseudogroup(BITS, N0.positive, N0.negative,
                                ((0, EVERYWHERE), (1, EVERYWHERE)))

    def test_classify(self):
        assert N0.classify(OMEGA) == 0
        assert N0.classify(OMEGA.rewrite(1, ())) == 1


class TestInverses:
    """Each negative generator is exactly ``inverse_of`` its positive."""

    A = PartialMap("a", CylinderUnion.of([Cylinder(("0", "1"))]), ("0",), (), "a'")
    PIECES = (("0", CylinderUnion.of([Cylinder(("0",))])),
              ("1", CylinderUnion.of([Cylinder(("1",))])))

    def build(self, negative):
        return CylinderPseudogroup(alphabet(["0", "1"]), (self.A,), negative, self.PIECES)

    def test_a_negative_defined_beyond_the_image_is_refused(self):
        # inverse_of(a) lives on C(1) only; a negative on C() would give a' a live
        # value at a point starting with 0, where no composition is defined
        beyond = PartialMap("a'", CylinderUnion.of([Cylinder(())]), (), ("0",), "a")
        with pytest.raises(ValidationError) as caught:
            self.build((beyond,))
        assert str(caught.value) == (
            "invalid generating system: negative generator 0 is not the inverse of a")

    def test_a_hand_built_inverse_is_accepted(self):
        exact = PartialMap("a'", CylinderUnion.of([Cylinder(("1",))]), (), ("0",), "a")
        itin = itinerary(self.build((exact,)), SymbolStream(("0", "0"), ("1",)), 2)
        assert itin.eval_word(Word(1, (-1,))) is S_EMPTY

    def test_each_map_builds_its_inverse_once(self):
        # so the constructor's check reuses the negatives the loaders built
        assert inverse_of(self.A) is inverse_of(self.A)
        assert all(map(is_, N0.negative, map(inverse_of, N0.positive)))

    @pytest.mark.parametrize("negative, problem", [
        ((), "negative generator 0 is not the inverse of a"),
        ((inverse_of(A), inverse_of(A)), "negative generator 1 has no positive"),
        ((PartialMap("b'", inverse_of(A).domain, (), ("0",), "a"),),
         "negative generator 0 is not the inverse of a"),
        ((PartialMap("a'", inverse_of(A).domain, (), ("0",), "b"),),
         "negative generator 0 is not the inverse of a"),
        ((PartialMap("a'", inverse_of(A).domain, (), ("1",), "a"),),
         "negative generator 0 is not the inverse of a"),
    ])
    def test_a_count_a_name_or_a_rewrite_that_differs_is_refused(self, negative, problem):
        with pytest.raises(ValidationError) as caught:
            self.build(negative)
        assert str(caught.value) == "invalid generating system: " + problem


@pytest.mark.parametrize("build, error, message", [
    (lambda: N0.map_for_letter(0), ValidationError, "letter 0 outside the generating family"),
    (lambda: itinerary(N0, OMEGA, 1).eval_word(Word(3, (1,))), RankMismatchError,
     "word rank 3 vs table rank 2"),
    (lambda: itinerary(N0, OMEGA, 1).eval_word(wrd(1, 1)), InsufficientDepthError,
     "word g0 g0 lies past the table's depth 1"),
    (lambda: embed_pseudo(itinerary(N0, OMEGA, 1), ENC4, -1), ValidationError,
     "depth -1 is negative"),
])
def test_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


class TestSymbolStream:
    def test_empty_cycle_rejected(self):
        with pytest.raises(ValidationError):
            SymbolStream.eventually_periodic((0,), ())

    def test_rewrite_past_the_head_rotates_the_cycle(self):
        point = SymbolStream.eventually_periodic((1,), (0, 0, 1))   # 1 0 0 1 0 0 1 ...
        moved = point.rewrite(3, (1, 1))
        assert moved.prefix(8) == (1, 1) + point.prefix(9)[3:]

    def test_ten_thousand_rewrites(self):
        point = OMEGA
        for i in range(10_000):
            s = point.prefix(1)[0]
            if i % 2:
                point = N0.negative[1 - s].apply(point)       # prepend the other symbol
            else:
                point = N0.positive[s].apply(point)           # drop the leading symbol
        assert point.prefix(1)[0] == 0
        assert point.prefix(6) == OMEGA.prefix(6)


class TestComposeWord:
    def test_empty_word_is_identity(self):
        composed = compose_word(N0, identity(2))
        assert composed.domain == EVERYWHERE
        assert composed.apply(OMEGA).prefix(4) == OMEGA.prefix(4)

    def test_single_drop(self):
        composed = compose_word(N0, wrd(1))
        assert composed.domain == CylinderUnion((Cylinder((0,)),))
        assert composed.apply(OMEGA).prefix(3) == (1, 0, 1)

    def test_two_drops_domain(self):
        # oracle: stepwise application over every length-2 prefix
        composed = compose_word(N0, wrd(1, 2))
        expected = set()
        for a in (0, 1):
            for b in (0, 1):
                point = SymbolStream.eventually_periodic((a, b), (0,))
                first = N0.positive[0]
                second = N0.positive[1]
                if first.defined_at(point) and second.defined_at(first.apply(point)):
                    expected.add((a, b))
        assert expected == {(0, 1)}
        assert composed.domain == CylinderUnion((Cylinder((0, 1)),))

    def test_empty_composite(self):
        composed = compose_word(N0, wrd(-1, 2))
        assert composed.domain == CylinderUnion(())
        with pytest.raises(ActionUndefinedError):
            composed.apply(OMEGA)

    def test_matches_stepwise_application(self):
        words = [wrd(*ls) for ls in [(1,), (-1,), (2, -1), (1, 2, 1), (-1, -1), (1, -2)]]
        points = [OMEGA, OMEGA.rewrite(1, ()), SymbolStream.eventually_periodic((1, 1, 0), (0, 1))]
        for g in words:
            composed = compose_word(N0, g)
            for point in points:
                current, alive = point, True
                for x in g.letters:
                    pm = N0.map_for_letter(x)
                    if not pm.defined_at(current):
                        alive = False
                        break
                    current = pm.apply(current)
                assert composed.defined_at(point) == alive
                if alive:
                    assert composed.apply(point).prefix(6) == current.prefix(6)

    def test_unknown_generator(self):
        with pytest.raises(ValidationError):
            compose_word(N0, Word(3, (3,)))


class TestItinerary:
    def test_worked_example_depth_one(self):
        itin = itinerary(N0, OMEGA, 1)
        assert itin.eval_word(identity(2)) == 0
        assert itin.eval_word(wrd(1)) == 1          # drop the 0: starts 1
        assert itin.eval_word(wrd(2)) is S_EMPTY    # not in the 1-cylinder
        assert itin.eval_word(wrd(-1)) == 0         # prepend 0: starts 0
        assert itin.eval_word(wrd(-2)) == 1         # prepend 1: starts 1

    def test_depth_zero(self):
        itin = itinerary(N0, OMEGA, 0)
        assert itin.values == {0: 0}

    def test_propagation(self):
        itin = itinerary(N0, OMEGA, 4)
        assert itin.validate_propagation() == []
        dead = wrd(2)
        for w in enumerate_ball(2, 4):
            if len(w) > len(dead) and w.letters[: len(dead.letters)] == dead.letters:
                assert itin.eval_word(w) is S_EMPTY

    def test_partial_equivariance(self):
        depth = 4
        itin = itinerary(N0, OMEGA, depth)
        for g in enumerate_ball(2, 2):
            if itin.eval_word(g) is S_EMPTY or len(g) == 0:
                continue
            moved = compose_word(N0, g).apply(OMEGA)
            moved_itin = itinerary(N0, moved, depth - len(g))
            for h in enumerate_ball(2, depth - len(g)):
                assert moved_itin.eval_word(h) == itin.eval_word(multiply(g, h))

    def test_distinct_points_separate(self):
        pairs = [
            (SymbolStream.eventually_periodic((), (0, 1)),
             SymbolStream.eventually_periodic((), (0, 0, 1))),
            (SymbolStream.eventually_periodic((1,), (0,)),
             SymbolStream.eventually_periodic((), (0,))),
            (SymbolStream.eventually_periodic((0, 0), (1,)),
             SymbolStream.eventually_periodic((0,), (1,))),
        ]
        for p1, p2 in pairs:
            bound = 2 + 2 + math.lcm(2, 3)   # generous: pre-periods plus joint period
            first_diff = next(i for i in range(bound) if p1.prefix(i + 1)[i] != p2.prefix(i + 1)[i])
            i1 = itinerary(N0, p1, first_diff)
            i2 = itinerary(N0, p2, first_diff)
            assert any(i1.eval_word(w) != i2.eval_word(w) for w in enumerate_ball(2, first_diff))


class TestLiveItinerary:
    # a multi-symbol rewrite system: a maps 01 -> 1, b maps 1 -> 00 on 10 and 11
    STRINGS = cgs_from_json({
        "alphabet": ["0", "1"],
        "generators": [
            {"name": "a", "domain": ["01"], "rewrite": {"consume": "01", "emit": "1"}},
            {"name": "b", "domain": ["10", "11"], "rewrite": {"consume": "1", "emit": "00"}},
        ],
        "partition": {"0": ["0"], "1": ["1"]},
    })

    def test_stores_live_words_only(self):
        cgs = builtin_n0_shift(alphabet(["0", "1"]))
        point = SymbolStream.eventually_periodic(("1", "0"), ("0", "1", "1"))
        itin = itinerary(cgs, point, 9)
        assert len(itin.values) == 1534
        assert all(s is not S_EMPTY for s in itin.values.values())
        assert itin.validate_propagation() == []

    @pytest.mark.parametrize("system", ["n0", "strings"])
    def test_matches_compose_word(self, system):
        cgs = builtin_n0_shift(alphabet(["0", "1"])) if system == "n0" else self.STRINGS
        points = [("", "01"), ("10", "011"), ("0", "1"), ("110", "0100")]
        for pre, cycle in points:
            point = stream_from_json({"pre": list(pre), "cycle": list(cycle)},
                                     cgs.base_alphabet)
            itin = itinerary(cgs, point, 6)
            for w in enumerate_ball(2, 6):
                composed = compose_word(cgs, w)
                expected = (cgs.classify(composed.apply(point))
                            if composed.defined_at(point) else S_EMPTY)
                assert itin.eval_word(w) == expected, (system, pre, cycle, w)


class TestEmbedPseudo:
    def test_worked_example_depth_one(self):
        itin = itinerary(N0, OMEGA, 1)
        result = embed_pseudo(itin, ENC4, 1)
        assert {str(v) for v in result.tree.vertices} == {"e", "g0", "g0'", "g3'"}
        assert result.tree.degrees(0) == [3]
        assert result.tree.degrees(0)[0] <= 2 * N0.generator_count

    def test_depth_zero(self):
        itin = itinerary(N0, OMEGA, 2)
        result = embed_pseudo(itin, ENC4, 0)
        assert {str(v) for v in result.tree.vertices} == {"e"}

    def test_no_empty_symbols_matches_total_embedding(self):
        ones = alphabet([0])
        cgs = builtin_n0_shift(ones)
        enc = edge_encoding(1, ones, 1, {(1, 0): 1})
        point = SymbolStream.eventually_periodic((), (0,))
        itin = itinerary(cgs, point, 3)
        assert all(s is not S_EMPTY for s in itin.values.values())
        via_pseudo = embed_pseudo(itin, enc, 3)
        total = Config(free_group(1), ones, lambda p: 0)
        via_config = embed_config(total, enc, 3)
        assert via_pseudo.tree == via_config.tree

    def test_encoding_over_another_alphabet(self):
        letters = alphabet(["a", "b"])
        enc = edge_encoding(2, letters, 4, {(1, "a"): 1, (1, "b"): 2, (2, "a"): 3, (2, "b"): 4})
        with pytest.raises(ValidationError, match="no table entry"):
            embed_pseudo(itinerary(N0, OMEGA, 1), enc, 1)

    def test_depth_exceeds_itinerary(self):
        itin = itinerary(N0, OMEGA, 1)
        with pytest.raises(InsufficientDepthError, match=re.escape(
                "embedding to depth 2 needs an itinerary of depth >= 2")):
            embed_pseudo(itin, ENC4, 2)

    def test_degree_bound_over_sample(self):
        points = [
            SymbolStream.eventually_periodic((), (0, 1)),
            SymbolStream.eventually_periodic((1, 1), (0,)),
            SymbolStream.eventually_periodic((), (1,)),
            SymbolStream.eventually_periodic((0, 1, 1), (1, 0)),
        ]
        for point in points:
            itin = itinerary(N0, point, 4)
            assert itin.validate_propagation() == []
            tree = embed_pseudo(itin, ENC4, 4).tree
            assert max(tree.degrees(3)) <= 2 * N0.generator_count


class TestTreeEquivariance:
    """The universality theorem checked on trees: rebasing the tree of x at
    the vertex of a word g live at x gives the tree of g.x, to the depth left."""

    def test_n0(self):
        points = [SymbolStream.eventually_periodic(pre, cycle)
                  for pre in [(), (0,), (1,), (0, 1)]
                  for cycle in [(0,), (1,), (0, 1), (1, 1, 0)]]
        assert rebased_cases(N0, ENC4, points, 6) == 144

    def test_multi_symbol_rewrites(self):
        letters = alphabet(["0", "1"])
        enc = edge_encoding(2, letters, 4, {(1, "0"): 1, (1, "1"): 2, (2, "0"): 3, (2, "1"): 4})
        pairs = [("", "01"), ("10", "011"), ("0", "1"), ("110", "0100"), ("", "1"), ("01", "10")]
        points = [SymbolStream.eventually_periodic(tuple(pre), tuple(cycle))
                  for pre, cycle in pairs]
        assert rebased_cases(TestLiveItinerary.STRINGS, enc, points, 6) == 12


def rebased_cases(cgs, enc, points, top: int) -> int:
    """Check, for each point x and each word g with 1 <= |g| <= 2 live at x, that
    x's tree of radius ``top`` rebased at g's vertex is the tree of g.x; count them."""
    count = 0
    for x in points:
        emb = embed_pseudo(itinerary(cgs, x, top), enc, top)
        for g in enumerate_ball(cgs.generator_count, 2):
            composed = compose_word(cgs, g)
            if not g.letters or not composed.defined_at(x):
                continue
            depth = top - len(g)
            moved = embed_pseudo(itinerary(cgs, composed.apply(x), depth), enc, depth)
            assert act(emb.tree, emb.vertex_of[g], depth) == moved.tree, (x, g)
            count += 1
    return count


@st.composite
def generating_systems(draw):
    """The JSON of a system and of 1-3 eventually periodic points; JSON, so a
    falsifying example prints the system whole.

    It has 2-3 symbols, a partition by the first one or two symbols, and 1-2
    generators that consume and emit up to two symbols on domains of prefixes
    up to three long.  Each such rewrite is injective and its negative is
    ``inverse_of`` it, so the constructor accepts every drawn system.
    """
    symbols = ["0", "1", "2"][:draw(st.integers(2, 3))]

    def word(longest, shortest=0):
        return st.lists(st.sampled_from(symbols), min_size=shortest, max_size=longest).map("".join)

    prefixes = [s + t for s in symbols for t in ([""] if draw(st.booleans()) else symbols)]
    dealt = [draw(st.sampled_from(symbols)) for _ in prefixes]
    generators = []
    for name in ["a", "b"][:draw(st.integers(1, 2))]:
        consume = draw(word(2))
        domain = st.one_of(word(3), word(1).map(consume.__add__))
        generators.append({"name": name, "domain": draw(st.lists(domain, min_size=1, max_size=2)),
                           "rewrite": {"consume": consume, "emit": draw(word(2))}})
    system = {
        "alphabet": symbols,
        "generators": generators,
        "partition": {s: [p for p, d in zip(prefixes, dealt) if d == s] for s in symbols},
    }
    points = draw(st.lists(st.fixed_dictionaries({"pre": word(3).map(list),
                                                  "cycle": word(3, 1).map(list)}),
                           min_size=1, max_size=3))
    return system, points


def load_system(case):
    system, points = case
    cgs = cgs_from_json(system)
    return cgs, [stream_from_json(p, cgs.base_alphabet) for p in points]


@settings(max_examples=60, deadline=None)
@given(generating_systems())
def test_random_system_itinerary_matches_compose_word(case):
    cgs, points = load_system(case)
    words = enumerate_ball(cgs.generator_count, 4)
    composed = list(map(functools.partial(compose_word, cgs), words))
    for x in points:
        itin = itinerary(cgs, x, 4)
        for w, c in zip(words, composed):
            assert itin.eval_word(w) == (cgs.classify(c.apply(x)) if c.defined_at(x) else S_EMPTY)


@settings(max_examples=60, deadline=None)
@given(generating_systems(), st.integers(0, 2**16))
def test_random_system_trees_are_partially_equivariant(case, seed):
    cgs, points = load_system(case)
    rank, symbols = cgs.generator_count, cgs.symbols
    enc = random_encoding(rank, symbols, rank * len(symbols), seed)
    rebased_cases(cgs, enc, points, 4)


@st.composite
def agreeing_points(draw, symbols):
    """Two eventually periodic points as JSON: a drawn prefix of up to eight
    symbols that both share, then a tail of each drawn on its own."""
    def word(longest, shortest=0):
        return st.lists(st.sampled_from(symbols), min_size=shortest, max_size=longest)

    shared = draw(word(8))
    return [{"pre": shared + draw(word(3)), "cycle": draw(word(3, 1))} for _ in range(2)]


def agreement(x: SymbolStream, y: SymbolStream) -> int | None:
    """How many leading symbols two points share, or None if they are equal.
    Past both pre-periods each repeats with the lcm of the cycles, so a
    difference shows within that many more symbols or never."""
    n = max(len(x.pre), len(y.pre)) + math.lcm(len(x.cycle), len(y.cycle))
    return next((i for i, (a, b) in enumerate(zip(x.prefix(n), y.prefix(n))) if a != b), None)


def tree_distance(cgs, enc, points, depth):
    x, y = (stream_from_json(p, cgs.base_alphabet) for p in points)
    trees = [embed_pseudo(itinerary(cgs, p, depth), enc, depth).tree for p in (x, y)]
    return agreement(x, y), box_distance(*trees)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([["0", "1"], ["0", "1", "2"]]).flatmap(
    lambda symbols: st.tuples(st.just(symbols), agreeing_points(symbols))),
    st.integers(1, 5), st.integers(0, 2**16))
def test_n0_trees_are_as_far_apart_as_their_points(case, depth, seed):
    """Under the one-sided shift, points that first differ at symbol i get
    trees at exact(i) when i < D, and at-least(D) otherwise.

    A drop removes a leading symbol and a prepend adds one at both points,
    and liveness and pieces read one symbol.  So along a reduced word of
    length at most i the points share a symbol at every step, and read
    alike, except at the end of the word of x's first i drops, where x reads
    its symbol i and y its own.  Only the edges that leave that vertex by a
    drop read it, at radius i + 1, where x has the drop of its symbol and y
    the drop of another.
    """
    symbols, points = case
    cgs = builtin_n0_shift(alphabet(symbols))
    enc = random_encoding(len(symbols), cgs.symbols, len(symbols) ** 2, seed)
    i, distance = tree_distance(cgs, enc, points, depth)
    assert distance == (BoxDistance(i, exact=True) if i is not None and i < depth
                        else BoxDistance(depth, exact=False))


@settings(max_examples=100, deadline=None)
@given(generating_systems().flatmap(
    lambda case: st.tuples(st.just(case), agreeing_points(case[0]["alphabet"]))),
    st.integers(0, 2**16))
def test_random_system_trees_agree_while_their_points_do(cases, seed):
    """Points that agree on their first N symbols get depth-D trees at
    distance r >= min(D, floor((N - reach) / c)).

    c is the longest consume or emit of a positive generator, so of any
    generator's consume, as a negative consumes its positive's emit; reach is
    the longest prefix of a domain, a negative's domain (an image) or a
    partition piece.  Points that agree on their first ``reach`` symbols lie
    in the same domains and pieces, and a step that is live at both removes
    at most c of the symbols they share and puts the same symbols in front.
    So after m <= J = floor((N - reach) / c) steps along a word they still
    share N - m*c >= reach symbols: each word of the radius-J ball is live at
    both or at neither, in the same piece, and the trees' radius-J balls,
    whose edges read the symbols at their ends, are equal.  With c = 0 no
    step moves a point, and N >= reach gives equal trees at any depth.
    Counting one step less, floor((N - reach + 1) / c), is too much.
    """
    (system, _), points = cases
    cgs = cgs_from_json(system)
    depth, rank, symbols = 4, cgs.generator_count, cgs.symbols
    enc = random_encoding(rank, symbols, rank * len(symbols), seed)
    c = max(len(s) for pm in cgs.positive for s in (pm.consume, pm.emit))
    unions = [pm.domain for pm in cgs.positive + cgs.negative] + [u for _, u in cgs.partition]
    reach = max(len(part.prefix) for union in unions for part in union.parts)
    n, distance = tree_distance(cgs, enc, points, depth)
    if n is None or c == 0 and n >= reach:
        assert distance == BoxDistance(depth, exact=False)
    elif c:
        assert distance.r >= min(depth, (n - reach) // c)


class TestJson:
    def test_round_trip_builtin(self):
        blob = cgs_to_json(N0)
        again = cgs_from_json(blob)
        assert validate_cgs(again) == []
        assert [pm.name for pm in again.positive] == ["1_0", "1_1"]
        itin = itinerary(again, OMEGA, 1)
        assert itin.eval_word(wrd(1)) == 1

    def test_spec_shaped_input(self):
        blob = {
            "alphabet": ["0", "1"],
            "generators": [
                {"name": "1_0", "domain": [["0"]], "rewrite": {"consume": "0", "emit": ""}},
                {"name": "1_1", "domain": [["1"]], "rewrite": {"consume": "1", "emit": ""}},
            ],
            "partition": {"0": [["0"]], "1": [["1"]]},
        }
        cgs = cgs_from_json(blob)
        assert validate_cgs(cgs) == []
        point = stream_from_json({"pre": [], "cycle": ["0", "1"]}, cgs.base_alphabet)
        itin = itinerary(cgs, point, 1)
        assert itin.eval_word(Word(2, (1,))) == "1"

    def test_bad_partition_rejected(self):
        blob = cgs_to_json(N0)
        blob["partition"] = {"0": [["0"]], "1": [["0"]]}
        with pytest.raises(ValidationError):
            cgs_from_json(blob)


@st.composite
def partitions(draw):
    """An alphabet of 2-3 symbols and a partition of prefixes of length <= 5:
    a complete prefix code, split at random leaves, then perhaps broken by
    dropping, repeating, lengthening or adding a prefix, or adding one that
    ends in a symbol outside the alphabet, and dealt to 1-3 pieces."""
    symbols = tuple(range(draw(st.integers(2, 3))))
    prefixes = [()]
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(prefixes) - 1))
        if len(prefixes[i]) < 5:
            prefixes[i:i + 1] = [prefixes[i] + (s,) for s in symbols]
    word = st.lists(st.sampled_from(symbols), max_size=5).map(tuple)
    changes = ["drop", "repeat", "lengthen", "add", "foreign"]
    for change in draw(st.lists(st.sampled_from(changes), max_size=2)):
        i = draw(st.integers(0, len(prefixes) - 1))
        if change == "drop" and len(prefixes) > 1:
            del prefixes[i]
        elif change == "repeat":
            prefixes.append(prefixes[i])
        elif change == "lengthen":
            prefixes[i] = (prefixes[i] + draw(word))[:5]
        elif change == "add":
            prefixes.append(draw(word))
        elif change == "foreign":
            prefixes.append(draw(word)[:4] + (len(symbols),))
    pieces = draw(st.integers(1, 3))
    dealt = [draw(st.integers(0, pieces - 1)) for _ in prefixes]
    return symbols, tuple(
        (p, CylinderUnion(tuple(Cylinder(q) for q, d in zip(prefixes, dealt) if d == p)))
        for p in range(pieces))


@settings(max_examples=300, deadline=None)
@given(partitions())
def test_partition_trie_accepts_what_the_wordwise_check_accepts(case):
    symbols, partition = case
    expected = wordwise_partition_faults(partition, symbols)
    system = SimpleNamespace(positive=(), negative=(), partition=partition,
                             base_alphabet=alphabet(symbols))
    assert (validate_cgs(system) == []) == (expected == [])
    # each word the wordwise check flags lies in exactly one reported cylinder, a
    # gap where no cylinder meets it and an overlap where two or more do
    faults = list(partition_faults(partition, symbols))
    depth = max((len(c.prefix) for _, union in partition for c in union.parts), default=0)
    for w in itertools.product(symbols, repeat=depth):
        under = [met for prefix, met in faults if w[: len(prefix)] == prefix]
        covers = dict(expected).get(w, 1)
        assert len(under) == (covers != 1)
        assert all((met == 0) == (covers == 0) and met <= covers for met in under)



@settings(max_examples=300, deadline=None)
@given(partitions(), st.data())
def test_contains_by_prefix_lookup_matches_the_scan(case, data):
    # the pieces of a drawn partition, normalized or not, at a stream over the
    # alphabet; a piece may hold a prefix twice, or a prefix and its extension
    symbols, partition = case
    symbol = st.sampled_from(symbols)
    stream = SymbolStream(tuple(data.draw(st.lists(symbol, max_size=6))),
                          tuple(data.draw(st.lists(symbol, min_size=1, max_size=3))))
    for _, union in partition:
        expected = union_contains_by_scan(union, stream)
        assert union.contains(stream) == expected
        assert CylinderUnion.of(union.parts).contains(stream) == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_minimal_by_prefix_lookup_matches_the_pairwise_scan(data):
    # 2-3 symbols, ints or strings; prefixes of length 0-5, repeats included
    symbols = data.draw(st.sampled_from([(0, 1), (0, 1, 2), ("a", "b"), ("0", "1", "2")]))
    prefix = st.lists(st.sampled_from(symbols), max_size=5).map(tuple)
    prefixes = data.draw(st.lists(prefix, max_size=12))
    cylinders = [Cylinder(p) for p in prefixes]
    assert _minimal(cylinders, attrgetter("prefix")) == pairwise_minimal(
        cylinders, attrgetter("prefix"))
    # compose_word's (domain prefix, image prefix) pieces: one image per domain prefix
    images = {p: data.draw(prefix) for p in prefixes}
    pieces = [(p, images[p]) for p in prefixes]
    assert _minimal(pieces, itemgetter(0)) == pairwise_minimal(pieces, itemgetter(0))
