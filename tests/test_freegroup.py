import json
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from treeshift.errors import InsufficientDepthError, InvalidGeneratorError, RankMismatchError
from treeshift.freegroup import (
    _token_table,
    BallTable,
    Word,
    ball_json,
    ball_size,
    enumerate_ball,
    enumerate_spheres,
    identity,
    key_base,
    key_texts,
    key_word,
    key_words,
    letter_str,
    multiply,
    parse_key,
    parse_word,
    reduce,
    word_key,
)
import treeshift.freegroup as freegroup
from treeshift.trees import dumps_json

from oracles import brute_ball_words, brute_reduce, parse_word_checked

A, B, Ai, Bi = 1, 2, -1, -2  # g0, g1, g0', g1'


def letters_strategy(rank=2, max_len=12):
    return st.lists(
        st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)]),
        max_size=max_len,
    )


class TestReduce:
    def test_forced_cancellation(self):
        assert reduce([A, Ai], 2) == identity(2)

    def test_inner_cancellation(self):
        # oracle: brute_reduce([A, B, Bi, A]) == (A, A)
        assert brute_reduce([A, B, Bi, A]) == (A, A)
        assert reduce([A, B, Bi, A], 2) == Word(2, (A, A))

    def test_already_reduced(self):
        assert reduce([A, B], 2) == Word(2, (A, B))

    def test_out_of_range_letter(self):
        with pytest.raises(InvalidGeneratorError):
            reduce([3], 2)
        with pytest.raises(InvalidGeneratorError):
            reduce([0], 2)

    @given(letters_strategy())
    def test_matches_brute_force(self, letters):
        assert reduce(letters, 2).letters == brute_reduce(letters)

    @given(letters_strategy())
    def test_idempotent(self, letters):
        w = reduce(letters, 2)
        assert reduce(w.letters, 2) == w


class TestWord:
    def test_rejects_unreduced_construction(self):
        with pytest.raises(ValueError):
            Word(2, (A, Ai))

    def test_hashes_distinct_on_a_ball(self):
        # the letters' own tuple hash confuses g0' with g1' (hash(-1) == hash(-2))
        ball = enumerate_ball(2, 6)
        assert len({hash(w) for w in ball}) == len(ball)

    def test_rendering(self):
        assert str(identity(2)) == "e"
        assert str(Word(2, (A, Bi))) == "g0 g1'"
        for w in [*enumerate_ball(3, 4), parse_word("g0 g99999'", 100_000)]:
            assert str(w) == (" ".join(letter_str(x) for x in w.letters) or "e")
        # the token table holds the letters rendered so far, not the rank's 2 * 10**5
        assert len(freegroup._LETTER_TEXTS) < 1_000

    def test_parse_round_trip(self):
        for text in ("e", "g0", "g1'", "g0 g1 g0'"):
            assert str(parse_word(text, 2)) == text

    def test_parse_range_check(self):
        with pytest.raises(InvalidGeneratorError):
            parse_word("g2", 2)

    @pytest.mark.parametrize("text,rank", [
        ("", 0), ("g0", 0), (" e ", 2), ("g0 e", 2), ("g0 g0' g1", 2), ("g01", 2)])
    def test_parse_matches_token_by_token_parse(self, text, rank):
        try:
            expected = parse_word_checked(text, rank)
        except InvalidGeneratorError as exc:
            with pytest.raises(InvalidGeneratorError, match=re.escape(str(exc))):
                parse_word(text, rank)
        else:
            assert parse_word(text, rank) == expected

    def test_parse_table_holds_only_the_tokens_met(self):
        assert str(parse_word("g5 g7' g5 g0 g0'", 10_001)) == "g5 g7' g5"
        assert sorted(_token_table(10_001)) == ["g0", "g0'", "g5", "g7'"]


class TestMultiplyInvert:
    def test_identity_neutral(self):
        w = Word(2, (A, B))
        assert multiply(w, identity(2)) == w
        assert multiply(identity(2), w) == w

    def test_partial_cancellation(self):
        assert multiply(Word(2, (A, B)), Word(2, (Bi, A))) == Word(2, (A, A))

    def test_inverse_law(self):
        w = Word(2, (A, B, Ai))
        assert multiply(w, w.inverse()) == identity(2)

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatchError):
            multiply(Word(1, (1,)), Word(2, (1,)))

    def test_invert_examples(self):
        assert identity(2).inverse() == identity(2)
        assert Word(2, (A, B)).inverse() == Word(2, (Bi, Ai))

    @given(letters_strategy())
    def test_invert_involution(self, letters):
        w = reduce(letters, 2)
        assert w.inverse().inverse() == w

    @given(letters_strategy(max_len=8), letters_strategy(max_len=8))
    def test_length_bounds(self, l1, l2):
        w1, w2 = reduce(l1, 2), reduce(l2, 2)
        prod = multiply(w1, w2)
        assert abs(len(w1) - len(w2)) <= len(prod) <= len(w1) + len(w2)


class TestEnumerateBall:
    def test_rank1_radius1(self):
        ball = enumerate_ball(1, 1)
        assert [str(w) for w in ball] == ["e", "g0", "g0'"]

    def test_rank2_radius1_count(self):
        assert len(enumerate_ball(2, 1)) == 5

    def test_rank2_radius2_count(self):
        # oracle: brute-force generation plus dedup after reduction
        expected = brute_ball_words(2, 2)
        assert len(expected) == 17
        ball = enumerate_ball(2, 2)
        assert len(ball) == 17
        assert {w.letters for w in ball} == expected

    @pytest.mark.parametrize("rank,radius", [(1, 4), (2, 3), (3, 2)])
    def test_count_formula(self, rank, radius):
        ball = enumerate_ball(rank, radius)
        assert len(ball) == ball_size(rank, radius)
        assert len(set(ball)) == len(ball)

    def test_prefix_property(self):
        small = enumerate_ball(2, 2)
        large = enumerate_ball(2, 3)
        assert large[: len(small)] == small

    def test_canonical_order(self):
        ball = enumerate_ball(2, 2)
        assert ball == sorted(ball, key=Word.sort_key)

    def test_spheres_partition_by_length(self):
        for level, words in enumerate(enumerate_spheres(2, 3)):
            assert all(len(w) == level for w in words)


def ball_oracle(rank, radius, values, token=letter_str):
    """What ``ball_json`` must print: the ball's texts, in canonical order,
    through ``dumps_json``, whose ``sort_keys`` puts them in text order."""
    texts = {" ".join(map(token, w.letters)) or "e": values.get(word_key(w))
             for w in enumerate_ball(rank, radius)}
    return dumps_json({"depth": radius, "values": texts})


# generator names that pass the name rules: some prefix one another, some sort
# on either side of "e", some need escaping or are not ASCII
TRICKY_NAMES = ["a", "ab", "a'b", "d", "E", "ex", "f", "\\", '"q', "q\"", "\u00e9", "\u00e9a",
                "\u5b57", "\U0001f600", "~", "!", "e'x", "t1", "t10", "t1'0"]
NAMES = st.one_of(
    st.sampled_from(TRICKY_NAMES),
    st.text(st.characters(min_codepoint=0x21, blacklist_categories=("Cs",)), min_size=1,
            max_size=3).filter(lambda name: name != "e" and not name.endswith("'")))
SYMBOLS = st.one_of(st.text(max_size=3), st.integers(-5, 300), st.floats())


@st.composite
def named_balls(draw):
    """(rank, radius, values, token): random names, and a random prefix-closed
    set of live keys whose symbols come from a set of distinct symbols."""
    rank = draw(st.integers(1, 3))
    radius = draw(st.integers(0, 4))
    names = draw(st.lists(NAMES, min_size=rank, max_size=rank, unique=True))
    symbols = draw(st.lists(SYMBOLS, min_size=1, max_size=4, unique=True))
    rng = draw(st.randoms(use_true_random=False))
    keep = draw(st.floats(0, 1))
    base, values = key_base(rank), {}
    for w in enumerate_ball(rank, radius):
        k = word_key(w)
        if not k or (k // base in values and rng.random() < keep):
            values[k] = rng.choice(symbols)

    def token(x):
        return names[abs(x) - 1] + ("" if x > 0 else "'")
    return rank, radius, values, token


class TestBallJson:
    @pytest.mark.parametrize("rank,radius", [(1, 4), (2, 3), (3, 2)])
    def test_prints_the_whole_ball_as_dumps_json(self, rank, radius):
        values = {word_key(w): i % 3 for i, w in enumerate(enumerate_ball(rank, radius))}
        assert "".join(ball_json(rank, radius, values)) == ball_oracle(rank, radius, values)

    def test_custom_tokens(self):
        values = dict.fromkeys(range(25), "s")
        out = "".join(ball_json(2, 2, values, lambda x: letter_str(x, prefix="t")))
        assert out == ball_oracle(2, 2, values, lambda x: letter_str(x, prefix="t"))
        texts = [line.split('"')[1] for line in out.splitlines()[3:-2]]
        assert texts[:7] == ["e", "t0", "t0 t0", "t0 t1", "t0 t1'", "t0'", "t0' t0'"]

    @settings(max_examples=300, deadline=None)
    @given(named_balls())
    def test_matches_dumps_json(self, case):
        rank, radius, values, token = case
        out = "".join(ball_json(rank, radius, values, token))
        assert out == ball_oracle(rank, radius, values, token)

    def test_a_word_is_dead_where_its_key_is_missing(self):
        # the keys of e, g0 and g0 g0 are present, whatever their values
        out = "".join(ball_json(1, 2, {0: "", 1: None, 4: 0}))
        assert json.loads(out)["values"] == {
            "e": "", "g0": None, "g0 g0": 0, "g0'": None, "g0' g0'": None}
        assert "".join(ball_json(2, 3, {})) == ball_oracle(2, 3, {})

    @pytest.mark.parametrize("rank,radius,values,name", [
        (2, 7, {0: 1, 1: 0, 5: 1}, "g"),  # dead subtrees six levels deep print by the walk
        (2, 4, {0: 1, 2: 0}, "g" * 300),  # long tokens: only one-level ones print from a list
    ])
    def test_large_dead_subtrees_are_walked(self, rank, radius, values, name):
        def token(x):
            return name + letter_str(x)[1:]
        out = "".join(ball_json(rank, radius, values, token))
        assert out == ball_oracle(rank, radius, values, token)

    def test_deep_rank_one_ball_needs_no_recursion(self):
        # deeper than the recursion limit: g0^n lives to the end, g0'^n to n = 700
        live = [(3 ** n - 1) // 2 for n in range(1201)] + [3 ** n - 1 for n in range(1, 701)]
        values = dict.fromkeys(live, 1)
        assert "".join(ball_json(1, 1200, values)) == ball_oracle(1, 1200, values)


def n0_itinerary(symbols, pre, cycle, depth):
    """``ball_json``'s arguments for what ``itinerary --builtin-n0`` prints."""
    from treeshift.errors import alphabet
    from treeshift.pseudogroup import builtin_n0_shift, itinerary, stream_from_json

    cgs = builtin_n0_shift(alphabet(symbols))
    itin = itinerary(cgs, stream_from_json({"pre": pre, "cycle": cycle}, cgs.base_alphabet),
                     depth)
    names = [pm.name for pm in cgs.positive]

    def token(x):
        return names[abs(x) - 1] + ("" if x > 0 else "'")
    return itin.source_rank, itin.depth, itin.values, token


def consumed(pieces):
    """Take the pieces of ``pieces()`` one at a time under ``tracemalloc``:
    their total length, their longest line, whether no piece passes
    ``_CHUNK`` by more than one line, and the traced peak in bytes."""
    tracemalloc.start()
    try:
        chars = longest = 0
        bounded = True
        for piece in pieces():
            line = max(map(len, piece.split("\n")))
            chars, longest = chars + len(piece), max(longest, line)
            bounded &= len(piece) <= freegroup._CHUNK + line
        return chars, longest, bounded, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBallJsonMemory:
    """``ball_json`` yields pieces of whole lines and caches only small dead
    subtrees, so printing a ball holds about one piece, not the output."""

    MB = 1 << 20

    def test_n0_itinerary_at_depth_11(self):
        args = n0_itinerary(["0", "1"], ["1"], ["0", "1", "1"], 11)
        chars, longest, bounded, peak = consumed(lambda: ball_json(*args))
        assert chars > 20 * self.MB and bounded
        assert peak < self.MB

    def test_rank_one_at_depth_3000(self):
        # lines of about 15 KB: the bound is one piece plus the longest line
        args = n0_itinerary(["0"], [], ["0"], 3000)
        chars, longest, bounded, peak = consumed(lambda: ball_json(*args))
        assert chars == 40_585_552 and bounded
        assert longest > 15_000
        assert peak < self.MB + longest

    def test_one_line_longer_than_a_piece_is_a_piece_of_its_own(self):
        long = "x" * (freegroup._CHUNK + 1)
        pieces = list(freegroup.chunks("[", ["a", long, "b"], ",", "]"))
        assert pieces == ["[a", "," + long, ",b]"]


class TestBallTable:
    """``decode_tree`` and ``itinerary`` return one table class, which
    refuses a word of another rank and a word past its depth with one text
    each, whichever produced it."""

    @pytest.fixture(params=["decode_tree", "itinerary"])
    def table(self, request):
        """A rank-2, depth-1 table from each producer."""
        from treeshift.embed import decode_tree, embed_config, random_encoding
        from treeshift.errors import alphabet
        from treeshift.groups import free_group
        from treeshift.pseudogroup import SymbolStream, builtin_n0_shift, itinerary
        from treeshift.shift import random_config

        bits = alphabet([0, 1])
        if request.param == "itinerary":
            point = SymbolStream.eventually_periodic((), (0, 1))
            return itinerary(builtin_n0_shift(bits), point, 1)
        enc = random_encoding(2, bits, 4, seed=3)
        sigma = random_config(free_group(2), bits, seed=5)
        return decode_tree(embed_config(sigma, enc, 2), enc, 2)

    def test_refusals(self, table):
        assert (type(table), table.source_rank, table.depth) == (BallTable, 2, 1)
        with pytest.raises(RankMismatchError) as caught:
            table.eval_word(Word(3, (1,)))
        assert str(caught.value) == "word rank 3 vs table rank 2"
        with pytest.raises(InsufficientDepthError) as caught:
            table.eval_word(Word(2, (1, 1)))
        assert str(caught.value) == "word g0 g0 lies past the table's depth 1"


class TestKeys:
    @given(st.integers(1, 4).flatmap(
        lambda rank: st.tuples(st.just(rank), letters_strategy(rank, 10))))
    def test_key_and_word_round_trip(self, case):
        rank, letters = case
        w = reduce(letters, rank)
        k = word_key(w)
        assert key_word(k, rank) == w
        assert parse_key(str(w), rank) == k
        assert key_words([k], rank) == {k: w}
        # length <= r exactly when k < B**r
        assert k < key_base(rank) ** len(w)
        assert not w.letters or k >= key_base(rank) ** (len(w) - 1)

    @pytest.mark.parametrize("rank,radius", [(1, 6), (2, 4), (3, 3), (4, 3)])
    def test_numeric_order_is_the_canonical_order(self, rank, radius):
        ball = enumerate_ball(rank, radius)
        keys = [word_key(w) for w in ball]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert max(keys) < key_base(rank) ** radius
        assert list(key_words(keys, rank).values()) == ball
        assert list(key_texts(keys, rank).values()) == [str(w) for w in ball]

    def test_key_texts_name_only_the_letters_used(self, monkeypatch):
        named = []

        def token(x):
            named.append(x)
            return letter_str(x)

        monkeypatch.setattr(freegroup, "letter_str", token)
        keys = sorted(parse_key(text, 10_000) for text in ["e", "g5", "g9999", "g5 g7'"])
        assert list(key_texts(keys, 10_000).values()) == ["e", "g5", "g9999", "g5 g7'"]
        assert sorted(named) == [-8, 6, 10_000]


def reduced_words(rank=2, max_len=8):
    return letters_strategy(rank, max_len).map(lambda letters: reduce(letters, rank))


class TestTrustBoundary:
    """Operations on reduced words skip the public check; their results must
    still pass it."""

    @staticmethod
    def assert_checked(w):
        assert w == Word(w.rank, w.letters)

    @given(reduced_words(), reduced_words())
    def test_multiply_matches_reduce(self, a, b):
        assert multiply(a, b) == reduce(a.letters + b.letters, 2)
        self.assert_checked(multiply(a, b))

    @given(reduced_words(), st.sampled_from([A, Ai, B, Bi]), st.integers(-2, 10))
    def test_results_pass_the_public_check(self, w, letter, k):
        for result in (w.append(letter), w.prefix(k), w.parent, w.inverse(), *w.children()):
            self.assert_checked(result)

    @given(reduced_words(rank=3, max_len=3))
    def test_children_are_the_next_sphere_below(self, w):
        n = len(w) + 1
        below = [u for u in enumerate_ball(3, n) if len(u) == n and u.letters[:-1] == w.letters]
        assert w.children() == below
        assert {c.letters for c in w.children()} == {
            letters for letters in brute_ball_words(3, n)
            if len(letters) == n and letters[:-1] == w.letters}

    @pytest.mark.parametrize("letter", [0, 3, -3])
    def test_append_checks_its_letter(self, letter):
        with pytest.raises(InvalidGeneratorError):
            identity(2).append(letter)

    def test_reduce_checks_rank(self):
        with pytest.raises(InvalidGeneratorError):
            reduce([], 0)
