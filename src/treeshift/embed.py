"""Embedding shift configurations into the space of pointed trees.

The embedding walks the source ball level by level.  A word w2 = w1 h of
length j extends the vertex of w1 by one target letter:

*  h positive: append the encoding of (h, symbol at w1);
*  h negative: append the inverse of the encoding of (h^-1, symbol at w2).

Injectivity of the encoding table rules out cancellations, so every source
word of length j lands on a vertex at distance exactly j, and the image of
the radius-j ball is the radius-j ball of the image tree.

The decoder reverses this: a vertex entered through an inverse letter
reveals its own symbol immediately, while a vertex entered through a
positive letter reads its symbol off any outward positive continuation
(all of them, and the entering edge of an inverse step, must agree).
A radius-j tree therefore carries the symbols on words of length at most
j - 1, which decoding recovers, and on the last sphere's words entered
through an inverse letter, and no others (:func:`_run_embedding`).

Both walks carry each source word as its :mod:`freegroup` key, as trees do
their vertices; a ``Word`` is built only where a user's rule reads one (a
free group's walk state) or where one leaves (errors, ``vertex_of``).
"""
from __future__ import annotations

import random
from functools import cached_property
from itertools import chain, islice
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from .errors import (
    ActionUndefinedError,
    Alphabet,
    ConsistencyError,
    InsufficientDepthError,
    NotInImageError,
    RankMismatchError,
    ValidationError,
    json_field,
    json_int,
    json_kind,
)
from .freegroup import (
    BallTable,
    Word,
    ball_size,
    digit_letter,
    identity,
    inverse_digit,
    key_base,
    key_word,
    key_words,
    letter_digit,
    letter_str,
    signed_letters,
)
from .trees import BoxDistance, PointedTree, _tree, act, box_distance, first_difference

if TYPE_CHECKING:
    from .shift import Config


class EdgeEncoding:
    """Injective table (source generator, symbol) -> positive target generator.

    Drives the embedding: the table must be total on the source generators
    times the alphabet, injective, and fit inside the target rank, which
    forces target_rank >= source_rank * len(alphabet).  The constructor
    refuses any table :func:`validate_alpha` finds fault with.
    """

    def __init__(self, source_rank: int, alphabet: Alphabet, target_rank: int,
                 entries: tuple[tuple[int, Any, int], ...]) -> None:
        self.source_rank = source_rank
        self.alphabet = alphabet
        self.target_rank = target_rank
        self.entries = entries
        problems = validate_alpha(self)
        if problems:
            raise ValidationError("invalid encoding: " + "; ".join(problems))

    @cached_property
    def _forward(self) -> dict[tuple[int, Any], int]:
        return {(g, s): t for g, s, t in self.entries}

    @cached_property
    def _backward(self) -> dict[int, tuple[int, Any]]:
        return {t: (g, s) for g, s, t in self.entries}

    def encode(self, generator: int, symbol) -> int:
        try:
            return self._forward[(generator, symbol)]
        except KeyError:
            raise ValidationError(
                f"no table entry for generator t{generator - 1} and symbol {symbol!r}") from None

    def decode(self, target_letter: int) -> tuple[int, Any]:
        try:
            return self._backward[target_letter]
        except KeyError:
            raise NotInImageError(
                f"edge label {letter_str(target_letter)} is not in the encoding's range") from None


def edge_encoding(source_rank: int, alphabet: Alphabet, target_rank: int,
                  table: Mapping[tuple[int, Any], int]) -> EdgeEncoding:
    entries = tuple(sorted(
        ((g, s, t) for (g, s), t in table.items()),
        key=lambda e: (e[0], _symbol_order(alphabet, e[1]))))
    return EdgeEncoding(source_rank, alphabet, target_rank, entries)


def _symbol_order(alphabet: Alphabet, symbol) -> int:
    try:
        return alphabet.index(symbol)
    except ValidationError:
        return len(alphabet)


def validate_alpha(enc: EdgeEncoding) -> list[str]:
    """What the ``EdgeEncoding`` constructor refuses; empty means usable."""
    violations = []
    m = len(enc.alphabet)
    if enc.target_rank < enc.source_rank * m:
        violations.append(
            f"target rank {enc.target_rank} below source_rank*alphabet = {enc.source_rank * m}")
    seen_pairs = set()
    seen_targets: dict[int, tuple] = {}
    for g, s, t in enc.entries:
        if not 1 <= g <= enc.source_rank:
            violations.append(f"source generator t{g - 1} out of range")
        if s not in enc.alphabet:
            violations.append(f"symbol {s!r} not in the alphabet")
        if not 1 <= t <= enc.target_rank:
            violations.append(f"target generator {letter_str(t)} out of range")
        if (g, s) in seen_pairs:
            violations.append(f"duplicate entry for (t{g - 1}, {s!r})")
        seen_pairs.add((g, s))
        if t in seen_targets and seen_targets[t] != (g, s):
            violations.append(
                f"not injective: {letter_str(t)} assigned to both {seen_targets[t]} and {(g, s)}")
        seen_targets.setdefault(t, (g, s))
    # there can be M times the alphabet missing pairs, whatever the table's size: list
    # three, then count the rest from the table
    missing = ((g, s) for g in range(1, enc.source_rank + 1) for s in enc.alphabet
               if (g, s) not in seen_pairs)
    violations += [f"missing entry for (t{g - 1}, {s!r})" for g, s in islice(missing, 3)]
    if next(missing, None):
        present = sum(1 for g, s in seen_pairs if 1 <= g <= enc.source_rank and s in enc.alphabet)
        violations.append(f"and {enc.source_rank * m - present - 3} more missing entries")
    return violations


def random_encoding(source_rank: int, alphabet: Alphabet, target_rank: int,
                    seed: int) -> EdgeEncoding:
    """Seeded random injective table (target_rank must be large enough)."""
    need = source_rank * len(alphabet)
    if target_rank < need:
        raise ValidationError(f"target rank {target_rank} below {need}")
    rng = random.Random(seed)
    targets = rng.sample(range(1, target_rank + 1), need)
    table = {}
    i = 0
    for g in range(1, source_rank + 1):
        for s in alphabet:
            table[(g, s)] = targets[i]
            i += 1
    return edge_encoding(source_rank, alphabet, target_rank, table)


def encoding_to_json(enc: EdgeEncoding) -> dict:
    return {
        "M": enc.source_rank,
        "alphabet": list(enc.alphabet.symbols),
        "n": enc.target_rank,
        "table": {f"t{g - 1},{s}": f"g{t - 1}" for g, s, t in enc.entries},
    }


def encoding_from_json(obj: dict, alphabet: Alphabet | None = None) -> EdgeEncoding:
    declared = Alphabet(tuple(json_kind(json_field(obj, "alphabet", "encoding"), list,
                                        "encoding.alphabet")))
    if alphabet is None:
        alphabet = declared
    elif len(alphabet) != len(declared) or any(
            str(a) != str(b) for a, b in zip(alphabet.symbols, declared.symbols)):
        raise ValidationError(
            f"encoding alphabet {declared.symbols} does not match {alphabet.symbols}")
    source_rank = json_int(obj, "M", "encoding")
    target_rank = json_int(obj, "n", "encoding")
    table = {}
    for key, value in json_kind(json_field(obj, "table", "encoding"), dict,
                                "encoding.table").items():
        gen_text, _, sym_text = key.partition(",")
        if not (gen_text.startswith("t") and gen_text[1:].isdecimal()):
            raise ValidationError(f"table key {key!r} must look like 't0,<symbol>'")
        g = int(gen_text[1:]) + 1
        s = alphabet.match(sym_text)
        if not (isinstance(value, str) and value.startswith("g") and value[1:].isdecimal()):
            raise ValidationError(f"table value {value!r} must look like 'g0'")
        table[(g, s)] = int(value[1:]) + 1
    return edge_encoding(source_rank, alphabet, target_rank, table)


class Embedding:
    """A depth-j image tree with the source-word-to-vertex bijection.

    ``vertex_keys`` pairs the key of each source word (of rank
    ``source_rank``) with the key of its vertex, in canonical order;
    ``vertex_of`` is the same bijection between ``Word``s, built when
    first read.
    """

    def __init__(self, tree: PointedTree, vertex_keys: tuple[tuple[int, int], ...],
                 source_rank: int) -> None:
        self.tree = tree
        self.vertex_keys = vertex_keys
        self.source_rank = source_rank

    @cached_property
    def vertex_of(self) -> dict[Word, Word]:
        sources = key_words([s for s, _ in self.vertex_keys], self.source_rank)
        targets = key_words(self.tree.sorted_keys, self.tree.rank)
        return {sources[s]: targets[k] for s, k in self.vertex_keys}


def _run_embedding(source_rank: int, depth: int, root: tuple[Any, Any],
                   step: Callable[[Any, int], tuple[Any, Any]], enc: EdgeEncoding) -> Embedding:
    """Level-synchronous recursion shared by the total and partial embeddings.

    Each source word is a key with a symbol and a walk state: ``root`` is the
    ``(symbol, state)`` of the empty word and ``step(state, x)`` that of w·x
    from the state of w.  A symbol None skips the word (an undefined
    itinerary entry) and prunes its whole subtree.  Each edge's target digit
    is read from a ``(letter, symbol)`` table: a positive letter reads the
    parent's symbol, a negative one the child's.  So no edge reads the symbol
    of a last-sphere word entered through a positive letter, and a ``step``
    marked ``checked``, which only fetches a symbol checked in advance
    (:meth:`Config.walk`), is not run there.  Every other ``step`` runs once
    per child of a kept word, so callers need no cache.

    No check is needed on the result, because ``EdgeEncoding`` refuses a
    table that is not injective.  The target letter of a source letter x is
    sign(x) times the table's entry for (|x|, symbol), so the target letters
    of x and y cancel only when |x| = |y| with opposite signs: only when
    x = -y, the back-step the loop skips.  And each target letter decodes to
    one source letter, so distinct source words land on distinct vertices.
    """
    root_symbol, root_state = root
    if root_symbol is None:
        raise ValidationError("the empty word carries no symbol; nothing to embed")
    base, source_base = key_base(enc.target_rank), key_base(source_rank)
    source_digits = [(x, letter_digit(x)) for x in signed_letters(source_rank)]
    digits = {}
    for g, s, t in enc.entries:
        digits[g, s], digits[-g, s] = letter_digit(t), letter_digit(-t)
    placed = [(0, 0)]
    frontier = [(0, root_symbol, root_state, 0)]
    for level in range(1, depth + 1):
        nxt = []
        last = level == depth  # its words are never extended: keep no states
        skip = last and getattr(step, "checked", False)
        for source_key, parent_symbol, parent_state, parent_key in frontier:
            back_source = inverse_digit(source_key % source_base)
            for x, source_digit in source_digits:
                if source_digit == back_source:
                    continue
                if not skip or x < 0:
                    child_symbol, child_state = step(parent_state, x)
                    if child_symbol is None:
                        continue
                symbol = parent_symbol if x > 0 else child_symbol
                try:
                    digit = digits[x, symbol]
                except KeyError:
                    enc.encode(abs(x), symbol)  # raises: no table entry
                    raise
                child = source_key * source_base + source_digit
                key = parent_key * base + digit
                placed.append((child, key))
                if not last:
                    nxt.append((child, child_symbol, child_state, key))
        frontier = nxt
    keys = frozenset(k for _, k in placed)
    return Embedding(_tree(enc.target_rank, depth, keys), tuple(placed), source_rank)


def embed_config(sigma: Config, enc: EdgeEncoding, depth: int) -> Embedding:
    """Embed a configuration as a pointed tree of radius depth.

    The configuration may live on any group model on the encoding's source
    rank of generators; its tree is that of its pullback to the free group
    (``groups.induced_config``).  The symbols are read by walking the group,
    one generator step per source word (:meth:`Config.walk`), and a
    pullback walks the group of the configuration it pulls back.
    """
    if depth < 0:
        raise ValidationError(f"depth {depth} is negative")
    if sigma.group.generator_count != enc.source_rank:
        raise ValidationError(
            f"embed_config needs a configuration on the encoding's {enc.source_rank} "
            f"source generators; its group has {sigma.group.generator_count}")
    root, step = sigma.walk()
    return _run_embedding(enc.source_rank, depth, root, step, enc)


def decode_tree(tree: PointedTree | Embedding, enc: EdgeEncoding, depth: int) -> BallTable:
    """Invert the embedding on a radius-depth ball of an image tree: the
    symbols on every word of length <= depth - 1."""
    if isinstance(tree, Embedding):
        tree = tree.tree
    if tree.rank != enc.target_rank:
        raise RankMismatchError(f"tree rank {tree.rank} vs encoding target {enc.target_rank}")
    if depth < 1:
        raise ValidationError("decoding needs depth >= 1")
    if depth > tree.radius:
        raise InsufficientDepthError(f"decode depth {depth} exceeds tree radius {tree.radius}")
    source_rank = enc.source_rank
    base, source_base = key_base(tree.rank), key_base(source_rank)
    lam = {0: 0}  # tree key -> key of the source word it decodes to
    values: dict[int, Any] = {}  # source key -> symbol
    frontier = [0]
    for _ in range(depth):
        if not frontier:
            break
        nxt = []
        for v in frontier:
            wv = lam[v]
            back = inverse_digit(wv % source_base)
            for u in tree.child_keys(v):
                x = digit_letter(u % base)
                gen, sym = enc.decode(abs(x))
                digit = letter_digit(gen if x > 0 else -gen)
                wu = wv // source_base if digit == back else wv * source_base + digit
                reader = wv if x > 0 else wu  # the word whose symbol the edge label carries
                if values.setdefault(reader, sym) != sym:
                    raise ConsistencyError(
                        f"conflicting symbols {values[reader]!r} and {sym!r} at "
                        f"{key_word(reader, source_rank)} (edge {_edge(tree, v, u)})")
                if digit == back:
                    raise ConsistencyError(
                        f"edge {_edge(tree, v, u)} folds back; not an image tree")
                lam[u] = wu
                nxt.append(u)
        frontier = nxt
    if len(set(lam.values())) != len(lam):
        raise ConsistencyError("decoded vertex words collide; not an image tree")
    limit = source_base ** (depth - 1)
    known = {k: s for k, s in values.items() if k < limit}
    if len(known) != ball_size(source_rank, depth - 1):
        w = key_word(_first_missing(known, source_rank, limit), source_rank)
        raise ConsistencyError(f"cannot read the symbol at {w}: no vertex decodes to it, "
                               "or none that does has an outward positive continuation")
    return BallTable(source_rank, depth - 1, enc.alphabet, known)


def _first_missing(keys: Mapping[int, Any], rank: int, limit: int) -> int:
    """The smallest key below ``limit`` of a reduced word that ``keys``
    lacks, where one is missing.  Its parent's key is smaller, so present:
    the key is 0 or the first missing child met over the keys in ascending
    order."""
    base = key_base(rank)
    children = (k * base + d for k in sorted(keys) for d in range(1, base)
                if d != inverse_digit(k % base))
    return next(k for k in chain((0,), children) if k < limit and k not in keys)


def _edge(tree: PointedTree, v: int, u: int) -> str:
    return f"{key_word(v, tree.rank)} -> {key_word(u, tree.rank)}"


class EquivarianceReport:
    """Outcome of one single-generator equivariance check.

    For an inverse generator the adopted witness reads the symbol at the
    generator itself; the variant reading the symbol at the identity is
    evaluated alongside and recorded, never silently merged.
    """

    def __init__(self, generator: int, depth: int, clause: str, witness: Word,
                 ball_equal: bool, alternate_witness: Word | None = None,
                 alternate_defined: bool | None = None,
                 alternate_equal: bool | None = None) -> None:
        self.generator = generator
        self.depth = depth
        self.clause = clause
        self.witness = witness
        self.ball_equal = ball_equal
        self.alternate_witness = alternate_witness
        self.alternate_defined = alternate_defined
        self.alternate_equal = alternate_equal


def check_equivariance(sigma: Config, enc: EdgeEncoding, letters: Iterable[int],
                       depth: int) -> tuple[EquivarianceReport, ...]:
    """Compare embed(shift(sigma, h)) with the rebasing of embed(sigma), for
    each source letter h of ``letters``.

    sigma is embedded once, at radius depth; each side of a comparison is a
    radius depth - 1 tree.  A report says whether the two coincide, and for
    an inverse generator also how the identity-symbol variant of the witness
    fared.
    """
    if depth < 1:
        raise ValidationError("equivariance checks need depth >= 1")
    source_rank = enc.source_rank
    base = embed_config(sigma, enc, depth).tree
    sym_at_identity = sigma.eval_word(identity(source_rank))
    reports = []
    for h in letters:
        step = Word(source_rank, (h,))
        shifted = embed_config(sigma.shifted(step), enc, depth - 1).tree
        if h > 0:
            witness = Word(enc.target_rank, (enc.encode(h, sym_at_identity),))
            _, equal = _rebases_to(base, witness, shifted)
            reports.append(EquivarianceReport(h, depth, "positive", witness, equal))
            continue
        witness = Word(enc.target_rank, (-enc.encode(-h, sigma.eval_word(step)),))
        _, equal = _rebases_to(base, witness, shifted)
        alternate = Word(enc.target_rank, (-enc.encode(-h, sym_at_identity),))
        if alternate == witness:
            alt_defined, alt_equal = True, equal
        else:
            alt_defined, alt_equal = _rebases_to(base, alternate, shifted)
        reports.append(EquivarianceReport(h, depth, "negative", witness, equal,
                                          alternate_witness=alternate,
                                          alternate_defined=alt_defined,
                                          alternate_equal=alt_equal))
    return tuple(reports)


def _rebases_to(tree: PointedTree, witness: Word, target: PointedTree) -> tuple[bool, bool]:
    """Whether ``witness`` is a vertex of ``tree``, and whether the tree
    rebased there is ``target``."""
    try:
        moved = act(tree, witness)
    except ActionUndefinedError:
        return False, False
    return True, moved.keys == target.keys


def separate_witness(t1: PointedTree, t2: PointedTree) -> Word | None:
    """A rebasing word that blows a known discrepancy up to distance 1.

    Returns the length-r prefix of the canonically first vertex in the
    symmetric difference one level past the agreement radius r, or None
    when the trees agree to their common depth.
    """
    first = first_difference(t1, t2)
    if first is None:
        return None
    g = key_word(first, t1.rank).parent
    # |g| < both radii; distance exact(0) is decided by the radius-1 balls alone
    rebased = box_distance(act(t1, g, 1), act(t2, g, 1))
    if rebased != BoxDistance(0, exact=True):
        raise ConsistencyError(f"witness {g} failed to separate: {rebased}")
    return g
