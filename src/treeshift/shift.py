"""Shift configurations over a group model: lazy oracles, the right shift
action, and agreement depth.

A configuration is never materialized: it is a pure rule evaluated on
canonical payloads, together with an accumulated translate implementing
the right action (sigma . gamma)(x) = sigma(gamma x).

``random_config`` reads the symbol at a payload from the 8-byte ``blake2b``
of ``f"{seed}|{text}"``, ``text`` being ``str`` of a word and ``repr`` of any
other payload.  On a free group its rule also steps that hash along
:meth:`Config.walk`: a word's hasher is a copy of its parent's fed one more
token, so no word's text is rebuilt, and the bytes hashed are the same.
``finite_support_config`` and ``flipped_config`` lay a table of payloads
over a rule, a constant one for a finite support; on a free group the walk
reads that table at each word's key, carried next to the rule's own state.
A pullback (``groups.induced_config``) takes its configuration's own walk,
one step of that group per word.  Every other rule, and
``eval``/``eval_word`` on any rule, reads one payload at a time.
"""
from __future__ import annotations

import random
from functools import lru_cache
from typing import Any, Callable

from .errors import (Alphabet, GroupMismatchError, ValidationError, Value, is_int, json_field,
                     json_kind)
from .errors import alphabet  # noqa: F401  kept here: bench/ imports treeshift.shift.alphabet
from .freegroup import (Word, inverse_digit, key_base, letter_digit, letter_str, parse_word,
                        signed_letters, word_key)


class Config:
    """A lazily evaluated map from group elements to symbols.

    ``rule`` receives canonical payloads.  ``translate`` accumulates shifts:
    evaluation at g reads the rule at translate * g.
    """

    def __init__(self, group, alphabet: Alphabet, rule: Callable[[Any], Any],
                 translate=None):
        self.group = group
        self.alphabet = alphabet
        self.rule = rule
        self.translate = group.identity() if translate is None else translate

    def __repr__(self) -> str:
        return f"Config(translate={self.translate})"

    def eval(self, g) -> Any:
        if g.group_key != self.group.key:
            raise GroupMismatchError(f"element {g} does not belong to {self.group!r}")
        return self.eval_word(g.rep)

    def eval_word(self, w: Word) -> Any:
        value = self.rule(self.group.normalize(self.translate.rep * w).payload)
        if value not in self.alphabet:
            raise ValidationError(f"rule produced {value!r} outside the alphabet")
        return value

    def walk(self) -> tuple[tuple[Any, Any], Callable[[Any, int], tuple[Any, Any]]]:
        """Read the configuration along a walk over the free words from e.

        Returns ``(root, step)``: ``root`` is the ``(symbol, state)`` of the
        empty word, and ``step(state, x)`` that of w·x from the state of w,
        where the caller keeps w reduced: ``x`` never cancels w's last letter.
        The symbol is the one :meth:`eval_word` reads, checked the same way;
        the state is the group's walk state of translate·w
        (:meth:`GroupModel.walk`), one generator step from its parent's.  On
        a free group a stepped rule walks on its own states instead: a
        random rule's hasher (``_RandomRule.walk``), taken only when every
        symbol it can read is in the alphabet, and a pullback's walk of its
        configuration from the image of translate.  There an overlay's state
        pairs the key of translate·w with its base rule's, or is that key
        alone over a constant, and its symbol is the table's at that key, if
        the table has one; a table's symbols are checked when it is built
        (``finite_support_config``, ``flipped_config``).

        A step that only fetches symbols checked in advance has a true
        ``checked`` attribute, and a caller that needs no symbol at w·x may
        leave it out: a random rule's, a constant's, and an overlay's or a
        pullback's over a checked step.  A group walk's step checks what it
        reads, so it and every step over it run for every word.
        """
        rule, symbols, start = self.rule, self.alphabet.symbols, self.translate.rep
        free = self.group.kind == "free"
        table = {}
        if free and rule.__class__ is _Overlay:
            rule, table = rule.base, rule.table
        stepped = free and isinstance(rule, _Stepped) and rule.walk(start, symbols)
        if stepped:
            (value, state), step = stepped
        else:
            state, advance, payload = self.group.walk(self.translate)
            read = rule if payload is None else lambda s: rule(payload(s))

            def symbol(s) -> Any:
                value = read(s)
                if value not in symbols:
                    raise ValidationError(f"rule produced {value!r} outside the alphabet")
                return value

            def step(s, x: int) -> tuple[Any, Any]:
                s = advance(s, x)
                return symbol(s), s

            value = symbol(state)
        if not table and rule.__class__ is not _Constant:
            return (value, state), step
        # a payload that is not a Word of the walk's rank is no free word
        keys = {word_key(w): s for w, s in table.items()
                if w.__class__ is Word and w.rank == start.rank}
        base, moves = key_base(start.rank), _walk_tables(start.rank)[2]
        k = word_key(start)
        if rule.__class__ is _Constant:  # no state but the key: no tuple per word
            def key_step(k: int, x: int) -> tuple[Any, Any]:
                d, back = moves[x]
                k = k // base if k % base == back else k * base + d
                return keys.get(k, value), k

            key_step.checked = True
            return (keys.get(k, value), k), key_step

        def overlay_step(ks, x: int) -> tuple[Any, Any]:
            k, s = ks
            d, back = moves[x]
            k = k // base if k % base == back else k * base + d
            value, s = step(s, x)
            return keys.get(k, value), (k, s)

        overlay_step.checked = getattr(step, "checked", False)
        return (keys.get(k, value), (k, state)), overlay_step

    def shifted(self, gamma) -> "Config":
        if isinstance(gamma, Word):
            gamma = self.group.normalize(gamma)
        return Config(self.group, self.alphabet, self.rule,
                      translate=self.group.multiply(self.translate, gamma))


def periodic_config(group, alph: Alphabet, table, periods=None) -> Config:
    """Periodic configuration on a lattice model.

    For d = 1 pass a flat table (period = its length).  For d > 1 pass
    ``periods`` and a nested table indexed per axis.
    """
    if group.kind != "lattice":
        raise ValidationError("periodic_config needs a lattice model")
    d = group.key[1]
    if periods is None:
        if d != 1:
            raise ValidationError("periods are required when d > 1")
        if not isinstance(table, (list, tuple)):
            raise ValidationError("table must be a list")
        periods = [len(table)]
    if not isinstance(periods, (list, tuple)) or len(periods) != d:
        raise ValidationError(f"periods {periods!r} must hold one period per axis (d = {d})")
    if not all(is_int(p) and p >= 1 for p in periods):
        raise ValidationError(f"periods {list(periods)} must be positive integers")
    _check_table(table, periods, "table")

    def rule(vec):
        cell = table
        for j in range(d):
            cell = cell[vec[j] % periods[j]]
        return cell

    return Config(group, alph, rule)


def _check_table(cell, periods, path: str) -> None:
    """The nested table must hold periods[0] entries, each a periods[1:] table."""
    if not periods:
        return
    if not isinstance(cell, (list, tuple)) or len(cell) != periods[0]:
        raise ValidationError(f"{path} must be a list of {periods[0]} entries")
    for i, sub in enumerate(cell):
        _check_table(sub, periods[1:], f"{path}[{i}]")


def finite_support_config(group, alph: Alphabet, support: dict, default) -> Config:
    """Default symbol everywhere except finitely many payloads."""
    for s in (default, *support.values()):
        if s not in alph:
            raise ValidationError(f"finite support symbol {s!r} not in alphabet {alph.symbols}")
    return Config(group, alph, _Overlay(_Constant(default), dict(support)))


def _payload_token(payload) -> str:
    return str(payload) if isinstance(payload, Word) else repr(payload)


class _Stepped:
    """A rule with a walk of its own on a free group, read by
    :meth:`Config.walk`: ``walk(start, symbols)`` gives the ``(root, step)``
    from ``start``, or None to read one payload at a time."""


@lru_cache(maxsize=16)
def _walk_tables(rank: int) -> tuple[dict, dict, dict]:
    """The stepped walks' tables for one rank: each letter's token as bytes
    without and with a leading space, and each letter's digit and the digit
    of its inverse."""
    bare = {x: letter_str(x).encode() for x in signed_letters(rank)}
    spaced = {x: b" " + token for x, token in bare.items()}
    moves = {x: (letter_digit(x), inverse_digit(letter_digit(x))) for x in bare}
    return bare, spaced, moves


class _RandomRule(_Stepped):
    """``random_config``'s rule over the symbols of its alphabet."""

    def __init__(self, seed: int, symbols: tuple) -> None:
        try:  # built in; `import hashlib` would also load OpenSSL's _hashlib
            from _blake2 import blake2b
        except ImportError:
            from hashlib import blake2b
        self.blake2b = blake2b
        self.seed = seed
        self.symbols = symbols
        self.seeded = blake2b(f"{seed}|".encode(), digest_size=8)  # copied, never fed
        digest = blake2b(f"{seed}|e".encode(), digest_size=8).digest()
        self.at_e = symbols[int.from_bytes(digest, "big") % len(symbols)]

    def __call__(self, payload) -> Any:
        digest = self.blake2b(f"{self.seed}|{_payload_token(payload)}".encode(),
                              digest_size=8).digest()
        return self.symbols[int.from_bytes(digest, "big") % len(self.symbols)]

    def walk(self, start: Word, symbols: tuple):
        """:meth:`Config.walk`'s ``(root, step)`` over the free words from
        ``start``, or None if the rule could read a symbol outside ``symbols``.

        A word's hasher is a ``blake2b`` already fed ``f"{seed}|{text}"``,
        which no one feeds again: a child copies its parent's hasher and
        feeds it ``" " + token``, and a child of the empty word (text ``"e"``)
        hashes ``f"{seed}|{token}"``.  Since no step cancels the walked
        word's last letter, a step cancels only onto a prefix of ``start``:
        the state of the prefix of i letters is i, whose hasher is built
        once per walk, and any other word's state is its hasher.  From the
        empty word, that is every word but the root.
        """
        table, m = self.symbols, len(self.symbols)
        if table is not symbols and not all(s in symbols for s in table):
            return None
        bare, spaced, _ = _walk_tables(start.rank)
        letters, path, reads = start.letters, [self.seeded], [self.at_e]
        for i, x in enumerate(letters):
            h = path[i].copy()
            h.update(spaced[x] if i else bare[x])
            path.append(h)
            reads.append(table[int.from_bytes(h.digest(), "big") % m])

        def step(s, x: int) -> tuple[Any, Any]:
            if s.__class__ is int:
                if s and x == -letters[s - 1]:
                    return reads[s - 1], s - 1
                h = path[s].copy()
                h.update(spaced[x] if s else bare[x])
            else:
                h = s.copy()
                h.update(spaced[x])
            return table[int.from_bytes(h.digest(), "big") % m], h

        step.checked = True
        return (reads[-1], len(letters)), step


class _Constant:
    """``finite_support_config``'s rule under its support: ``value`` everywhere."""

    def __init__(self, value) -> None:
        self.value = value

    def __call__(self, payload) -> Any:
        return self.value


class _Overlay:
    """``base`` under a table of payloads and the symbols that replace its
    own there: a finite support, or the flips of ``flipped_config``."""

    def __init__(self, base: Callable[[Any], Any], table: dict) -> None:
        self.base = base
        self.table = table

    def __call__(self, payload) -> Any:
        table = self.table
        return table[payload] if payload in table else self.base(payload)


def random_config(group, alph: Alphabet, seed: int) -> Config:
    """Deterministic pseudo-random configuration (stable across runs)."""
    return Config(group, alph, _RandomRule(seed, alph.symbols))


def flipped_config(sigma: Config, at: Word, seed: int = 0) -> Config:
    """Copy of sigma whose value at one element is changed to a different symbol.

    A flip of a flipped configuration or of a finite support adds one entry
    to its table, so the outer of two flips at one element wins.
    """
    target = sigma.group.normalize(at)
    old = sigma.eval(target)
    others = [s for s in sigma.alphabet if s != old]
    if not others:
        raise ValidationError(f"cannot flip a configuration over the one symbol {old!r}")
    new = others[random.Random(seed).randrange(len(others))]
    # the flip is defined relative to the untranslated rule, so require a
    # fresh (untranslated) configuration to keep the semantics obvious
    if sigma.translate.payload != sigma.group.identity().payload:
        raise ValidationError("flipped_config expects an unshifted configuration")
    rule = sigma.rule
    base, table = (rule.base, rule.table) if rule.__class__ is _Overlay else (rule, {})
    return Config(sigma.group, sigma.alphabet, _Overlay(base, {**table, target.payload: new}))


class AgreementDepth(Value):
    """Largest verified radius of agreement between two configurations.

    ``exact`` means a disagreement was found at radius value + 1; value -1
    encodes a disagreement at the identity itself.  When no disagreement
    shows up within the cap the result is the lower bound ">= cap".
    """

    _fields = ("value", "exact")

    def __init__(self, value: int, exact: bool) -> None:
        self.value = value
        self.exact = exact

    def __str__(self) -> str:
        if not self.exact:
            return f">={self.value}"
        if self.value < 0:
            return "differ at radius 0"
        return str(self.value)


def agree_depth(s1: Config, s2: Config, cap: int) -> AgreementDepth:
    """Compare on all elements reachable from words of length <= j, j <= cap.

    A breadth-first search over the group: one walk along each configuration
    reads its symbols, and on a quotient of a free group a third, from the
    identity, keys the visited set with its payloads.  A free group needs no
    such set: its reduced words are distinct elements.  An element is
    compared once, at the level where its word length first reaches it.
    """
    if s1.group != s2.group:
        raise GroupMismatchError("configurations live on different groups")
    if s1.alphabet != s2.alphabet:
        raise ValidationError("configurations use different alphabets")
    if cap < 0:
        raise ValidationError(f"cap must be >= 0, got {cap}")
    group = s1.group
    quotient = group.kind != "free"
    state = None
    if quotient:
        state, advance, payload = group.walk(group.identity())
        seen = {state if payload is None else payload(state)}
    (a, state1), step1 = s1.walk()
    (b, state2), step2 = s2.walk()
    if a != b:
        return AgreementDepth(-1, exact=True)
    letters = signed_letters(group.generator_count)
    frontier = [(0, state, state1, state2)]
    for j in range(1, cap + 1):
        nxt = []
        for back, g, g1, g2 in frontier:
            for x in letters:
                if x == back:
                    continue
                h = None
                if quotient:
                    h = advance(g, x)
                    key = h if payload is None else payload(h)
                    if key in seen:
                        continue
                    seen.add(key)
                (a, h1), (b, h2) = step1(g1, x), step2(g2, x)
                if a != b:
                    return AgreementDepth(j - 1, exact=True)
                if j < cap:  # the last level is never extended: keep no states
                    nxt.append((-x, h, h1, h2))
        frontier = nxt
    return AgreementDepth(cap, exact=False)


def config_from_json(group, alph: Alphabet, obj: dict) -> Config:
    """Build a configuration from its JSON spec.

    ``{"rule": "periodic", "period": 2, "table": [0, 1]}``
    ``{"rule": "periodic", "periods": [2, 2], "table": [[0, 1], [1, 0]]}``
    ``{"rule": "finite", "support": {"0": 1}, "default": 0}``
    """
    kind = json_field(obj, "rule", "config")
    if kind == "periodic":
        periods = obj.get("periods")
        if periods is None and "period" in obj:
            periods = [obj["period"]]

        def match_cell(cell):
            if isinstance(cell, list):
                return [match_cell(c) for c in cell]
            return alph.match(cell)

        table = match_cell(json_field(obj, "table", "config"))
        return periodic_config(group, alph, table, periods)
    if kind == "finite":
        support = {}
        for key, value in json_kind(obj.get("support", {}), dict, "config.support").items():
            payload = _parse_payload_key(group, key)
            support[payload] = alph.match(value)
        default = alph.match(json_field(obj, "default", "config"))
        return finite_support_config(group, alph, support, default)
    raise ValidationError(f"unknown config rule {kind!r}")


def _parse_payload_key(group, key: str):
    if group.kind == "lattice":
        d = group.key[1]
        try:
            parts = [int(p) for p in str(key).split(",")]
        except ValueError:
            raise ValidationError(f"support key {key!r} must be integers joined by ','") from None
        if len(parts) != d:
            raise ValidationError(f"support key {key!r} has wrong dimension")
        return tuple(parts)
    if group.kind == "free":
        return parse_word(str(key), group.generator_count)
    raise ValidationError("JSON configs support lattice and free models only")
