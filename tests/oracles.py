"""Brute-force reference implementations used only as test oracles.

These deliberately avoid the algorithms used by the package: reduction is
repeated single-pass adjacent cancellation, balls are produced by
generating every letter string and deduplicating, and trees are parsed,
checked and listed the way the package did before its canonical walk and
token table (every token through :func:`parse_letter` and :func:`reduce`,
sorting by :meth:`Word.sort_key`).  The embedding oracle reads every source
word's symbol through ``Config.eval_word``, which renormalizes the whole word,
and builds every image vertex as a ``Word``.  The agreement-depth oracle
normalizes every free word of each sphere up to the cap.  The partition
oracle counts the cylinders over every word as long as the longest prefix,
and the subsumption oracle compares each prefix with every kept one.
"""
from __future__ import annotations

import itertools

from treeshift.errors import (
    ActionUndefinedError,
    ConsistencyError,
    InsufficientDepthError,
    RankMismatchError,
    ValidationError,
)
from treeshift.freegroup import (Word, enumerate_spheres, identity, letter_str, parse_letter,
                                 reduce, word_key)
from treeshift.shift import AgreementDepth
from treeshift.trees import BoxDistance, PointedTree


def single_pass_cancel(letters: list[int]) -> tuple[list[int], bool]:
    out: list[int] = []
    changed = False
    i = 0
    while i < len(letters):
        if i + 1 < len(letters) and letters[i] == -letters[i + 1]:
            i += 2
            changed = True
        else:
            out.append(letters[i])
            i += 1
    return out, changed


def brute_reduce(letters) -> tuple[int, ...]:
    """Repeated single-pass adjacent cancellation to a fixpoint."""
    cur = list(letters)
    while True:
        cur, changed = single_pass_cancel(cur)
        if not changed:
            return tuple(cur)


def all_signed_letters(rank: int) -> list[int]:
    return [x for i in range(1, rank + 1) for x in (i, -i)]


def brute_ball_words(rank: int, radius: int) -> set[tuple[int, ...]]:
    """Every reduced word of length <= radius, via exhaustive generation."""
    out: set[tuple[int, ...]] = set()
    letters = all_signed_letters(rank)
    for length in range(radius + 1):
        for string in itertools.product(letters, repeat=length):
            out.add(brute_reduce(string))
    return {w for w in out if len(w) <= radius}


def tree_from_words(rank: int, radius: int, words) -> PointedTree:
    """The tree on ``Word``s, through the checked constructor; a word of
    another rank has no key in the tree and raises ValidationError."""
    words = list(words)
    for v in words:
        if v.rank != rank:
            raise ValidationError(f"vertex {v} has rank {v.rank}, tree has rank {rank}")
    return PointedTree(rank, radius, frozenset(map(word_key, words)))


# The tree boundary as it was before the canonical walk: every vertex parsed
# token by token, and every listing sorted by Word.sort_key and rendered by str.

def parse_word_checked(text: str, rank: int) -> Word:
    text = text.strip()
    if text in ("e", ""):
        return identity(rank)
    return reduce([parse_letter(tok, rank) for tok in text.split()], rank)


def sorted_violations(rank: int, radius: int, words) -> list[str]:
    """What keeps a set of ``Word``s from being a tree of this rank and radius."""
    words = set(words)
    violations = []
    if radius < 0:
        violations.append(f"radius {radius} is negative")
    if identity(rank) not in words:
        violations.append("missing basepoint e")
    for v in sorted(words, key=Word.sort_key):
        if v.rank != rank:
            violations.append(f"vertex {v} has rank {v.rank}, tree has rank {rank}")
            continue
        if len(v) > radius:
            violations.append(f"vertex {v} exceeds radius {radius}")
        if len(v) > 0 and v.parent not in words:
            violations.append(f"missing prefix {v.parent} of vertex {v}")
    return violations


def parse_word_tree(rank: int, radius: int, texts):
    words = [parse_word_checked(v, rank) for v in texts]
    problems = sorted_violations(rank, radius, words)
    if problems:  # three violations, then a count of the rest
        rest = [f"and {len(problems) - 3} more violations"] if len(problems) > 3 else []
        raise ValidationError("; ".join(problems[:3] + rest))
    return tree_from_words(rank, radius, words)


def sorted_tree_json(t) -> dict:
    return {"rank": t.rank, "radius": t.radius,
            "vertices": [str(v) for v in sorted(t.vertices, key=Word.sort_key)]}


def sorted_tree_dot(t) -> str:
    below: dict = {}
    for u in t.vertices:
        if u.letters:
            below.setdefault(u.parent, []).append(u)
    ordered = sorted(t.vertices, key=Word.sort_key)
    lines = ["graph tree {", '  node [shape=circle];']
    for v in ordered:
        shape = ' [shape=doublecircle]' if v.is_identity else ""
        lines.append(f'  "{v}"{shape};')
    for v in ordered:
        for c in sorted(below.get(v, []), key=Word.sort_key):
            lines.append(f'  "{v}" -- "{c}" [label="{letter_str(abs(c.last))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# Rebasing and the box metric on Word sets, as before integer keys.

def relabel_tree(t, letter_map: dict[int, int]):
    """Apply a signed-letter permutation to every vertex word."""
    full = dict(letter_map)
    for x, y in letter_map.items():
        full.setdefault(-x, -y)
    return tree_from_words(t.rank, t.radius, (
        Word(t.rank, tuple(full.get(x, x) for x in v.letters)) for v in t.vertices))


def translated_act(t, g: Word):
    """Left-multiply every vertex by g^-1 and keep the radius - |g| ball."""
    if g.rank != t.rank:
        raise RankMismatchError(f"word rank {g.rank} vs tree rank {t.rank}")
    if len(g) > t.radius:
        raise InsufficientDepthError(f"|g| = {len(g)} exceeds radius {t.radius}")
    if g not in t.vertices:
        raise ActionUndefinedError(f"{g} is not a vertex; action undefined")
    gi = g.inverse()
    new_radius = t.radius - len(g)
    moved = [w for w in (gi * v for v in t.vertices) if len(w) <= new_radius]
    return tree_from_words(t.rank, new_radius, moved)


def level(t, d: int) -> set:
    return {v for v in t.vertices if len(v) == d}


def levelwise_box_distance(t1, t2) -> BoxDistance:
    if t1.rank != t2.rank:
        raise RankMismatchError(f"ranks {t1.rank} and {t2.rank} differ")
    rmin = min(t1.radius, t2.radius)
    for rr in range(rmin + 1):
        if level(t1, rr) != level(t2, rr):
            return BoxDistance(rr - 1, exact=True)
    return BoxDistance(rmin, exact=False)


def sorted_separate_witness(t1, t2):
    d = levelwise_box_distance(t1, t2)
    if not d.exact:
        return None
    r = d.r
    g = min(level(t1, r + 1) ^ level(t2, r + 1), key=Word.sort_key).prefix(r)
    rebased = levelwise_box_distance(translated_act(t1, g), translated_act(t2, g))
    if rebased != BoxDistance(0, exact=True):
        raise ConsistencyError(f"witness {g} failed to separate: {rebased}")
    return g


# The embedding as it was read before the group walk: one full evaluation of
# the configuration per source word, children through Word.children().

def embed_by_words(sigma, enc, depth: int):
    """The image tree of ``sigma`` and its source-word-to-vertex map."""
    root = identity(enc.source_rank)
    vertex_of = {root: identity(enc.target_rank)}
    frontier = [(root, sigma.eval_word(root))]
    for _ in range(depth):
        nxt = []
        for parent, parent_symbol in frontier:
            for child in parent.children():
                symbol = sigma.eval_word(child)
                x = child.last
                t = enc.encode(x, parent_symbol) if x > 0 else -enc.encode(-x, symbol)
                vertex = vertex_of[parent].append(t)
                if len(vertex) != len(child):
                    raise ConsistencyError(f"cancellation while embedding {child}")
                vertex_of[child] = vertex
                nxt.append((child, symbol))
        frontier = nxt
    if len(set(vertex_of.values())) != len(vertex_of):
        raise ConsistencyError("embedding produced colliding vertices")
    return tree_from_words(enc.target_rank, depth, vertex_of.values()), vertex_of


# Agreement depth as it was computed before the walk over group elements.

def sphere_agree_depth(s1, s2, cap: int) -> AgreementDepth:
    """Normalize every word of the spheres of radius <= cap, in canonical
    order, and compare the two configurations at each payload seen first."""
    seen = set()
    for j, level in enumerate(enumerate_spheres(s1.group.generator_count, cap)):
        for w in level:
            g = s1.group.normalize(w)
            if g.payload in seen:
                continue
            seen.add(g.payload)
            if s1.eval(g) != s2.eval(g):
                return AgreementDepth(j - 1, exact=True)
    return AgreementDepth(cap, exact=False)


# The partition check as it was before the prefix trie.

def wordwise_partition_faults(partition, symbols) -> list[tuple[tuple, int]]:
    """``(word, cylinders)`` for each word as long as the partition's longest
    prefix that lies in other than exactly one of its cylinders."""
    depth = max((len(c.prefix) for _, union in partition for c in union.parts), default=0)
    words = [()]
    for _ in range(depth):
        words = [w + (s,) for w in words for s in symbols]
    faults = []
    for w in words:
        covers = sum(1 for _, union in partition for c in union.parts
                     if c.prefix == w[: len(c.prefix)])
        if covers != 1:
            faults.append((w, covers))
    return faults


# Cylinder subsumption as it was before the prefix lookups.

def pairwise_minimal(items, prefix_of) -> list:
    """Drop each item whose prefix extends a kept one; keep the rest, shortest
    first, comparing each item with every kept one."""
    def order(item) -> tuple:
        p = prefix_of(item)
        return len(p), tuple(map(str, p))

    kept: list = []
    for item in sorted(set(items), key=order):
        p = prefix_of(item)
        if not any(p[: len(prefix_of(k))] == prefix_of(k) for k in kept):
            kept.append(item)
    return kept


# Cylinder-union membership as it was before the prefix lookup.

def union_contains_by_scan(union, stream) -> bool:
    """Whether the stream starts with one of the union's prefixes, trying
    every part."""
    return any(stream.starts_with(c.prefix) for c in union.parts)
