"""Pointed labeled subtrees of the Cayley tree of a free group, at finite depth.

A tree is a prefix-closed set of reduced words containing the empty word,
truncated at an explicit radius.  Edges are implicit: v and its one-letter
extensions are adjacent, and the edge between them is labeled by the positive
generator of the appended letter.  Every operation states exactly what it
knows: answers that would need vertices beyond the stored radius raise
InsufficientDepthError rather than guessing.

Ball comparison is vertex-set equality.  This is sound because a
basepoint-preserving isometry that matches signed edge labels is forced,
edge by edge, to be the identity on vertex names; an independent
backtracking search (:func:`balls_isomorphic`) is kept as an oracle.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    ActionUndefinedError,
    InsufficientDepthError,
    RankMismatchError,
    ValidationError,
    json_field,
    json_int,
)
from .freegroup import Word, identity, letter_str, parse_word, walk_ball


@dataclass(frozen=True)
class PointedTree:
    rank: int
    radius: int
    vertices: frozenset[Word]

    @cached_property
    def vertex_letters(self) -> frozenset[tuple[int, ...]]:
        """The letter tuples of the vertices of the tree's rank.  Membership
        tests on them hash and compare in C, where tests on ``Word``s run
        the dataclass's Python-level ``__hash__`` and ``__eq__``."""
        rank = self.rank
        return frozenset(v.letters for v in self.vertices if v.rank == rank)

    @cached_property
    def _levels(self) -> tuple[frozenset[Word], ...]:
        buckets: list[set[Word]] = [set() for _ in range(self.radius + 1)]
        for v in self.vertices:
            buckets[len(v)].add(v)
        return tuple(frozenset(b) for b in buckets)

    def level(self, d: int) -> frozenset[Word]:
        """Vertices at distance exactly d from the basepoint."""
        if d > self.radius:
            raise InsufficientDepthError(f"level {d} beyond radius {self.radius}")
        return self._levels[d]

    def children(self, v: Word) -> tuple[Word, ...]:
        """The vertices one letter below v, in canonical order; none for a
        word of another rank."""
        if v.rank != self.rank:
            return ()
        return tuple(v.children(self.vertex_letters))

    def degree(self, v: Word) -> int:
        d = len(self.children(v))
        return d if v.is_identity else d + 1

    def __contains__(self, w: Word) -> bool:
        return w in self.vertices

    def __repr__(self) -> str:
        return f"PointedTree(rank={self.rank}, radius={self.radius}, {len(self.vertices)} vertices)"


def validate_tree(t: PointedTree) -> list[str]:
    """All invariant violations, each with a witness vertex; empty means ok."""
    violations = []
    root = identity(t.rank)
    if t.radius < 0:
        violations.append(f"radius {t.radius} is negative")
    if root not in t.vertices:
        violations.append("missing basepoint e")
    rank, radius, inside = t.rank, t.radius, t.vertex_letters
    found: list[tuple[Word, str]] = []
    for v in t.vertices:
        if v.rank != rank:
            found.append((v, f"vertex {v} has rank {v.rank}, tree has rank {rank}"))
            continue
        if len(v.letters) > radius:
            found.append((v, f"vertex {v} exceeds radius {radius}"))
        if v.letters and v.letters[:-1] not in inside:
            found.append((v, f"missing prefix {v.parent} of vertex {v}"))
    found.sort(key=lambda pair: pair[0].sort_key())
    violations += [message for _, message in found]
    return violations


def make_tree(rank: int, radius: int, vertices: Iterable[Word | str]) -> PointedTree:
    """Validating constructor; raises ValidationError listing every violation."""
    words = frozenset(
        v if isinstance(v, Word) else parse_word(v, rank) for v in vertices
    )
    t = PointedTree(rank, radius, words)
    problems = validate_tree(t)
    if problems:
        raise ValidationError("; ".join(problems))
    return t


def singleton_tree(rank: int) -> PointedTree:
    return PointedTree(rank, 0, frozenset({identity(rank)}))


def ball(t: PointedTree, r: int) -> PointedTree:
    """The radius-r truncation; never silently deepens or shallows."""
    if r < 0:
        raise ValidationError(f"ball radius {r} is negative")
    if r > t.radius:
        raise InsufficientDepthError(f"ball of radius {r} requested from radius {t.radius}")
    if r == t.radius:
        return t
    return PointedTree(t.rank, r, frozenset(v for v in t.vertices if len(v) <= r))


@dataclass(frozen=True)
class BoxDistance:
    """Result of the box metric e^(-r) at finite depth.

    ``exact`` means balls of radius r agree and balls of radius r + 1
    differ; otherwise the trees agree to the full common radius r and the
    value is only an upper bound e^(-r).
    """

    r: int
    exact: bool

    @property
    def value(self) -> float:
        return math.exp(-self.r)

    def __str__(self) -> str:
        return f"exact({self.r})" if self.exact else f"at-least({self.r})"


def box_distance(t1: PointedTree, t2: PointedTree) -> BoxDistance:
    if t1.rank != t2.rank:
        raise RankMismatchError(f"ranks {t1.rank} and {t2.rank} differ")
    rmin = min(t1.radius, t2.radius)
    for rr in range(rmin + 1):
        if t1.level(rr) != t2.level(rr):
            return BoxDistance(rr - 1, exact=True)
    return BoxDistance(rmin, exact=False)


def neighborhood(t: PointedTree, r: int, pool: Sequence[PointedTree]) -> list[PointedTree]:
    """Members of the pool whose radius-r ball equals t's.

    A pool member shallower than r cannot be classified and is reported by
    raising, never silently excluded.
    """
    if r > t.radius:
        raise InsufficientDepthError(f"neighborhood radius {r} exceeds tree radius {t.radius}")
    too_shallow = [p for p in pool if p.radius < r]
    if too_shallow:
        raise InsufficientDepthError(
            f"{len(too_shallow)} pool member(s) shallower than radius {r}: "
            + ", ".join(repr(p) for p in too_shallow[:3]))
    reference = ball(t, r).vertices
    return [p for p in pool if ball(p, r).vertices == reference]


def act(t: PointedTree, g: Word) -> PointedTree:
    """Rebase the tree at the vertex g (the partial action of the free group).

    Defined exactly when g is a vertex: the path from the basepoint to g
    reads the reduced word g itself.  The result is the left translate by
    g^-1, truncated to radius - |g|, since nothing further is known.
    """
    if g.rank != t.rank:
        raise RankMismatchError(f"word rank {g.rank} vs tree rank {t.rank}")
    if len(g) > t.radius:
        raise InsufficientDepthError(f"|g| = {len(g)} exceeds radius {t.radius}")
    if g not in t.vertices:
        raise ActionUndefinedError(f"{g} is not a vertex; action undefined")
    gi = g.inverse()
    new_radius = t.radius - len(g)
    moved = set()
    for v in t.vertices:
        w = gi * v
        if len(w) <= new_radius:
            moved.add(w)
    return PointedTree(t.rank, new_radius, frozenset(moved))


@dataclass(frozen=True, eq=False)
class OrbitGraph:
    """Bounded exploration of single-generator rebasings.

    Nodes are identified by ball-equality at the working radius, which can
    merge orbit points that only differ deeper; the identification is
    conservative and recorded here rather than hidden.  Edges are stored
    with positive labels: (i, x, j) means node j is node i rebased at the
    generator x, and traversals along inverse letters are folded into the
    same record.
    """

    nodes: tuple[PointedTree, ...]
    edges: tuple[tuple[int, int, int], ...]
    working_radius: int
    step_bound: int

    @property
    def edge_labels(self) -> list[str]:
        return [letter_str(x) for _, x, _ in self.edges]


def orbit_graph(t: PointedTree, step_bound: int, working_radius: int) -> OrbitGraph:
    if step_bound < 0 or working_radius < 0:
        raise ValidationError("step_bound and working_radius must be >= 0")
    if working_radius + step_bound > t.radius:
        raise InsufficientDepthError(
            f"need radius >= {working_radius + step_bound}, have {t.radius}")
    basepoint = identity(t.rank)
    keys: dict[frozenset[Word], int] = {}
    nodes: list[PointedTree] = []

    def node_id(tree: PointedTree) -> int:
        key_tree = ball(tree, working_radius)
        key = key_tree.vertices
        if key not in keys:
            keys[key] = len(nodes)
            nodes.append(key_tree)
        return keys[key]

    edges: set[tuple[int, int, int]] = set()
    root = node_id(t)
    queue: deque[tuple[int, PointedTree, int]] = deque([(root, t, 0)])
    expanded: set[int] = set()
    while queue:
        i, tree, depth = queue.popleft()
        if depth >= step_bound or i in expanded:
            continue
        expanded.add(i)
        for step in tree.children(basepoint):
            x = step.last
            image = act(tree, step)
            j = node_id(image)
            edges.add((i, x, j) if x > 0 else (j, -x, i))
            if j not in expanded:
                queue.append((j, image, depth + 1))
    return OrbitGraph(tuple(nodes), tuple(sorted(edges)), working_radius, step_bound)


def balls_isomorphic(t1: PointedTree, t2: PointedTree, r: int) -> bool:
    """Backtracking search for a basepoint-preserving isomorphism of balls.

    Matches edges by signed label (generator plus direction away from the
    basepoint) without assuming labels are unique among siblings, so it
    stays an independent check on the vertex-set-equality fast path.
    """
    if t1.rank != t2.rank:
        raise RankMismatchError(f"ranks {t1.rank} and {t2.rank} differ")
    if r > t1.radius or r > t2.radius:
        raise InsufficientDepthError(f"radius {r} ball not stored on both trees")
    b1, b2 = ball(t1, r), ball(t2, r)

    def match(u1: Word, u2: Word) -> bool:
        kids1 = b1.children(u1)
        kids2 = b2.children(u2)
        if len(kids1) != len(kids2):
            return False
        by_label1: dict[int, list[Word]] = {}
        by_label2: dict[int, list[Word]] = {}
        for c in kids1:
            by_label1.setdefault(c.last, []).append(c)
        for c in kids2:
            by_label2.setdefault(c.last, []).append(c)
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

    return match(identity(t1.rank), identity(t2.rank))


def box_distance_brute(t1: PointedTree, t2: PointedTree) -> BoxDistance:
    """Box metric through the isomorphism search instead of set equality."""
    rmin = min(t1.radius, t2.radius)
    for rr in range(rmin + 1):
        if not balls_isomorphic(t1, t2, rr):
            return BoxDistance(rr - 1, exact=True)
    return BoxDistance(rmin, exact=False)


def relabel_tree(t: PointedTree, letter_map: dict[int, int]) -> PointedTree:
    """Apply a signed-letter permutation to every vertex word."""
    full = dict(letter_map)
    for x, y in list(letter_map.items()):
        full.setdefault(-x, -y)
    moved = frozenset(Word(t.rank, tuple(full.get(x, x) for x in v.letters))
                      for v in t.vertices)
    return PointedTree(t.rank, t.radius, moved)


def _grow(vertices: set[Word], frontier: list[Word], levels: int,
          rng: random.Random, fill: float) -> frozenset[Word]:
    """Grow ``levels`` levels below a canonically ordered frontier, keeping
    each child with probability ``fill`` (one draw per child, in canonical order)."""
    for _ in range(levels):
        nxt = []
        for v in frontier:
            for child in v.children():
                if rng.random() < fill:
                    vertices.add(child)
                    nxt.append(child)
        frontier = nxt
    return frozenset(vertices)


def random_tree(rank: int, radius: int, seed: int, fill: float = 0.6) -> PointedTree:
    """Seeded random prefix-closed tree grown level by level."""
    root = identity(rank)
    return PointedTree(rank, radius, _grow({root}, [root], radius, random.Random(seed), fill))


def regrown_tree(t: PointedTree, keep_below: int, seed: int, fill: float = 0.6) -> PointedTree:
    """Copy of t rebuilt with fresh randomness from level ``keep_below`` on.

    Useful for producing pairs that agree on a deep ball: the result shares
    every level < keep_below with t.
    """
    start = max(keep_below - 1, 0)
    vertices = {v for v in t.vertices if len(v) <= start}
    frontier = sorted((v for v in vertices if len(v) == start), key=Word.sort_key)
    return PointedTree(t.rank, t.radius, _grow(vertices, frontier, t.radius - start,
                                               random.Random(seed), fill))


def _named_vertices(t: PointedTree) -> list[tuple[tuple[int, ...], str]]:
    """``(letters, str(vertex))`` for every vertex in canonical order, through
    one walk over the letter tuples; a tree the walk cannot cover is invalid."""
    named = list(walk_ball(t.rank, t.radius, inside=t.vertex_letters))
    if len(named) != len(t.vertices):
        raise ValidationError(f"{t!r} is not a tree: " + "; ".join(validate_tree(t)))
    return named


def tree_to_json(t: PointedTree) -> dict:
    return {
        "rank": t.rank,
        "radius": t.radius,
        "vertices": [text for _, text in _named_vertices(t)],
    }


def tree_from_json(obj: dict) -> PointedTree:
    rank, radius = json_int(obj, "rank", "tree"), json_int(obj, "radius", "tree")
    vertices = json_field(obj, "vertices", "tree")
    if not isinstance(vertices, list):
        raise ValidationError(f"tree.vertices must be a list of strings, got {vertices!r}")
    for i, v in enumerate(vertices):
        if not isinstance(v, str):
            raise ValidationError(f"tree.vertices[{i}] must be a string, got {v!r}")
    return make_tree(rank, radius, vertices)


def tree_to_dot(t: PointedTree) -> str:
    """Undirected DOT rendering: vertices named by words, edges by generators.

    Vertices and edges both come in canonical order: an edge is listed with
    its child, and a child's parent is named by its text minus the last token.
    """
    named = _named_vertices(t)
    lines = ["graph tree {", '  node [shape=circle];']
    lines += [f'  "{text}"{"" if letters else " [shape=doublecircle]"};' for letters, text in named]
    for letters, text in named[1:]:
        parent = text.rpartition(" ")[0] or "e"
        lines.append(f'  "{parent}" -- "{text}" [label="{letter_str(abs(letters[-1]))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def orbit_to_json(og: OrbitGraph) -> dict:
    return {
        "identification": f"ball-equality at radius {og.working_radius}",
        "step_bound": og.step_bound,
        "nodes": [tree_to_json(n) for n in og.nodes],
        "edges": [{"from": i, "label": letter_str(x), "to": j} for i, x, j in og.edges],
    }


def orbit_to_dot(og: OrbitGraph) -> str:
    lines = [
        "digraph orbit {",
        f"  // nodes identified by ball-equality at radius {og.working_radius};",
        "  // distinct orbit points may coincide under this truncation",
    ]
    for i, node in enumerate(og.nodes):
        lines.append(f'  T{i} [label="T{i} ({len(node.vertices)} vertices)"];')
    for i, x, j in og.edges:
        lines.append(f'  T{i} -> T{j} [label="{letter_str(x)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps_json(obj: dict) -> str:
    """Deterministic JSON rendering used by the command line tools."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2) + "\n"
