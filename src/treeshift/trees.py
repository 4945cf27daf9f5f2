"""Pointed labeled subtrees of the Cayley tree of a free group, at finite depth.

A tree is a prefix-closed set of reduced words containing the empty word,
truncated at an explicit radius.  It stores that set once, as the integer
keys of :mod:`freegroup` (numeric order is the canonical order, the parent
of k is ``k // B`` and its children lie in ``[k*B + 1, k*B + 2*rank]``), and
every operation here works on those keys; ``Word``s are built only where
words enter (parsing, the word of :func:`act`) or leave (the lazily built
``vertices`` view, printing).  Edges are implicit: v and its one-letter
extensions are adjacent, and the edge between them is labeled by the
positive generator of the appended letter.  Every operation states
exactly what it knows: answers that would need vertices beyond the stored
radius raise InsufficientDepthError rather than guessing.

A tree is checked where it is built, as a word is: the :class:`PointedTree`
constructor (so :func:`make_tree` and :func:`tree_from_json`) refuses keys
that are not a tree, and :func:`ball`, :func:`act`, the embeddings and the
samplers build from keys they trust through the unchecked :func:`_tree`.

Ball comparison is key-set equality.  This is sound because a
basepoint-preserving isometry that matches signed edge labels is forced,
edge by edge, to be the identity on vertex names; an independent
backtracking search, :func:`treeshift.verify.balls_isomorphic`, is kept as
an oracle beside the suites that run it, so no other command compiles it.
"""
from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from collections import deque
from functools import cached_property
from operator import floordiv
from typing import Iterable, Iterator, Sequence

from .errors import (
    ActionUndefinedError,
    InsufficientDepthError,
    RankMismatchError,
    ValidationError,
    Value,
    json_field,
    json_int,
)
from .freegroup import (
    Word,
    check_letters,
    chunks,
    digit_letter,
    inverse_digit,
    key_base,
    key_texts,
    key_word,
    key_words,
    letter_str,
    text_keys,
    word_key,
)


class PointedTree(Value):
    """Refuses a rank below 1, and keys that are not a tree of the radius with
    three violations and a count of the rest, so a long path prints a short line."""

    _fields = ("rank", "radius", "keys")

    def __init__(self, rank: int, radius: int, keys: frozenset[int]) -> None:
        check_letters((), rank)
        faults = _faults(rank, radius, keys)
        problems = [_named(fault, rank) for fault in itertools.islice(faults, 3)]
        if problems:
            rest = sum(1 for _ in faults)
            if rest:
                problems.append(f"and {rest} more violations")
            raise ValidationError("; ".join(problems))
        self.rank = rank
        self.radius = radius
        self.keys = keys

    @cached_property
    def sorted_keys(self) -> list[int]:
        return sorted(self.keys)

    @cached_property
    def vertices(self) -> frozenset[Word]:
        """The vertices as ``Word``s, built once by walking the keys from the root."""
        return frozenset(key_words(self.sorted_keys, self.rank).values())

    def _bound(self, r: int) -> int:
        """``B**r``: the keys of words of length <= r are those below it.  The
        exponent stops past the largest key, so a huge radius costs nothing."""
        return key_base(self.rank) ** min(r, self.sorted_keys[-1].bit_length() + 1)

    def child_keys(self, k: int) -> list[int]:
        """The keys one letter below the key k, ascending; found by bisecting
        the sorted keys, so the cost follows the tree, not the rank."""
        base = key_base(self.rank)
        keys, low = self.sorted_keys, k * base
        i = bisect_left(keys, low + 1)
        return keys[i:bisect_left(keys, low + base, i)]

    def degrees(self, r: int) -> list[int]:
        """The degrees of the vertices within distance r of the basepoint, in
        canonical order."""
        return [len(self.child_keys(k)) + (k > 0) for k in ball(self, r).sorted_keys]

    def __repr__(self) -> str:
        return f"PointedTree(rank={self.rank}, radius={self.radius}, {len(self.keys)} vertices)"


def _tree(rank: int, radius: int, keys: frozenset[int], _new=object.__new__) -> PointedTree:
    """Unchecked tree from keys known to form one (``_new`` is bound once)."""
    t = _new(PointedTree)
    t.rank, t.radius, t.keys = rank, radius, keys
    return t


def validate_tree(rank: int, radius: int, keys: frozenset[int]) -> list[str]:
    """Every violation of a key set, each with a witness vertex; empty means a tree."""
    return [_named(fault, rank) for fault in _faults(rank, radius, keys)]


def _faults(rank: int, radius: int, keys: frozenset[int]) -> Iterator[tuple[str, int]]:
    """:func:`validate_tree`'s violations, each as a text and the key of its
    witness vertex (0 if none), which the text names as ``{v}`` and its parent
    as ``{p}``: a vertex is named only if its violation is printed."""
    if radius < 0:
        yield f"radius {radius} is negative", 0
    if 0 not in keys:
        yield "missing basepoint e", 0
    base, largest = key_base(rank), max(keys, default=0)
    limit = base ** min(radius, largest.bit_length() + 1) if radius >= 0 else 0  # as _bound
    orphans = set(map(floordiv, keys, itertools.repeat(base))) - keys  # parents that are missing
    if not orphans and largest < limit:
        return
    for k in sorted(k for k in keys if k >= limit or k // base in orphans):
        if k >= limit:
            yield f"vertex {{v}} exceeds radius {radius}", k
        if k // base in orphans:
            yield "missing prefix {p} of vertex {v}", k


def _named(fault: tuple[str, int], rank: int) -> str:
    text, k = fault
    return text.format(v=key_word(k, rank), p=key_word(k // key_base(rank), rank))


def make_tree(rank: int, radius: int, vertices: Iterable[str]) -> PointedTree:
    """Checked tree from vertex texts, read first, so a bad text's error comes first."""
    return PointedTree(rank, radius, frozenset(text_keys(vertices, rank)))


def ball(t: PointedTree, r: int) -> PointedTree:
    """The radius-r truncation; never silently deepens or shallows."""
    if r < 0:
        raise ValidationError(f"ball radius {r} is negative")
    if r > t.radius:
        raise InsufficientDepthError(f"ball of radius {r} requested from radius {t.radius}")
    if r == t.radius:
        return t
    keys = t.sorted_keys
    return _tree(t.rank, r, frozenset(keys[:bisect_left(keys, t._bound(r))]))


class BoxDistance(Value):
    """Result of the box metric e^(-r) at finite depth.

    ``exact`` means balls of radius r agree and balls of radius r + 1
    differ; otherwise the trees agree to the full common radius r and the
    value is only an upper bound e^(-r).
    """

    __slots__ = ("r", "exact")
    _fields = ("r", "exact")

    def __init__(self, r: int, exact: bool) -> None:
        self.r = r
        self.exact = exact

    @property
    def value(self) -> float:
        return math.exp(-self.r)

    def __str__(self) -> str:
        return f"exact({self.r})" if self.exact else f"at-least({self.r})"


def first_difference(t1: PointedTree, t2: PointedTree) -> int | None:
    """The smallest key in which the trees differ within their common
    radius, or None when they agree there."""
    if t1.rank != t2.rank:
        raise RankMismatchError(f"ranks {t1.rank} and {t2.rank} differ")
    r = min(t1.radius, t2.radius)
    limit = max(t1._bound(r), t2._bound(r))
    return min((k for k in t1.keys ^ t2.keys if k < limit), default=None)


def box_distance(t1: PointedTree, t2: PointedTree) -> BoxDistance:
    """Exact at one less than the length of the first difference; the
    smallest differing key is on the shallowest differing level."""
    k = first_difference(t1, t2)
    if k is None:
        return BoxDistance(min(t1.radius, t2.radius), exact=False)
    return BoxDistance(len(key_word(k, t1.rank)) - 1, exact=True)


def neighborhood(t: PointedTree, r: int, pool: Sequence[PointedTree]) -> list[PointedTree]:
    """Members of the pool whose radius-r ball equals t's.

    A pool member of another rank, or shallower than r, cannot be classified
    and is reported by raising, never silently excluded.
    """
    for p in pool:
        if p.rank != t.rank:
            raise RankMismatchError(f"pool member {p!r} has rank {p.rank}, tree has rank {t.rank}")
    if r > t.radius:
        raise InsufficientDepthError(f"neighborhood radius {r} exceeds tree radius {t.radius}")
    too_shallow = [p for p in pool if p.radius < r]
    if too_shallow:
        raise InsufficientDepthError(
            f"{len(too_shallow)} pool member(s) shallower than radius {r}: "
            + ", ".join(repr(p) for p in too_shallow[:3]))
    reference = ball(t, r).keys
    return [p for p in pool if ball(p, r).keys == reference]


def act(t: PointedTree, g: Word, radius: int | None = None) -> PointedTree:
    """Rebase the tree at the vertex g (the partial action of the free group).

    Defined exactly when g is a vertex: the path from the basepoint to g
    reads the reduced word g itself.  The result is the left translate by
    g^-1, truncated to radius - |g|, since nothing further is known, or to
    ``radius`` when given, which must not exceed that.  It is found by a
    walk from g over the tree's edges, so it costs the vertices within the
    result's radius of g: a step to the parent appends the inverse of the
    vertex's last letter to the new name, a step to a child its letter.
    """
    if g.rank != t.rank:
        raise RankMismatchError(f"word rank {g.rank} vs tree rank {t.rank}")
    if len(g) > t.radius:
        raise InsufficientDepthError(f"|g| = {len(g)} exceeds radius {t.radius}")
    start = word_key(g)
    if start not in t.keys:
        raise ActionUndefinedError(f"{g} is not a vertex; action undefined")
    known = t.radius - len(g)
    if radius is None:
        radius = known
    elif radius < 0:
        raise ValidationError(f"rebased radius {radius} is negative")
    elif radius > known:
        raise InsufficientDepthError(
            f"rebased radius {radius} exceeds radius {t.radius} - |g| = {known}")
    base = key_base(t.rank)
    level = [(start, 0, -1)]  # (key in t, key in the result, the key it was reached from)
    moved = [0]
    for _ in range(radius):
        if not level:
            break
        nxt = []
        for u, name, back in level:
            head = name * base
            parent = u // base
            if u and parent != back:
                nxt.append((parent, head + inverse_digit(u - parent * base), u))
            nxt += [(c, head + c % base, u) for c in t.child_keys(u) if c != back]
        moved += [name for _, name, _ in nxt]
        level = nxt
    return _tree(t.rank, radius, frozenset(moved))


class OrbitGraph:
    """Bounded exploration of single-generator rebasings.

    Nodes are identified by ball-equality at the working radius, which can
    merge orbit points that only differ deeper; the identification is
    conservative and recorded here rather than hidden.  Edges are stored
    with positive labels: (i, x, j) means node j is node i rebased at the
    generator x, and traversals along inverse letters are folded into the
    same record.
    """

    def __init__(self, nodes: tuple[PointedTree, ...], edges: tuple[tuple[int, int, int], ...],
                 working_radius: int, step_bound: int) -> None:
        self.nodes = nodes
        self.edges = edges
        self.working_radius = working_radius
        self.step_bound = step_bound

    @property
    def edge_labels(self) -> list[str]:
        return [letter_str(x) for _, x, _ in self.edges]


def orbit_graph(t: PointedTree, step_bound: int, working_radius: int) -> OrbitGraph:
    if step_bound < 0 or working_radius < 0:
        raise ValidationError("step_bound and working_radius must be >= 0")
    if working_radius + step_bound > t.radius:
        raise InsufficientDepthError(
            f"need radius >= {working_radius + step_bound}, have {t.radius}")
    keys: dict[frozenset[int], int] = {}
    nodes: list[PointedTree] = []

    def node_id(tree: PointedTree) -> int:
        key_tree = ball(tree, working_radius)
        key = key_tree.keys
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
        for c in tree.child_keys(0):
            step = key_word(c, tree.rank)
            x = step.last
            # the image is read to working_radius around nodes up to
            # step_bound - depth - 1 steps from it
            image = act(tree, step, working_radius + step_bound - depth - 1)
            j = node_id(image)
            edges.add((i, x, j) if x > 0 else (j, -x, i))
            if j not in expanded:
                queue.append((j, image, depth + 1))
    return OrbitGraph(tuple(nodes), tuple(sorted(edges)), working_radius, step_bound)


def tree_to_json(t: PointedTree) -> dict:
    return {
        "rank": t.rank,
        "radius": t.radius,
        "vertices": list(key_texts(t.sorted_keys, t.rank).values()),
    }


def tree_json(t: PointedTree) -> Iterator[str]:
    """What ``dumps_json(tree_to_json(t))`` prints, in the pieces of
    :func:`chunks`: the texts of :func:`key_texts` come in canonical order
    and need no escaping, so it builds no JSON object and runs no encoder."""
    head = f'{{\n  "radius": {t.radius},\n  "rank": {t.rank},\n  "vertices": [\n    "'
    texts = key_texts(t.sorted_keys, t.rank).values()
    return chunks(head, texts, '",\n    "', '"\n  ]\n}\n')


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
    its child, and named by its parent's text and its own.
    """
    base = key_base(t.rank)
    texts = key_texts(t.sorted_keys, t.rank)
    lines = ["graph tree {", '  node [shape=circle];']
    lines += [f'  "{text}"{"" if k else " [shape=doublecircle]"};' for k, text in texts.items()]
    for k, text in texts.items():
        if k:
            label = letter_str(abs(digit_letter(k % base)))
            lines.append(f'  "{texts[k // base]}" -- "{text}" [label="{label}"];')
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
        lines.append(f'  T{i} [label="T{i} ({len(node.keys)} vertices)"];')
    for i, x, j in og.edges:
        lines.append(f'  T{i} -> T{j} [label="{letter_str(x)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dumps_json(obj: dict) -> str:
    """Deterministic JSON rendering used by the command line tools."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2) + "\n"
