"""Reference answers for the benchmark's output checks.

Everything here works on plain tuples of signed integers (``+(i + 1)`` for
generator i, ``-(i + 1)`` for its inverse) and on the JSON input files, and
imports nothing from ``treeshift``: a fault in the package cannot hide
behind the same fault in the code that checks it.
"""
from __future__ import annotations

import math
import re


# -- words -------------------------------------------------------------------

def reduce(letters) -> tuple:
    """Free reduction: cancel adjacent x, -x pairs until none is left."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w: tuple) -> tuple:
    return tuple(-x for x in reversed(w))


def signed(rank: int) -> list[int]:
    return [x for i in range(1, rank + 1) for x in (i, -i)]


def render(w: tuple, prefix: str = "g") -> str:
    if not w:
        return "e"
    return " ".join(f"{prefix}{abs(x) - 1}" + ("" if x > 0 else "'") for x in w)


def render_named(w: tuple, names: list[str]) -> str:
    if not w:
        return "e"
    return " ".join(names[abs(x) - 1] + ("" if x > 0 else "'") for x in w)


def parse(text: str, prefix: str = "g") -> tuple:
    text = text.strip()
    if text in ("", "e"):
        return ()
    letters = []
    for token in text.split():
        inverse_letter = token.endswith("'")
        index = int(token.rstrip("'")[len(prefix):])
        letters.append(-(index + 1) if inverse_letter else index + 1)
    return reduce(letters)


def ball(rank: int, radius: int) -> list[tuple]:
    """Reduced words of length <= radius, shortest first."""
    out = [()]
    level = [()]
    for _ in range(radius):
        level = [w + (x,) for w in level for x in signed(rank) if not (w and w[-1] == -x)]
        out.extend(level)
    return out


def ball_size(rank: int, radius: int) -> int:
    """1 + sum_{i=1..r} 2M (2M - 1)^(i - 1)."""
    return 1 + sum(2 * rank * (2 * rank - 1) ** (i - 1) for i in range(1, radius + 1))


# -- trees -------------------------------------------------------------------

class Tree:
    """A tree file read as a set of vertex tuples."""

    def __init__(self, rank: int, radius: int, vertices):
        self.rank = rank
        self.radius = radius
        self.vertices = frozenset(vertices)

    @classmethod
    def from_json(cls, obj: dict) -> "Tree":
        return cls(obj["rank"], obj["radius"], (parse(v) for v in obj["vertices"]))

    def level(self, d: int) -> frozenset:
        return frozenset(v for v in self.vertices if len(v) == d)


def act(t: Tree, g: tuple) -> Tree:
    """Rebase at the vertex g: the reduced g^-1 v that stay within radius - |g|."""
    if g not in t.vertices:
        raise ValueError(f"{render(g)} is not a vertex")
    radius = t.radius - len(g)
    gi = inverse(g)
    moved = (reduce(gi + v) for v in t.vertices)
    return Tree(t.rank, radius, (w for w in moved if len(w) <= radius))


def metric(t1: Tree, t2: Tree) -> tuple[str, int]:
    """("exact", r) when the balls first differ at radius r + 1; else ("at-least", r)."""
    rmin = min(t1.radius, t2.radius)
    for r in range(rmin + 1):
        if t1.level(r) != t2.level(r):
            return "exact", r - 1
    return "at-least", rmin


def metric_json(t1: Tree, t2: Tree) -> dict:
    kind, r = metric(t1, t2)
    return {"kind": kind, "r": r, "value": math.exp(-r)}


# -- scenarios and the embedding rule ----------------------------------------

def _symbol(symbols: list, token):
    for s in symbols:
        if s == token or str(s) == str(token):
            return s
    raise ValueError(f"{token!r} is not a symbol of {symbols}")


def encoding_table(alpha: dict, symbols: list) -> dict:
    """{(source letter, symbol): target letter} from an encoding object."""
    table = {}
    for key, value in alpha["table"].items():
        gen, _, sym = key.partition(",")
        table[(int(gen[1:]) + 1, _symbol(symbols, sym))] = int(value[1:]) + 1
    return table


class Scenario:
    """A scenario file evaluated directly from its finite-support dict or
    periodic table."""

    def __init__(self, obj: dict):
        group = obj["group"]
        self.symbols = list(obj["alphabet"])
        if group["kind"] == "free":
            self.rank = group["M"]
            self.images = None
        else:
            self.images = [tuple(v) for v in group["images"]]
            self.rank = len(self.images)
        config = obj["config"]
        self.rule = config["rule"]
        if self.rule == "finite":
            self.default = _symbol(self.symbols, config["default"])
            self.support = {self._key(k): _symbol(self.symbols, v)
                            for k, v in config["support"].items()}
        else:
            self.periods = config.get("periods") or [config["period"]]
            self.table = config["table"]
        self.alpha = encoding_table(obj["alpha"], self.symbols)
        self.target_rank = obj["alpha"]["n"]

    def _key(self, text: str):
        if self.images is None:
            return parse(text)
        return tuple(int(p) for p in text.split(","))

    def payload(self, w: tuple):
        if self.images is None:
            return reduce(w)
        vec = [0] * len(self.images[0])
        for x in w:
            for j, c in enumerate(self.images[abs(x) - 1]):
                vec[j] += c if x > 0 else -c
        return tuple(vec)

    def symbol(self, w: tuple):
        p = self.payload(w)
        if self.rule == "finite":
            return self.support.get(p, self.default)
        cell = self.table
        for j, period in enumerate(self.periods):
            cell = cell[p[j] % period]
        return _symbol(self.symbols, cell)

    def translates(self) -> int:
        """An upper bound on the distinct translates of a periodic config."""
        return math.prod(self.periods)


def embedding(rank: int, depth: int, alpha: dict, symbol_at) -> dict:
    """The paper's rule, level by level: the vertex of w2 = w1 h appends
    alpha(h, sigma(w1)) for positive h and alpha(h^-1, sigma(w2))^-1 for
    negative h.  ``symbol_at`` returns None on words to skip, which prunes
    their subtrees."""
    kappa = {(): ()}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for w1 in frontier:
            for x in signed(rank):
                if w1 and w1[-1] == -x:
                    continue
                w2 = w1 + (x,)
                s2 = symbol_at(w2)
                if s2 is None:
                    continue
                t = alpha[(x, symbol_at(w1))] if x > 0 else -alpha[(-x, s2)]
                kappa[w2] = reduce(kappa[w1] + (t,))
                nxt.append(w2)
        frontier = nxt
    return kappa


def embed_tree(sc: Scenario, depth: int) -> Tree:
    kappa = embedding(sc.rank, depth, sc.alpha, sc.symbol)
    return Tree(sc.target_rank, depth, kappa.values())


def decode_json(sc: Scenario, depth: int) -> dict:
    """What decoding a radius-``depth`` image tree must return."""
    return {"depth": depth - 1,
            "values": {render(w, "t"): sc.symbol(w) for w in ball(sc.rank, depth - 1)}}


# -- pseudogroup itineraries -------------------------------------------------

class RewriteSystem:
    """Prefix rewrites read from a generating-system file, or the built-in
    one-sided shift, with inverses derived by swapping consume and emit."""

    def __init__(self, symbols: list, generators: list, partition: list):
        self.symbols = symbols
        self.names = [g[0] for g in generators]
        self.maps = {}
        for i, (_, domain, consume, emit) in enumerate(generators, start=1):
            effective = []
            for part in domain:
                short, long_ = sorted((part, consume), key=len)
                if long_[:len(short)] == short:
                    effective.append(long_)
            self.maps[i] = (effective, consume, emit)
            image = [emit + p[len(consume):] for p in effective]
            self.maps[-i] = (image, emit, consume)
        self.partition = partition
        prefixes = [p for parts, _, _ in self.maps.values() for p in parts]
        prefixes += [p for _, parts in partition for p in parts]
        self.reach = max(len(p) for p in prefixes)
        self.max_consume = max(len(c) for _, c, _ in self.maps.values())

    @classmethod
    def builtin_n0(cls, symbols: list) -> "RewriteSystem":
        gens = [(f"1_{s}", [(s,)], (s,), ()) for s in symbols]
        return cls(symbols, gens, [(s, [(s,)]) for s in symbols])

    @classmethod
    def from_json(cls, obj: dict) -> "RewriteSystem":
        symbols = list(obj["alphabet"])

        def prefix(p):
            return tuple(_symbol(symbols, t) for t in p)

        gens = [(g["name"], [prefix(p) for p in g["domain"]],
                 prefix(g["rewrite"]["consume"]), prefix(g["rewrite"]["emit"]))
                for g in obj["generators"]]
        partition = [(_symbol(symbols, k), [prefix(p) for p in v])
                     for k, v in obj["partition"].items()]
        return cls(symbols, gens, partition)

    def classify(self, point: tuple):
        hits = [s for s, parts in self.partition
                if any(point[:len(p)] == p for p in parts)]
        if len(hits) != 1 or len(point) < self.reach:
            raise ValueError(f"cannot classify {point}")
        return hits[0]

    def rewrite(self, x: int, point: tuple):
        """The image prefix, or None where the map is undefined."""
        if len(point) < self.reach:
            raise ValueError("materialised prefix too short")
        domain, consume, emit = self.maps[x]
        if not any(point[:len(p)] == p for p in domain):
            return None
        return emit + point[len(consume):]

    def itinerary(self, pre, cycle, depth: int) -> dict:
        """{word: symbol or None} over the ball, simulating the rewrites on a
        prefix long enough to survive ``depth`` consumptions."""
        length = len(pre) + depth * self.max_consume + self.reach
        point = tuple(pre) + tuple(cycle) * (length // len(cycle) + 1)
        rank = len(self.names)
        values = {(): self.classify(point)}
        images = {(): point}
        for w in ball(rank, depth)[1:]:
            parent = images.get(w[:-1])
            moved = None if parent is None else self.rewrite(w[-1], parent)
            if moved is None:
                values[w] = None
            else:
                images[w] = moved
                values[w] = self.classify(moved)
        return values

    def itinerary_json(self, values: dict, depth: int) -> dict:
        return {"depth": depth,
                "values": {render_named(w, self.names): s for w, s in values.items()}}


def embed_pseudo_tree(values: dict, rank: int, depth: int, alpha: dict, target_rank: int) -> Tree:
    """The embedding rule restricted to the live words of an itinerary."""
    kappa = embedding(rank, depth, alpha, values.get)
    return Tree(target_rank, depth, kappa.values())


# -- verify --------------------------------------------------------------------

VERIFY_LINES = {
    "ladder-orbit": r"2 nodes, edges \['g0', 'g1'\]",
    "round-trip": r"200 oracles, 0 failures",
    "equivariance": r"600 generator checks, 0 failures; "
                    r"identity-symbol variant unusable in \d+ of them",
    "tree-shape": r"200 trees, 0 failures",
    "metric-axioms": r"500 triples \(0 axiom failures\), 100 oracle pairs \(0 discrepancies\)",
    "separation": r"100 pairs, 0 failures",
    "pseudogroup": r"example values ok, tree ok, 20 sampled points \(0 failures\)",
    "lattice-collapse": r"50 oracles, 0 failures",
    "continuity": r"100 pairs, 0 failures",
}


def verify_line_ok(suite: str, stdout: str) -> bool:
    """One PASS line carrying the suite's fixed sample sizes."""
    pattern = rf"PASS  {re.escape(suite)} +{VERIFY_LINES[suite]}\n"
    return re.fullmatch(pattern, stdout) is not None
