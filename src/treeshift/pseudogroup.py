"""Pseudogroups of prefix-rewrite maps on a one-sided symbol space.

The Cantor space here is concretely the full one-sided shift over a base
alphabet; clopen sets are finite unions of cylinders (prefix constraints),
and every generator is a partial map presented as "consume a fixed prefix,
emit a replacement" on a cylinder-union domain.  That makes domains,
images, compositions and the partition all decidable from finite prefixes.

Points are eventually periodic streams ``pre cycle cycle ...``: every
rewrite of such a stream is again eventually periodic, so each point keeps
one finite normal form however often it has been moved.

An itinerary records, for each reduced word over the generators, which
partition piece the composed map sends a point to.  Words whose composition
is undefined at the point are dead, and once a word is dead every extension
of it is dead too; so the itinerary, a :class:`BallTable`, stores the live
words only, as keys, and reads the rest as ``S_EMPTY``.  Itineraries feed the
same tree-building recursion as total configurations, restricted to the live
words, which is why vertex degrees may drop below the regular 2M.
"""
from __future__ import annotations

from functools import cached_property
from itertools import islice
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from .errors import (
    ActionUndefinedError,
    Alphabet,
    InsufficientDepthError,
    ValidationError,
    Value,
    json_field,
    json_kind,
)
from .freegroup import (BallTable, Word, check_letters, inverse_digit, key_base, letter_digit,
                        signed_letters)
from .freegroup import S_EMPTY  # noqa: F401  kept here: bench/launch.py imports it

if TYPE_CHECKING:
    from .embed import EdgeEncoding, Embedding


class SymbolStream:
    """The one-sided stream ``pre cycle cycle ...``; ``cycle`` is nonempty.
    Compared by identity: ``((), (0, 1))`` and ``((0, 1), (0, 1))`` are one stream."""

    __slots__ = ("pre", "cycle")

    def __init__(self, pre: tuple, cycle: tuple) -> None:
        if not cycle:
            raise ValidationError("cycle must be nonempty")
        self.pre = pre
        self.cycle = cycle

    def __repr__(self) -> str:
        return f"SymbolStream(pre={self.pre!r}, cycle={self.cycle!r})"

    def prefix(self, k: int) -> tuple:
        pre, cycle = self.pre, self.cycle
        if k <= len(pre):
            return pre[:k]
        return (pre + cycle * -(-(k - len(pre)) // len(cycle)))[:k]

    def starts_with(self, prefix: tuple) -> bool:
        return self.prefix(len(prefix)) == tuple(prefix)

    def rewrite(self, consume: int, emit: tuple) -> "SymbolStream":
        """Remove the first ``consume`` symbols, then put ``emit`` in front."""
        pre, cycle = self.pre, self.cycle
        if consume <= len(pre):
            return SymbolStream(emit + pre[consume:], cycle)
        turn = (consume - len(pre)) % len(cycle)
        return SymbolStream(emit, cycle[turn:] + cycle[:turn])

    @staticmethod
    def eventually_periodic(pre: Iterable, cycle: Iterable) -> "SymbolStream":
        return SymbolStream(tuple(pre), tuple(cycle))


def _minimal(items: Iterable, prefix_of: Callable[[Any], tuple]) -> list:
    """Drop each item whose prefix extends another item's; keep the rest,
    shortest first.  Each prefix comes with one item."""
    def order(item) -> tuple:
        p = prefix_of(item)
        return len(p), tuple(map(str, p))

    items = set(items)
    prefixes = set(map(prefix_of, items))
    lengths = set(map(len, prefixes))
    return sorted((i for i, p in zip(items, map(prefix_of, items))
                   if not any(p[:n] in prefixes for n in lengths if n < len(p))), key=order)


class Cylinder(Value):
    """All streams starting with a fixed prefix."""

    _fields = ("prefix",)

    def __init__(self, prefix: tuple) -> None:
        self.prefix = prefix

    def meet(self, other: "Cylinder") -> "Cylinder | None":
        a, b = self.prefix, other.prefix
        if len(a) > len(b):
            a, b = b, a
        return Cylinder(b) if b[: len(a)] == a else None

    def __str__(self) -> str:
        return "C(" + " ".join(str(s) for s in self.prefix) + ")" if self.prefix else "C()"


class CylinderUnion(Value):
    """Finite (possibly empty) union of cylinders; normalized by subsumption."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[Cylinder, ...]) -> None:
        self.parts = parts

    @staticmethod
    def of(parts: Iterable[Cylinder]) -> "CylinderUnion":
        return CylinderUnion(tuple(_minimal(parts, attrgetter("prefix"))))

    @cached_property
    def _lookup(self) -> tuple[set[tuple], list[int]]:
        """The parts' prefixes and their lengths, shortest first."""
        prefixes = {c.prefix for c in self.parts}
        return prefixes, sorted(set(map(len, prefixes)))

    def contains(self, stream: SymbolStream) -> bool:
        prefixes, lengths = self._lookup
        for n in lengths:
            if stream.prefix(n) in prefixes:
                return True
        return False


class PartialMap:
    """Prefix rewrite on a cylinder-union domain.

    The stored domain is effective: every part already starts with the
    consumed prefix, so applying the map to a part is itself a rewrite.
    """

    def __init__(self, name: str, domain: CylinderUnion, consume: tuple, emit: tuple,
                 inverse_name: str) -> None:
        self.name = name
        self.domain = CylinderUnion.of(
            filter(None, (part.meet(Cylinder(consume)) for part in domain.parts)))
        self.consume = consume
        self.emit = emit
        self.inverse_name = inverse_name

    def __repr__(self) -> str:
        return f"PartialMap({self.name})"

    def defined_at(self, stream: SymbolStream) -> bool:
        return self.domain.contains(stream)

    def apply(self, stream: SymbolStream) -> SymbolStream:
        if not self.defined_at(stream):
            raise ActionUndefinedError(f"{self.name} undefined at {stream!r}")
        return stream.rewrite(len(self.consume), self.emit)

    @cached_property
    def _inverse(self) -> "PartialMap":
        cut = len(self.consume)
        image = CylinderUnion.of(Cylinder(self.emit + part.prefix[cut:])
                                 for part in self.domain.parts)
        return PartialMap(self.inverse_name, image, self.emit, self.consume, self.name)


def inverse_of(pm: PartialMap) -> PartialMap:
    """The inverse rewrite, defined exactly on the image of pm's domain.  Each
    map builds it once, so checking a loader's negatives builds none again."""
    return pm._inverse


_map_fields = attrgetter("name", "domain", "consume", "emit", "inverse_name")


def _check_names(positive: Iterable[PartialMap]) -> None:
    """Refuse generator names under which two words would share a text.

    A word's text joins its letters' tokens with spaces, a token being a
    generator's name, with ``'`` added for its inverse, and ``e`` is the
    empty word's text.  So each name must be nonempty, not ``e``, not end in
    ``'``, hold no character at or below ``" "``, and be unlike the others.
    """
    seen: dict[str, int] = {}
    for i, pm in enumerate(positive):
        name = pm.name
        problem = ("is empty" if not name
                   else "is the identity's text" if name == "e"
                   else "ends in \"'\", which marks an inverse" if name.endswith("'")
                   else "holds a character at or below ' '" if min(name) <= " "
                   else f"repeats generators[{seen[name]}].name" if name in seen
                   else None)
        if problem:
            raise ValidationError(f"generating system.generators[{i}].name {name!r} {problem}")
        seen[name] = i


class CylinderPseudogroup:
    """Finite symmetric generating family plus a clopen partition.

    ``negative[i]`` is exactly ``inverse_of(positive[i])``: the same name,
    domain cylinders, rewrite and inverse name.  The partition pieces must be
    pairwise disjoint and cover the whole stream space.  The constructor
    refuses any family :func:`validate_cgs` finds fault with.
    """

    def __init__(self, base_alphabet: Alphabet, positive: tuple[PartialMap, ...],
                 negative: tuple[PartialMap, ...],
                 partition: tuple[tuple[Any, CylinderUnion], ...]) -> None:
        _check_names(positive)
        self.base_alphabet = base_alphabet
        self.positive = positive
        self.negative = negative
        self.partition = partition
        problems = validate_cgs(self)
        if problems:
            raise ValidationError("invalid generating system: " + "; ".join(problems))

    @property
    def generator_count(self) -> int:
        return len(self.positive)

    @cached_property
    def symbols(self) -> Alphabet:
        return Alphabet(tuple(s for s, _ in self.partition))

    def map_for_letter(self, x: int) -> PartialMap:
        if not 1 <= abs(x) <= len(self.positive):
            raise ValidationError(f"letter {x} outside the generating family")
        return self.positive[x - 1] if x > 0 else self.negative[-x - 1]

    def classify(self, stream: SymbolStream) -> Any:
        """The symbol of the one piece that holds a stream over the alphabet."""
        return next(s for s, union in self.partition if union.contains(stream))


def validate_cgs(cgs: CylinderPseudogroup) -> list[str]:
    """What the ``CylinderPseudogroup`` constructor refuses: a negative that
    is not :func:`inverse_of` its positive, field for field, or is missing or
    left over, and partition pieces that overlap or leave a stream uncovered,
    each at the shortest cylinder where it shows (:func:`partition_faults`)."""
    positive, negative = cgs.positive, cgs.negative
    violations = [f"negative generator {i} is not the inverse of {pm.name}"
                  for i, pm in enumerate(positive)
                  if i >= len(negative) or _map_fields(negative[i]) != _map_fields(inverse_of(pm))]
    violations += [f"negative generator {i} has no positive"
                   for i in range(len(positive), len(negative))]
    # list three faults, then count the rest
    faults = partition_faults(cgs.partition, cgs.base_alphabet.symbols)
    violations += [f"cylinder on {prefix} met {met} partition pieces; expected exactly 1"
                   for prefix, met in islice(faults, 3)]
    rest = sum(1 for _ in faults)
    if rest:
        violations.append(f"and {rest} more cylinders not met by exactly 1 partition piece")
    return violations


def partition_faults(partition: Iterable[tuple[Any, CylinderUnion]],
                     symbols: tuple) -> Iterator[tuple[tuple, int]]:
    """``(prefix, cylinders)`` of each shortest cylinder that does not lie in
    exactly one of the partition's cylinders, in the alphabet's order.

    The prefixes form a trie whose nodes count the cylinders ending there.
    A node held by two or more is an overlap.  Below a node held by none, a
    symbol that leads to no prefix is a gap, as is the root of an empty
    partition.  The walk follows the alphabet's symbols, so a prefix holding
    another symbol holds no stream, and its cost follows the prefixes'
    total length, not the words as long as the longest prefix.
    """
    root: list = [0, {}]  # a node: [cylinders whose prefix ends here, children by symbol]
    for _, union in partition:
        for part in union.parts:
            node = root
            for s in part.prefix:
                node = node[1].setdefault(s, [0, {}])
            node[0] += 1
    # (node, cylinders holding it, its prefix as a (parent's, symbol) chain): the walk
    # keeps its own stack, so a prefix of any length needs no recursion
    stack = [(root, 0, None)]
    while stack:
        node, above, chain = stack.pop()
        met = above + node[0]
        if met > 1 or not (met or node[1]):
            prefix = []
            while chain:
                chain, s = chain
                prefix.append(s)
            yield tuple(reversed(prefix)), met
            continue
        for s in reversed(symbols):
            child = node[1].get(s)
            if child is not None or not met:
                stack.append((child or _LEAF, met, (chain, s)))


_LEAF = (0, {})  # a gap's node: no piece ends in it and nothing lies below it


class ComposedMap:
    """Symbolic composition along a reduced word, first letter acting first.

    Each piece pairs a domain prefix with the image prefix the composite
    rewrites it to; the composite's domain may be empty.
    """

    def __init__(self, word: Word, pieces: tuple[tuple[tuple, tuple], ...]) -> None:
        self.word = word
        self.pieces = pieces

    @property
    def domain(self) -> CylinderUnion:
        return CylinderUnion.of(Cylinder(dp) for dp, _ in self.pieces)

    def defined_at(self, stream: SymbolStream) -> bool:
        return any(stream.starts_with(dp) for dp, _ in self.pieces)

    def apply(self, stream: SymbolStream) -> SymbolStream:
        for dp, ip in self.pieces:
            if stream.starts_with(dp):
                return stream.rewrite(len(dp), ip)
        raise ActionUndefinedError(f"composite along {self.word} undefined at {stream!r}")


def compose_word(cgs: CylinderPseudogroup, g: Word) -> ComposedMap:
    """The pair (domain, composite map) for a reduced word over the generators."""
    if g.rank != cgs.generator_count:
        raise ValidationError(
            f"word over {g.rank} generators fed to a family of {cgs.generator_count}")
    pieces: list[tuple[tuple, tuple]] = [((), ())]
    for x in g.letters:
        pm = cgs.map_for_letter(x)
        consume = len(pm.consume)
        new: list[tuple[tuple, tuple]] = []
        for dp, ip in pieces:
            for met in filter(None, (part.meet(Cylinder(ip)) for part in pm.domain.parts)):
                new.append((dp + met.prefix[len(ip):], pm.emit + met.prefix[consume:]))
        pieces = _minimal(new, itemgetter(0))
    return ComposedMap(g, tuple(pieces))


def itinerary(cgs: CylinderPseudogroup, stream: SymbolStream, depth: int) -> BallTable:
    """Track the point along every live reduced word of length <= depth.

    The walk expands only the live frontier, one level at a time, so its
    work grows with the live words rather than with the whole ball.
    """
    if depth < 0:
        raise ValidationError(f"depth {depth} is negative")
    if not set(stream.pre + stream.cycle) <= set(cgs.base_alphabet.symbols):
        raise ValidationError(f"stream {stream!r} holds a symbol outside the system's alphabet")
    rank = cgs.generator_count
    check_letters((), rank)  # a rank below 1 raises
    base = key_base(rank)
    steps = list(enumerate(map(cgs.map_for_letter, signed_letters(rank)), 1))
    values = {0: cgs.classify(stream)}
    frontier = [(0, stream)]
    for _ in range(depth):
        nxt = []
        for k, point in frontier:
            back = inverse_digit(k % base)
            for d, pm in steps:
                if d != back and pm.defined_at(point):
                    moved = pm.apply(point)
                    child = k * base + d
                    values[child] = cgs.classify(moved)
                    nxt.append((child, moved))
        frontier = nxt
    return BallTable(rank, depth, cgs.symbols, values)


def embed_pseudo(itin: BallTable, enc: EdgeEncoding, depth: int) -> Embedding:
    """The tree of an itinerary: the usual recursion restricted to live words."""
    from .embed import _run_embedding  # here, so that itinerary alone never loads embed

    if enc.source_rank != itin.source_rank:
        raise ValidationError(
            f"encoding covers {enc.source_rank} generators, itinerary has {itin.source_rank}")
    if depth > itin.depth:
        raise InsufficientDepthError(
            f"embedding to depth {depth} needs an itinerary of depth >= {depth}")
    if depth < 0:
        raise ValidationError(f"depth {depth} is negative")

    values, base = itin.values, key_base(itin.source_rank)

    def step(k: int, x: int) -> tuple[Any, int]:
        child = k * base + letter_digit(x)
        return values.get(child), child

    return _run_embedding(itin.source_rank, depth, (values.get(0), 0), step, enc)


def builtin_n0_shift(alph: Alphabet) -> CylinderPseudogroup:
    """The one-sided full shift, cut into one drop-map per leading symbol.

    Each positive generator removes a fixed leading symbol (domain: the
    cylinder on that symbol); its inverse prepends the symbol everywhere.
    The partition simply reads the leading symbol.
    """
    positive = []
    negative = []
    partition = []
    for s in alph:
        drop = PartialMap(
            name=f"1_{s}",
            domain=CylinderUnion((Cylinder((s,)),)),
            consume=(s,),
            emit=(),
            inverse_name=f"1_{s}'",
        )
        positive.append(drop)
        negative.append(inverse_of(drop))
        partition.append((s, CylinderUnion((Cylinder((s,)),))))
    return CylinderPseudogroup(alph, tuple(positive), tuple(negative), tuple(partition))


def _prefix_from_json(obj, alph: Alphabet, name: str) -> tuple:
    """The prefix a JSON list of symbols spells, or a string whose characters
    are the symbols (``"consume": "01"``); ``name`` is its path."""
    return tuple(alph.match(t) for t in json_kind(obj, (list, str), name))


def cgs_to_json(cgs: CylinderPseudogroup) -> dict:
    return {
        "alphabet": list(cgs.base_alphabet.symbols),
        "generators": [
            {
                "name": pm.name,
                "domain": [[str(s) for s in part.prefix] for part in pm.domain.parts],
                "rewrite": {"consume": [str(s) for s in pm.consume],
                            "emit": [str(s) for s in pm.emit]},
            }
            for pm in cgs.positive
        ],
        "partition": {
            str(s): [[str(t) for t in part.prefix] for part in union.parts]
            for s, union in cgs.partition
        },
    }


def _cylinders_from_json(obj, alph: Alphabet, name: str) -> CylinderUnion:
    """The union of the cylinders on a JSON list of prefixes; ``name`` is its path."""
    return CylinderUnion.of(Cylinder(_prefix_from_json(p, alph, f"{name}[{i}]"))
                            for i, p in enumerate(json_kind(obj, list, name)))


def cgs_from_json(obj: dict) -> CylinderPseudogroup:
    system = "generating system"
    alph = Alphabet(tuple(json_kind(json_field(obj, "alphabet", system), list,
                                    f"{system}.alphabet")))
    positive = []
    negative = []
    for entry in json_kind(json_field(obj, "generators", system), list, f"{system}.generators"):
        domain = _cylinders_from_json(json_field(entry, "domain", "generator"), alph,
                                      "generator.domain")
        rewrite = json_field(entry, "rewrite", "generator")
        name = json_kind(json_field(entry, "name", "generator"), str, "generator.name")
        pm = PartialMap(
            name=name,
            domain=domain,
            consume=_prefix_from_json(json_field(rewrite, "consume", "rewrite"), alph,
                                      "generator.rewrite.consume"),
            emit=_prefix_from_json(json_field(rewrite, "emit", "rewrite"), alph,
                                   "generator.rewrite.emit"),
            inverse_name=name + "'",
        )
        positive.append(pm)
        negative.append(inverse_of(pm))
    partition = tuple(
        (alph.match(token), _cylinders_from_json(prefixes, alph, f"{system}.partition.{token}"))
        for token, prefixes in json_kind(json_field(obj, "partition", system), dict,
                                         f"{system}.partition").items())
    return CylinderPseudogroup(alph, tuple(positive), tuple(negative), partition)


def stream_from_json(obj: dict, alph: Alphabet) -> SymbolStream:
    cycle = json_kind(json_field(obj, "cycle", "point"), list, "point.cycle")
    pre = tuple(alph.match(t) for t in json_kind(obj.get("pre", []), list, "point.pre"))
    return SymbolStream.eventually_periodic(pre, (alph.match(t) for t in cycle))
