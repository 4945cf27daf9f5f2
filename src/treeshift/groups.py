"""Finitely generated group models with computable normal forms.

A :class:`GroupModel` is a quotient of a free group F_M presented through a
normalizer: a pure function sending each reduced word to a canonical payload
that is constant exactly on the fibers of the quotient map.  Built-in models
cover free groups and integer lattices; anything else is supplied as a
user callback (no completion procedure is attempted here).

Every :class:`GroupElement` keeps a representative word alongside its
payload, so multiplication works uniformly: multiply the representatives,
renormalize.  Equality and hashing use the payload only.

A walk right-multiplies by one generator at a time (:meth:`GroupModel.walk`).
Free and lattice models step from payload to payload: append the letter, or
add the generator's signed image.  A custom model has only its normalizer, so
its walk carries the representative word and renormalizes it at every step.

On Z, :func:`config_metric_interval` bounds the two-sided sequence metric.
"""
from __future__ import annotations

from operator import add
from typing import TYPE_CHECKING, Any, Callable

from . import shift
from .errors import (
    GroupMismatchError,
    RankMismatchError,
    ValidationError,
    Value,
    is_int,
    json_field,
    json_int,
)
from .freegroup import Word, extend, identity as word_identity

if TYPE_CHECKING:  # imported where it is used: it loads decimal too
    from fractions import Fraction


class GroupElement(Value):
    """Canonical element of a group model: payload equality is group equality."""

    __slots__ = ("group_key", "payload", "rep")
    _fields = ("group_key", "payload")

    def __init__(self, group_key: tuple, payload: Any, rep: Word) -> None:
        self.group_key = group_key
        self.payload = payload
        self.rep = rep

    def __str__(self) -> str:
        return str(self.payload)


class GroupModel(Value):
    """A finitely generated group with a decidable normal form."""

    _fields = ("key",)

    def __init__(self, kind: str, key: tuple, generator_count: int,
                 normalizer: Callable[[Word], Any],
                 step: Callable[[Any, int], Any] | None = None):
        self.kind = kind
        self.key = key
        self.generator_count = generator_count
        self._normalizer = normalizer
        self._step = step  # payload of g·x from the payload of g, if known

    def __repr__(self) -> str:
        return f"GroupModel({self.key})"

    def normalize(self, w: Word) -> GroupElement:
        if w.rank != self.generator_count:
            raise RankMismatchError(
                f"word of rank {w.rank} fed to a model on {self.generator_count} generators")
        return GroupElement(self.key, self._normalizer(w), w)

    def identity(self) -> GroupElement:
        return self.normalize(word_identity(self.generator_count))

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        for e in (a, b):
            if e.group_key != self.key:
                raise GroupMismatchError(f"element {e} does not belong to {self!r}")
        return self.normalize(a.rep * b.rep)

    def walk(self, g: GroupElement) -> tuple[Any, Callable[[Any, int], Any],
                                             Callable[[Any], Any] | None]:
        """A walk from g by right generator steps: ``(state, step, payload)``.

        ``state`` stands for g, ``step(state, x)`` for the element times the
        letter x, and ``payload(state)`` is the payload of the element a state
        stands for; ``payload`` is None when every state is its own payload.
        """
        if g.group_key != self.key:
            raise GroupMismatchError(f"element {g} does not belong to {self!r}")
        if self._step is None:
            return g.rep, extend, self._normalizer
        return g.payload, self._step, None


def free_group(generator_count: int) -> GroupModel:
    """The free group F_M itself: the normal form is the reduced word."""
    return GroupModel("free", ("free", generator_count), generator_count, lambda w: w,
                      step=extend)


def integer_lattice(d: int | None = None, images=None) -> GroupModel:
    """Z^d with each generator mapped to a fixed integer vector.

    ``images[i]`` is the vector assigned to generator i; by default the
    standard basis of Z^d, giving the usual lattice on d generators.
    """
    if images is None:
        if d is None:
            raise ValidationError("integer_lattice needs d or images")
        images = [[1 if j == i else 0 for j in range(d)] for i in range(d)]
    try:
        vectors = tuple(tuple(v) for v in images)
    except TypeError:
        vectors = None
    if vectors is None or not all(is_int(c) for v in vectors for c in v):
        raise ValidationError(f"lattice images {images!r} must be lists of integers")
    images = vectors
    if d is None:
        d = len(images[0]) if images else 0
    if any(len(v) != d for v in images):
        raise ValidationError("lattice images must all have dimension d")
    if not images:
        raise ValidationError("integer_lattice needs at least one generator")

    def normalizer(w: Word) -> tuple[int, ...]:
        vec = [0] * d
        for x in w.letters:
            img = images[abs(x) - 1]
            sign = 1 if x > 0 else -1
            for j in range(d):
                vec[j] += sign * img[j]
        return tuple(vec)

    moves = {}
    for i, v in enumerate(images, 1):
        moves[i], moves[-i] = v, tuple(-c for c in v)

    def step(vec: tuple[int, ...], x: int) -> tuple[int, ...]:
        return tuple(map(add, vec, moves[x]))

    return GroupModel("lattice", ("lattice", d, images), len(images), normalizer, step)


def custom_group(generator_count: int, normalizer: Callable[[Word], Any],
                 name: str = "custom") -> GroupModel:
    """A group given by a user normalizer.

    The callback must be pure, return hashable payloads, and be constant on
    the fibers of the quotient map (this is a contract, not something the
    library can verify).  The model's key holds the normalizer itself, so two
    models are equal exactly when they share it.
    """
    return GroupModel("custom", ("custom", name, normalizer), generator_count, normalizer)


def lattice_unit_element(model: GroupModel, k: int) -> GroupElement:
    """The element k of a rank-1 lattice, via a generator of image +-1."""
    if model.kind != "lattice" or model.key[1] != 1:
        raise ValidationError("lattice_unit_element needs a 1-dimensional lattice model")
    images = model.key[2]
    for i, (c,) in enumerate(images):
        if c in (1, -1):
            letter = (i + 1) if c * k >= 0 else -(i + 1)
            return model.normalize(Word(model.generator_count, (letter,) * abs(k)))
    raise ValidationError("no generator with image +1 or -1")


class MetricInterval:
    """Partial sum plus a rigorous tail bound: the true value lies inside."""

    def __init__(self, lower: Fraction, upper: Fraction) -> None:
        self.lower = lower
        self.upper = upper

    def contains(self, x) -> bool:
        return self.lower <= x <= self.upper

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def config_metric_interval(s1: shift.Config, s2: shift.Config,
                           tail_cutoff: int) -> MetricInterval:
    """Two-sided sequence metric sum_i 2^(-|i|) |s1(i) - s2(i)| over Z.

    Symbols are compared through their alphabet indices.  The partial sum
    runs over |i| <= tail_cutoff; the tail is bounded by the largest
    possible symbol gap times the remaining geometric mass.
    """
    from fractions import Fraction

    if s1.group != s2.group:
        raise GroupMismatchError("configurations live on different groups")
    if s1.alphabet != s2.alphabet:
        raise ValidationError("configurations use different alphabets")
    alph = s1.alphabet
    total = Fraction(0)
    for i in range(-tail_cutoff, tail_cutoff + 1):
        g = lattice_unit_element(s1.group, i)
        gap = abs(alph.index(s1.eval(g)) - alph.index(s2.eval(g)))
        total += Fraction(gap, 2 ** abs(i))
    tail = Fraction(2 * (len(alph) - 1), 2 ** tail_cutoff)
    return MetricInterval(total, total + tail)


def expansivity_witness(s1: shift.Config, s2: shift.Config, cap: int) -> int | None:
    """A shift n with metric lower bound >= 1 after translating both by n.

    Works for configurations over Z: scans |n| <= cap for a disagreement and
    certifies it through the metric's position-0 term.
    """
    for n in sorted(range(-cap, cap + 1), key=abs):
        g = lattice_unit_element(s1.group, n)
        if s1.eval(g) != s2.eval(g):
            shifted = config_metric_interval(s1.shifted(g), s2.shifted(g), 0)
            if shifted.lower >= 1:
                return n
    return None



class _PulledRule(shift._Stepped):
    """:func:`induced_config`'s rule: ``sigma``'s rule at a free word's image
    in ``sigma``'s group.  The pullback has ``sigma``'s alphabet, so it
    checks each symbol as ``sigma`` does, and ``sigma``'s walk checks its own."""

    def __init__(self, sigma: shift.Config) -> None:
        self.sigma = sigma

    def __call__(self, w: Word) -> Any:
        sigma = self.sigma
        return sigma.rule(sigma.group.normalize(sigma.translate.rep * w).payload)

    def walk(self, start: Word, symbols: tuple):
        """``sigma``'s own walk from the image of ``start``, one step of its
        group per word: its step is ``checked`` where ``sigma``'s is."""
        sigma = self.sigma
        return (sigma.shifted(start) if start.letters else sigma).walk()


def induced_config(model: GroupModel, sigma: shift.Config) -> shift.Config:
    """Pull a configuration on G back to the free group on G's generators.

    The result evaluates a word by normalizing it into G and reading the
    original configuration there, so words in the same fiber always agree
    and relators collapse.  Its walk (:meth:`shift.Config.walk`) is the
    original configuration's from the image of its translate, one step of
    G per word.
    """
    if sigma.group != model:
        raise GroupMismatchError("configuration does not live on the given model")
    fm = free_group(model.generator_count)
    return shift.Config(fm, sigma.alphabet, _PulledRule(sigma))


def group_from_json(obj: dict) -> GroupModel:
    kind = json_field(obj, "kind", "group")
    if kind == "free":
        return free_group(json_int(obj, "M", "group"))
    if kind == "lattice":
        return integer_lattice(d=json_int(obj, "d", "group"), images=obj.get("images"))
    raise ValidationError(f"unknown group kind {kind!r}")
