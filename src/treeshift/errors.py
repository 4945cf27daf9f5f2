"""Exception taxonomy, checks on JSON input and the equality of value types."""
from typing import Any, Iterable


class TreeshiftError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGeneratorError(TreeshiftError):
    """A generator index lies outside the rank of its free group."""


class RankMismatchError(TreeshiftError):
    """Two values over free groups of different ranks were combined."""


class GroupMismatchError(TreeshiftError):
    """An element or configuration was used with the wrong group."""


class ValidationError(TreeshiftError):
    """A structural invariant does not hold (bad tree, encoding, scenario...)."""


class ActionUndefinedError(TreeshiftError):
    """A partial action was applied outside its domain."""


class InsufficientDepthError(TreeshiftError):
    """The requested answer needs data beyond the stored truncation depth."""


class NotInImageError(TreeshiftError):
    """A decoded edge label is not in the range of the edge encoding."""


class ConsistencyError(TreeshiftError):
    """Decoding met contradictory or missing symbol evidence."""


def json_field(obj, key: str, what: str):
    """``obj[key]`` of the JSON object ``obj``, which messages call ``what``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"{what} has no {key!r} field")
    return obj[key]


def is_int(value) -> bool:
    """An integer, and not a bool (JSON's ``true`` is no integer)."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_int(obj, key: str, what: str) -> int:
    value = json_field(obj, key, what)
    if not is_int(value):
        raise ValidationError(f"{what} field {key!r} must be an integer, got {value!r}")
    return value


_KINDS = {list: "a list", dict: "an object", str: "a string"}


def json_kind(value, kind: type | tuple[type, ...], name: str):
    """``value`` if it is a JSON list, object or string as ``kind`` (a type
    or a tuple of them) asks; ``name`` is its path, such as ``point.cycle``."""
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise ValidationError(
            f"{name} must be {' or '.join(map(_KINDS.__getitem__, kinds))}, got {value!r}")
    return value


class Value:
    """Equality and hash by the attributes named in ``_fields``.  A value is
    never equal to an instance of another class, even one with the same
    fields: ``__eq__`` returns NotImplemented for it."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, f) for f in self._fields))


class Alphabet(Value):
    """Ordered finite symbol set, checked as a JSON symbol list; :meth:`match` reads tokens."""

    _fields = ("symbols",)

    def __init__(self, symbols: tuple) -> None:
        if len(symbols) < 1:
            raise ValidationError("alphabet must hold at least one symbol")
        try:
            distinct = len(set(symbols))
        except TypeError:  # a list or an object
            distinct = None
        # JSON's null, true and false are not symbols: an itinerary prints null for dead words
        if distinct is None or any(s is None or s.__class__ is bool for s in symbols):
            raise ValidationError(
                f"alphabet symbols must be strings or numbers, got {symbols!r}")
        if distinct != len(symbols):
            raise ValidationError("alphabet symbols must be distinct")
        self.symbols = symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, s) -> bool:
        return s in self.symbols

    def index(self, s) -> int:
        try:
            return self.symbols.index(s)
        except ValueError:
            raise ValidationError(f"symbol {s!r} not in alphabet {self.symbols}") from None

    def match(self, token) -> Any:
        """Find the symbol equal to ``token`` or to its string rendering."""
        if token in self.symbols:
            return self.symbols[self.symbols.index(token)]
        for s in self.symbols:
            if str(s) == str(token):
                return s
        raise ValidationError(f"token {token!r} matches no symbol of {self.symbols}")


def alphabet(symbols: Iterable) -> Alphabet:
    return Alphabet(tuple(symbols))
