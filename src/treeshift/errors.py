"""Exception taxonomy shared across the package, and the JSON field checks."""


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
