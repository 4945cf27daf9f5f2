"""Exception taxonomy shared across the package."""


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
