"""Exception types shared across the library."""


class MoveStructError(Exception):
    """Base class for all library errors."""


class InvalidSpecError(MoveStructError, ValueError):
    """A column spec or table layout is malformed (e.g. width outside 1..64)."""


class InvalidInputError(MoveStructError, ValueError):
    """Input data violates a precondition (bad permutation, bad RLBWT, ...)."""


class InvalidParameterError(MoveStructError, ValueError):
    """A splitting or query parameter is out of range."""


class BoundsError(MoveStructError, IndexError):
    """A row, column, position, or cursor is out of range."""


class ValueOverflowError(MoveStructError, OverflowError):
    """A value does not fit in its column's bitwidth."""


class MissingColumnError(MoveStructError, KeyError):
    """A table lacks an extra column that the operation needs."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr


class FormatError(MoveStructError, ValueError):
    """A serialized file is malformed or fails its checksum."""
