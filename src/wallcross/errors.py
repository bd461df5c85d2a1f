"""Exception types shared across the package."""


class WallCrossError(Exception):
    """Base class for all package errors."""


class ModelMismatchError(WallCrossError):
    """Two elements built over different ring models were combined."""


class PreconditionError(WallCrossError):
    """An operation was called with arguments violating its contract."""


class InvalidWallError(WallCrossError):
    """Numeric wall data fails the wall conditions (parity, range, rank)."""


class RegimeError(WallCrossError):
    """A computation was requested outside the regime it is valid for."""


class SchemaError(WallCrossError):
    """An input document does not match the expected JSON schema."""


class InvariantError(WallCrossError):
    """Two exact routes to the same quantity disagree; a program defect."""
