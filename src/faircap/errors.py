"""Exception hierarchy shared across the toolkit.

Precondition violations raise :class:`ContractViolationError`; problem
instances that cannot be solved (insufficient balance, capacity too tight)
raise :class:`InfeasibilityError` with a message naming what was required
and what was found.
"""


class FaircapError(Exception):
    """Base class for all toolkit errors."""


class ContractViolationError(FaircapError, ValueError):
    """An argument violates a documented precondition."""


class InfeasibilityError(FaircapError):
    """The instance admits no solution under the given constraints."""


class UnsupportedThresholdError(FaircapError):
    """Balance threshold shape not handled by the decomposition routines."""


class IngestError(FaircapError):
    """Base class for dataset loading problems."""


class EmptyFileError(IngestError):
    """The CSV file has no header or no data rows."""


class MissingColumnError(IngestError):
    """A column named in the spec does not exist in the file."""


class ProtectedLevelsError(IngestError):
    """The protected column does not carry exactly two distinct values."""


class CellParseError(IngestError):
    """A cell in a numeric column could not be parsed."""


class MissingValueError(IngestError):
    """A row contains an empty cell."""


class ConfigError(FaircapError):
    """An experiment config file is malformed or inconsistent."""
