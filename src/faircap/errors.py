"""Exception hierarchy shared across the toolkit.

Each class is one outcome of ``faircap run``, ``report`` and ``validate``:

* :class:`ConfigError` -- a malformed or inconsistent config file:
  ``config error:``, exit 1.
* :class:`IngestError` -- a data file that cannot be read (a missing
  column, a bad cell, the wrong protected levels): ``data error:``, exit 2.
* :class:`InfeasibilityError` -- an instance that admits no solution under
  its constraints, with a message naming what was required and what was
  found: ``infeasible:``, exit 2, and status ``infeasible`` within a sweep.
* :class:`ContractViolationError` -- a broken precondition: ``error:``,
  exit 2, and status ``error`` within a sweep.

An ``OSError`` prints ``i/o error:`` and exits 2.
"""


class FaircapError(Exception):
    """Base class for all toolkit errors."""


class ContractViolationError(FaircapError, ValueError):
    """An argument violates a documented precondition."""


class InfeasibilityError(FaircapError):
    """The instance admits no solution under the given constraints."""


class IngestError(FaircapError):
    """A dataset or sweep output file cannot be loaded."""


class ConfigError(FaircapError):
    """An experiment config file is malformed or inconsistent."""
