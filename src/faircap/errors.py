"""Exception hierarchy shared across the toolkit.

Each class is one outcome of ``faircap run``, ``report`` and ``validate``,
and carries it: the ``prefix`` of its stderr line, its ``exit_code``, and
the ``status`` of a run record that it ends within a sweep. An ``OSError``
prints ``i/o error:`` and exits 2.
"""


class FaircapError(Exception):
    """Base class for all toolkit errors."""

    prefix, exit_code, status = "error", 2, "error"


class ContractViolationError(FaircapError, ValueError):
    """An argument violates a documented precondition."""


class InfeasibilityError(FaircapError):
    """The instance admits no solution under the given constraints; the
    message names what was required and what was found."""

    prefix, status = "infeasible", "infeasible"


class IngestError(FaircapError):
    """A dataset or sweep output file cannot be loaded (a missing column, a
    bad cell, the wrong protected levels)."""

    prefix = "data error"


class ConfigError(FaircapError):
    """An experiment config file is malformed or inconsistent."""

    prefix, exit_code = "config error", 1
