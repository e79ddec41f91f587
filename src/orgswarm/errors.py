"""Exception types and the value-type checks shared across the package."""

import sys


class OrgswarmError(Exception):
    """Base class for all orgswarm errors."""


class InvalidParameterError(OrgswarmError, ValueError):
    """A numeric parameter is outside its legal range."""


class ConfigError(OrgswarmError, ValueError):
    """An experiment configuration is invalid.

    Carries the offending field names in ``fields`` so callers can report
    every problem at once.
    """

    def __init__(self, message: str, fields: list[str] | None = None):
        super().__init__(message)
        self.fields = fields or []


class InvariantViolation(OrgswarmError, RuntimeError):
    """An internal simulation invariant was broken (should be unreachable)."""


def is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite int or float that is not a bool (nan and huge ints fail too)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)
