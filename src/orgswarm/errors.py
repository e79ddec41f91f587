"""The package's exception types, one per CLI exit code, and its value-type checks."""

import sys


class ConfigError(ValueError):
    """An experiment configuration is invalid (CLI exit code 2).

    Carries the offending field names in ``fields`` so callers can report
    every problem at once.
    """

    def __init__(self, message: str, fields: list[str] | None = None):
        super().__init__(message)
        self.fields = fields or []


class InvariantViolation(RuntimeError):
    """A worker process died, so the run could not finish (CLI exit code 3)."""


def is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite int or float that is not a bool (nan and huge ints fail too)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)
