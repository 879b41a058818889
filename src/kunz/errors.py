"""Exception hierarchy shared by every kunz module.

Each class carries the process exit code the CLI ends with on it, as
exit_code; new error types should subclass one of these rather than
Exception.
"""

from __future__ import annotations


class KunzError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ParseError(KunzError):
    """Malformed text input (polynomial expressions, ring files, curve files).

    Carries an optional position so callers can point at the offending
    character.
    """

    exit_code = 2

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PreconditionError(KunzError):
    """A documented mathematical precondition does not hold for the input."""

    exit_code = 3


class CapacityError(KunzError):
    """An exponent or size limit would overflow its declared capacity."""

    exit_code = 5


class BudgetExceededError(KunzError):
    """A computation hit the configured pair/degree/time budget."""

    exit_code = 4

    def __init__(self, message: str, *, pairs: int | None = None,
                 max_degree_seen: int | None = None) -> None:
        self.pairs = pairs
        self.max_degree_seen = max_degree_seen
        super().__init__(message)


class PrecisionLossError(KunzError):
    """A truncated power series computation cannot certify the answer.

    ``required`` suggests a precision that would let the caller retry.
    """

    exit_code = 6

    def __init__(self, message: str, required: int | None = None) -> None:
        self.required = required
        if required is not None:
            message = f"{message} (retry with precision >= {required})"
        super().__init__(message)
