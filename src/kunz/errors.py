"""Exception hierarchy shared by every kunz module.

Each class carries the process exit code the CLI ends with on it, as
exit_code; new error types should subclass one of these rather than
Exception. MAX_DIGITS is the one limit on the decimal digits of an int,
which the polynomial parser and the result documents both obey.
"""

from __future__ import annotations

# The most decimal digits of an int the package reads or writes: Python's
# default limit on int-to-decimal conversion (sys.get_int_max_str_digits),
# which int() on a literal and JSON output obey. Past it, a ParseError or
# a CapacityError refuses the number.
MAX_DIGITS = 4300


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
    Only the series oracle (curves.discriminant_valuation and the series
    layer) raises it, and no command runs that, so no command exits 6.
    """

    exit_code = 6

    def __init__(self, message: str, required: int | None = None) -> None:
        self.required = required
        if required is not None:
            message = f"{message} (retry with precision >= {required})"
        super().__init__(message)
