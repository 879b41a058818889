"""Exact Frobenius-power invariants of local rings in prime characteristic.

The package computes normalized Frobenius colengths and splitting numbers
of local rings presented by polynomial data, runs the associated purity
tests, realizes one-dimensional tame rings from branch data, and scans
families of localizations for semicontinuity behavior. Everything is exact
arithmetic over F_p and rationals; no floating point enters any result.
"""

from __future__ import annotations

from .engine import Budget, Ideal, groebner, normal_form
from .errors import (
    BudgetExceededError,
    CapacityError,
    KunzError,
    ParseError,
    PreconditionError,
    PrecisionLossError,
)
from .field import FieldConfig, frobenius_exponent, is_prime
from .poly import PolyRing, Polynomial, parse_polynomial

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "BudgetExceededError",
    "CapacityError",
    "FieldConfig",
    "Ideal",
    "KunzError",
    "ParseError",
    "PolyRing",
    "Polynomial",
    "PreconditionError",
    "PrecisionLossError",
    "__version__",
    "frobenius_exponent",
    "groebner",
    "is_prime",
    "normal_form",
    "parse_polynomial",
]
