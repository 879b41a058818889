"""Exact Frobenius-power invariants of local rings in prime characteristic.

The package computes normalized Frobenius colengths and splitting numbers
of local rings presented by polynomial data, runs the associated purity
tests, realizes one-dimensional tame rings from branch data, and scans
families of localizations for semicontinuity behavior. Everything is exact
arithmetic over F_p and rationals; no floating point enters any result.

Importing the package runs none of its modules. Each name in __all__ is
looked up in its defining module on first use (PEP 562), so `from kunz
import Ideal` imports kunz.engine, `from kunz import Budget` imports only
kunz.budget and kunz.errors, and `import kunz.cli` alone compiles neither
the Groebner engine nor the polynomial layer.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "Budget": "budget",
    "Ideal": "engine",
    "groebner": "engine",
    "normal_form": "engine",
    "BudgetExceededError": "errors",
    "CapacityError": "errors",
    "KunzError": "errors",
    "ParseError": "errors",
    "PreconditionError": "errors",
    "PrecisionLossError": "errors",
    "FieldConfig": "field",
    "frobenius_exponent": "field",
    "is_prime": "field",
    "PolyRing": "poly",
    "Polynomial": "poly",
    "parse_polynomial": "poly",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
