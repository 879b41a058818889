"""Exact arithmetic in the prime field F_p for a runtime-chosen prime p.

The prime is a runtime value so one process can sweep several primes.
FieldConfig refuses a p that is not a prime below 2^31, and is_prime
decides primality there by trial division. Coefficients are plain ints
in [0, p) everywhere, reduced against the FieldConfig that carries p.
RowSpace is the one Gaussian elimination over F_p: an incremental row
space that also counts ranks.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .errors import CapacityError, PreconditionError

MAX_PRIME = 2**31
EXPONENT_CAPACITY_BITS = 63


def is_prime(n: int) -> bool:
    """Whether n is prime, for n < 2^31 (MAX_PRIME); larger n are refused.

    Trial division by every d from 2 to isqrt(n): at most 46 340 divisions,
    a few ms at the largest n, and a field checks its prime once.
    """
    if n >= MAX_PRIME:
        raise PreconditionError(
            f"primality is decided below 2^31 only, got {n}")
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


_FieldConfig = namedtuple("_FieldConfig", "p")


class FieldConfig(_FieldConfig):
    """The field F_p, p an int. Immutable, safe to share between threads."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FieldConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.p, int) or not 2 <= self.p < MAX_PRIME:
            raise PreconditionError(
                f"characteristic must be an integer in [2, 2^31), got {self.p!r}")
        if not is_prime(self.p):
            raise PreconditionError(f"{self.p} is not prime")
        return self

    def __repr__(self) -> str:
        return f"FieldConfig(p={self.p})"


class RowSpace:
    """Incremental row space over F_p with echelon pivot rows."""

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, list[int]] = {}

    def _reduce(self, row: list[int]) -> list[int]:
        p = self.p
        row = [v % p for v in row]
        for col, pivot in self.pivots.items():
            c = row[col]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, pivot)]
        return row

    def add(self, row: list[int]) -> bool:
        """Insert a row; True when it enlarges the space."""
        row = self._reduce(row)
        for col, c in enumerate(row):
            if c:
                inv = pow(c, -1, self.p)
                self.pivots[col] = [(v * inv) % self.p for v in row]
                return True
        return False


def frobenius_exponent(p: int, e: int) -> int:
    """Return q = p^e, refusing results that do not fit in 63 bits.

    Downstream monomial exponents scale with q, so an oversized q is
    refused here with a CapacityError (exit code 5) before any computation
    starts. Since p >= 2 gives p^e >= 2^e, every e of at least
    EXPONENT_CAPACITY_BITS is refused before the power is taken, which
    for a huge e would not end. Polynomial exponents have their own, lower
    cap (kernel.MAX_EXPONENT).
    """
    if e < 0:
        raise PreconditionError(f"Frobenius exponent must be non-negative, got {e}")
    if (e >= EXPONENT_CAPACITY_BITS
            or (q := p**e).bit_length() > EXPONENT_CAPACITY_BITS):
        raise CapacityError(
            f"p^e = {p}^{e} exceeds the {EXPONENT_CAPACITY_BITS}-bit capacity")
    return q


def frobenius_levels(p: int, e_max: int, name: str = "e_max"
                     ) -> tuple[tuple[int, int], ...]:
    """The levels ((1, p), (2, p^2), .., (e_max, p^e_max)) a command walks.

    Every walk of the Frobenius levels takes its range here. An e_max below
    1 is refused with a PreconditionError naming it as name, and a
    p^e_max past the 63-bit capacity with frobenius_exponent's
    CapacityError, both before any level runs.
    """
    if e_max < 1:
        raise PreconditionError(f"{name} must be >= 1, got {e_max}")
    frobenius_exponent(p, e_max)
    return tuple((e, p**e) for e in range(1, e_max + 1))


def require_frobenius_power(p: int, q: int) -> None:
    """Refuse q unless it is p^e for some e >= 0."""
    m = q
    while m > 1 and m % p == 0:
        m //= p
    if m != 1:
        raise PreconditionError(f"{q} is not a power of the characteristic {p}")
