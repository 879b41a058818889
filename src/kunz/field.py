"""Exact arithmetic in the prime field F_p for a runtime-chosen prime p.

The prime is a runtime value so one process can sweep several primes.
Coefficients are plain ints in [0, p) everywhere, reduced against the
FieldConfig that carries p. RowSpace is the one Gaussian elimination over
F_p: an incremental row space that also counts ranks.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapacityError, PreconditionError

MAX_PRIME = 2**31
EXPONENT_CAPACITY_BITS = 63

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality check for 0 <= n < 2^31.

    Trial division by a few small primes, then Miller-Rabin with the bases
    2, 3, 5, 7, which is exact for every n below 3 215 031 751 (> 2^31).
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _FieldConfig(NamedTuple):
    p: int


class FieldConfig(_FieldConfig):
    """The field F_p. Immutable, safe to share between threads."""

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

    def contains(self, row: list[int]) -> bool:
        return not any(self._reduce(row))


def frobenius_exponent(p: int, e: int) -> int:
    """Return q = p^e, refusing results that do not fit in 63 bits.

    Downstream monomial exponents scale with q, so an oversized q is
    refused here with a CapacityError (exit code 5) before any computation
    starts. Polynomial exponents have their own, lower cap
    (kernel.MAX_EXPONENT).
    """
    if e < 0:
        raise PreconditionError(f"Frobenius exponent must be non-negative, got {e}")
    q = p**e
    if q.bit_length() > EXPONENT_CAPACITY_BITS:
        raise CapacityError(
            f"p^e = {p}^{e} exceeds the {EXPONENT_CAPACITY_BITS}-bit capacity")
    return q
