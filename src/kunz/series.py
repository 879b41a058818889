"""Truncated power series over F_p with explicit precision tracking.

A TruncatedSeries holds the coefficients of f below its precision; prec
None means the series is an exact polynomial. Arithmetic propagates the
weakest precision of the operands (shifted by valuations for products), so
a coefficient read or a determinant valuation either returns a certified
answer or raises a precision error carrying a retry hint. This is the
carrier for the trace-form and discriminant computations on realized curve
branches.

Products use Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009). Each operand, shifted by its lowest exponent, is packed into one
integer with the coefficient of t^m in the w-byte little-endian slot m. A
product coefficient is a sum of at most n = min(len a, len b) terms, each
at most (p-1)^2, so when 8w > bit_length((p-1)^2 * n) no slot carries into
the next: one big-integer multiplication gives every slot exactly, and each
is read back and reduced mod p. The convolution is exact, so results are
the same as the schoolbook product's.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .errors import PreconditionError, PrecisionLossError

def _min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _pack(terms: tuple[tuple[int, int], ...], low: int, w: int) -> int:
    """The integer whose w-byte little-endian slot m - low holds the
    coefficient of t^m."""
    slots = [bytes(w)] * (terms[-1][0] - low + 1)
    for m, c in terms:
        slots[m - low] = c.to_bytes(w, "little")
    return int.from_bytes(b"".join(slots), "little")


class TruncatedSeries(NamedTuple):
    """f = sum of coeffs[m] * t^m for m < prec, plus O(t^prec)."""

    p: int
    coeffs: tuple[tuple[int, int], ...]
    prec: int | None = None

    @classmethod
    def make(cls, p: int, coeffs: dict[int, int],
             prec: int | None = None) -> TruncatedSeries:
        clean = {}
        for m, c in coeffs.items():
            if m < 0:
                raise PreconditionError(f"negative exponent {m} in a series")
            c %= p
            if c and (prec is None or m < prec):
                clean[m] = c
        return cls(p, tuple(sorted(clean.items())), prec)

    @classmethod
    def zero(cls, p: int, prec: int | None = None) -> TruncatedSeries:
        return cls(p, (), prec)

    @classmethod
    def one(cls, p: int) -> TruncatedSeries:
        return cls(p, ((0, 1),), None)

    @classmethod
    def monomial(cls, p: int, exponent: int, coeff: int = 1) -> TruncatedSeries:
        return cls.make(p, {exponent: coeff})

    def is_exactly_zero(self) -> bool:
        return self.prec is None and not self.coeffs

    def coefficient(self, m: int) -> int:
        if self.prec is not None and m >= self.prec:
            raise PrecisionLossError(
                f"coefficient of t^{m} beyond precision {self.prec}",
                required=m + 1)
        for e, c in self.coeffs:
            if e == m:
                return c
        return 0

    def valuation_lower_bound(self) -> int | None:
        """Certified lower bound: min known exponent, else prec; None = +inf."""
        if self.coeffs:
            return self.coeffs[0][0]
        return self.prec

    # -- arithmetic ------------------------------------------------------

    def _coeff_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check(other)
        prec = _min_prec(self.prec, other.prec)
        out = self._coeff_dict()
        for m, c in other.coeffs:
            out[m] = (out.get(m, 0) + c) % self.p
        return TruncatedSeries.make(self.p, out, prec)

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self.p,
                               tuple((m, self.p - c) for m, c in self.coeffs),
                               self.prec)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self + (-other)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        """Product by Kronecker substitution (see the module docstring).

        The precision is the weakest of prec(a) + v(b) and prec(b) + v(a).
        Terms of a at or above prec - v(b), and of b at or above
        prec - v(a), only feed coefficients beyond it, so they are dropped
        before packing.
        """
        self._check(other)
        p = self.p
        if self.is_exactly_zero() or other.is_exactly_zero():
            return TruncatedSeries.zero(p)
        prec = None
        if self.prec is not None:
            lo = other.valuation_lower_bound()
            prec = None if lo is None else self.prec + lo
        if other.prec is not None:
            lo = self.valuation_lower_bound()
            q = None if lo is None else other.prec + lo
            prec = _min_prec(prec, q)
        a, b = self.coeffs, other.coeffs
        if a and b and prec is not None:
            # (m,) sorts before every term (m, c), so these cut at exponent m.
            va, vb = a[0][0], b[0][0]
            a = a[:bisect_left(a, (prec - vb,))]
            b = b[:bisect_left(b, (prec - va,))]
        if not a or not b:
            return TruncatedSeries(p, (), prec)
        low = a[0][0] + b[0][0]
        w = ((p - 1) ** 2 * min(len(a), len(b))).bit_length() // 8 + 1
        slots = a[-1][0] + b[-1][0] - low + 1
        product = (_pack(a, a[0][0], w) * _pack(b, b[0][0], w)).to_bytes(
            slots * w, "little")
        top = slots if prec is None else min(slots, prec - low)
        coeffs = [int.from_bytes(product[i:i + w], "little") % p
                  for i in range(0, top * w, w)]
        return TruncatedSeries(
            p, tuple([(m, c) for m, c in enumerate(coeffs, low) if c]), prec)

    def scale(self, c: int) -> TruncatedSeries:
        c %= self.p
        if c == 0:
            return TruncatedSeries.zero(self.p, self.prec)
        return TruncatedSeries.make(
            self.p, {m: k * c for m, k in self.coeffs}, self.prec)

    def shift(self, k: int) -> TruncatedSeries:
        """Multiply by t^k; negative k requires all exponents to stay >= 0."""
        if k < 0 and any(m + k < 0 for m, _ in self.coeffs):
            raise PreconditionError(f"shift by {k} creates a pole")
        prec = None if self.prec is None else max(self.prec + k, 0)
        return TruncatedSeries.make(
            self.p, {m + k: c for m, c in self.coeffs}, prec)

    def truncate(self, precision: int) -> TruncatedSeries:
        return TruncatedSeries.make(self.p, self._coeff_dict(),
                                    _min_prec(self.prec, precision))

    def __pow__(self, n: int) -> TruncatedSeries:
        if n < 0:
            raise PreconditionError("negative series powers are not supported")
        result = TruncatedSeries.one(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def inverse(self, precision: int | None = None) -> TruncatedSeries:
        """Inverse of a unit, to the series precision or an explicit one."""
        target = _min_prec(self.prec, precision)
        if target is None:
            raise PreconditionError(
                "an exact polynomial needs an explicit inverse precision")
        c0 = self.coefficient(0)
        if c0 == 0:
            raise PreconditionError("cannot invert a series with zero constant term")
        p = self.p
        inv0 = pow(c0, -1, p)
        tail = [(k, ck) for k, ck in self.coeffs if k >= 1]
        out = {0: inv0}
        for m in range(1, target):
            acc = 0
            for k, ck in tail:
                if k > m:
                    break
                acc += ck * out.get(m - k, 0)
            val = (-inv0 * acc) % p
            if val:
                out[m] = val
        return TruncatedSeries.make(p, out, target)

    def kth_root_of_unit(self, k: int, precision: int) -> TruncatedSeries:
        """Newton iteration for g with g^k = f, residue 1, p coprime to k."""
        if self.coefficient(0) != 1:
            raise PreconditionError("k-th root requires constant term 1")
        if k <= 0 or k % self.p == 0:
            raise PreconditionError(
                f"k-th root needs k >= 1 coprime to p, got k={k}, p={self.p}")
        target = _min_prec(self.prec, precision)
        f = self.truncate(target)
        p = self.p
        inv_k = pow(k % p, -1, p)
        g = TruncatedSeries.make(p, {0: 1}, 1)
        reached = 1
        while reached < target:
            reached = min(2 * reached, target)
            g = TruncatedSeries.make(p, g._coeff_dict(), reached)
            gk = g**k
            delta = (f.truncate(reached) - gk.truncate(reached))
            correction = delta * (g**(k - 1)).inverse(reached)
            g = (g + correction.scale(inv_k)).truncate(reached)
        return g

    def _check(self, other: TruncatedSeries) -> None:
        if self.p != other.p:
            raise PreconditionError("series over different primes")

    def __str__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for m, c in self.coeffs:
                if m == 0:
                    parts.append(str(c))
                elif m == 1:
                    parts.append(f"{c}*t" if c != 1 else "t")
                else:
                    parts.append(f"{c}*t^{m}" if c != 1 else f"t^{m}")
            body = " + ".join(parts)
        tail = "" if self.prec is None else f" + O(t^{self.prec})"
        return body + tail


def tame_trace(xi: TruncatedSeries, gamma: int) -> TruncatedSeries:
    """Trace down to F_p[[T]] of xi given in the tame coordinate s, T = s^gamma.

    The trace of s^m is gamma * T^(m/gamma) when gamma divides m and zero
    otherwise (the conjugates of s are the gamma-th root twists), so the
    trace collects every gamma-th coefficient. Needs p coprime to gamma.
    """
    if gamma < 1 or gamma % xi.p == 0:
        raise PreconditionError(
            f"tame trace needs gamma >= 1 coprime to p, got {gamma}")
    p = xi.p
    out = {}
    for m, c in xi.coeffs:
        if m % gamma == 0:
            v = c * gamma % p
            if v:
                out[m // gamma] = v
    prec = None if xi.prec is None else (xi.prec - 1) // gamma + 1
    return TruncatedSeries.make(p, out, prec)


def determinant_valuation(matrix: list[list[TruncatedSeries]]) -> int:
    """T-adic valuation of det via Gaussian elimination with valuation pivots.

    Raises a precision error when a pivot choice cannot be certified and a
    precondition error when the matrix is exactly singular.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PreconditionError("determinant needs a square matrix")
    if n == 0:
        return 0
    work = [list(row) for row in matrix]
    total = 0
    for col in range(n):
        pivot_row = None
        pivot_val: int | None = None
        for r in range(col, n):
            entry = work[r][col]
            if entry.is_exactly_zero():
                continue
            if entry.coeffs:
                v = entry.coeffs[0][0]
                if pivot_val is None or v < pivot_val:
                    pivot_val = v
                    pivot_row = r
        if pivot_row is None:
            if all(work[r][col].is_exactly_zero() for r in range(col, n)):
                raise PreconditionError("matrix is exactly singular")
            worst = min(w for r in range(col, n)
                        if (w := work[r][col].prec) is not None)
            raise PrecisionLossError(
                f"no certified pivot in column {col}", required=2 * worst)
        for r in range(col, n):
            entry = work[r][col]
            if entry.coeffs or entry.is_exactly_zero():
                continue
            if entry.prec is not None and entry.prec < pivot_val:
                raise PrecisionLossError(
                    f"entry ({r},{col}) known only to O(t^{entry.prec}), "
                    f"below the pivot valuation {pivot_val}",
                    required=2 * max(pivot_val, 1))
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        total += pivot_val
        # entry / pivot, as the entry times the inverse of the pivot's unit,
        # shifted down by the pivot valuation. The unit is inverted once per
        # column, and only when some row below needs it: an exact pivot has
        # no inverse precision, and needs none when nothing is below.
        unit_inverse = None
        for r in range(col + 1, n):
            entry = work[r][col]
            if entry.is_exactly_zero():
                continue
            if unit_inverse is None:
                unit_inverse = pivot.shift(-pivot_val).inverse()
            factor = (entry * unit_inverse).shift(-pivot_val)
            for j in range(col, n):
                work[r][j] = work[r][j] - factor * work[col][j]
    return total
