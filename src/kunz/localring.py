"""Local rings at rational points and their Frobenius colengths.

A ring is presented as A = (S/I) localized at the maximal ideal of a point
with coordinates in F_p; generators are translated so the point becomes the
origin. Since S/(I + m^[q]) is supported only at the origin, its length
over S equals the length of A/(m^[q]A), so the normalized colength

    lambda_e = length(A / m^[q] A) / q^dim(A)

is computed exactly in the polynomial ring, with q = p^e.

A diagonal hypersurface, f = sum c_i x_i^(d_i) or a quadric in odd p,
takes no Groebner basis: with T acting as f, S/m^[q] is a tensor product
of the k[T]-modules k[x_i]/(x_i^q), and length(S/(m^[q] + (f))) is its
number of Jordan blocks, a sum of Han's D(a, b, c) = dim k[x,y]/(x^a, y^b,
(x+y)^c) (C. Han, thesis, Brandeis 1991; Han and Monsky, "Some surprising
Hilbert-Kunz functions", Math. Z. 214, 1993). bracket_colength picks the
route for every colength length(S/(J + m^[q])): the samples here,
hk.hypersurface_bound and the splitting numbers of fsplit all call it.

It tries three routes in order, the first two in theorem_counts, which
fsplit.splitting_number calls too. Han's count takes each J the diagonal
module accepts. Next, regular_count takes each J whose r generators vanish
at the origin with linearly independent linear parts. Then S_m/J is regular
of dimension n - r, and Kunz's theorem (Amer. J. Math. 91, 1969) makes its
Frobenius flat, so

    length(S/(J + m^[q])) = q^(n - r).

Flatness also makes F^e_* A free of rank q^(n - r) over a regular A, as
F_p is perfect, so the splitting count of fsplit is q^(n - r) as well;
Huneke and Leuschke (Math. Ann. 324, 2002) show s(A) = 1 exactly when A is
regular. This route reads the constant and linear coefficients only (see
linear_parts), and charges no pairs. Every other J takes the engine on
J + m^[q], which stays the tests' oracle for the other two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import kernel
from .diagonal import jordan_counts
from .engine import Budget, Ideal, maximal_ideal
from .errors import PreconditionError
from .field import FieldConfig, RowSpace, frobenius_exponent
from .poly import PolyRing, Polynomial

Point = tuple[int, ...]


def theorem_counts(ring: PolyRing, generators: tuple[Polynomial, ...],
                   q: int, budget: Budget | None = None
                   ) -> tuple[int, int] | None:
    """(length(S/((generators) + m^[q])), the splitting numerator of
    S/(generators) at level q) where a theorem gives both: Han's count of
    Jordan blocks when the diagonal module accepts the generators, else
    q^(n - r) for both by Kunz's theorem when regular_count does; None
    otherwise. Charges no pairs."""
    counts = jordan_counts(generators, q, budget)
    if counts is not None:
        return counts
    regular = regular_count(ring, generators, q)
    if regular is not None:
        return regular, regular
    return None


def bracket_colength(ring: PolyRing, generators: tuple[Polynomial, ...],
                     q: int, budget: Budget | None = None) -> int:
    """length(S/((generators) + m^[q])): by theorem_counts where a theorem
    gives it, else the engine on the generators followed by m^[q]. Only the
    engine charges pairs to the budget."""
    counts = theorem_counts(ring, generators, q, budget)
    if counts is not None:
        return counts[0]
    m_bracket = maximal_ideal(ring).bracket_power(q)
    return Ideal(ring, list(generators)).sum_with(m_bracket).colength(budget)


def translate_to_origin(generators: list[Polynomial], point: Point) -> list[Polynomial]:
    """Substitute x_i -> x_i + a_i after checking the point lies on V(I)."""
    if not generators:
        return []
    ring = generators[0].ring
    if len(point) != ring.nvars:
        raise PreconditionError(
            f"point has {len(point)} coordinates for {ring.nvars} variables")
    for g in generators:
        value = g.evaluate(point)
        if value != 0:
            raise PreconditionError(
                f"point {point} does not lie on the zero set: "
                f"{g} evaluates to {value}")
    if all(a % ring.p == 0 for a in point):
        return list(generators)
    return [g.substitute_shift(point) for g in generators]


class FrobeniusSample(NamedTuple):
    """One Frobenius colength measurement of a local ring."""

    e: int
    q: int
    colength: int
    normalized: Fraction


class LocalRingPresentation:
    """A = (S/I) localized at the origin, with cached invariants."""

    __slots__ = ("ring", "ideal", "twist_colons", "_dimension", "_samples")

    def __init__(self, ring: PolyRing, ideal: Ideal) -> None:
        if ideal.ring != ring:
            raise PreconditionError("ideal from a different ring")
        for g in ideal.generators:
            if g.constant_coefficient() != 0:
                raise PreconditionError(
                    f"generator {g} does not vanish at the origin")
        self.ring = ring
        self.ideal = ideal
        # e -> (I^[p^e] : I), filled by fsplit.twist_colon_ideal
        self.twist_colons: dict[int, Ideal] = {}
        self._dimension: int | None = None
        self._samples: dict[int, FrobeniusSample] = {}

    @classmethod
    def from_texts(cls, p: int, variables: tuple[str, ...],
                   generator_texts: list[str],
                   point: Point | None = None) -> LocalRingPresentation:
        ring = PolyRing(FieldConfig(p), tuple(variables))
        gens = [ring.parse(t) for t in generator_texts]
        if point is not None:
            gens = translate_to_origin(gens, point)
        return cls(ring, Ideal(ring, gens))

    @classmethod
    def at_point(cls, ring: PolyRing, generators: list[Polynomial],
                 point: Point) -> LocalRingPresentation:
        return cls(ring, Ideal(ring, translate_to_origin(generators, point)))

    @property
    def p(self) -> int:
        return self.ring.p

    def dimension(self, budget: Budget | None = None) -> int:
        if self._dimension is None:
            if self.ideal.is_zero():
                self._dimension = self.ring.nvars
            else:
                self._dimension = self.ideal.dimension(budget)
        return self._dimension

    def lambda_value(self, e: int, budget: Budget | None = None) -> Fraction:
        """Normalized colength length(A/m^[q]A) / q^dim(A)."""
        return self.sample(e, budget).normalized

    def sample(self, e: int, budget: Budget | None = None) -> FrobeniusSample:
        if e < 0:
            raise PreconditionError(f"Frobenius index must be >= 0, got {e}")
        cached = self._samples.get(e)
        if cached is not None:
            return cached
        q = frobenius_exponent(self.p, e)
        colength = bracket_colength(self.ring, self.ideal.generators, q,
                                    budget)
        d = self.dimension(budget)
        sample = FrobeniusSample(e, q, colength, Fraction(colength, q**d))
        self._samples[e] = sample
        return sample

    def smoothness_report(self, budget: Budget | None = None) -> SmoothnessReport:
        """The Jacobian rank at the origin against n - dim(S/I).

        dimension is that of S/I, not of the local ring A at the origin,
        and the two differ where a component of larger dimension misses
        the origin. The Jacobian rank is at most n - dim(A), with equality
        exactly when A is regular, so smooth means regular only where
        dim(A) = dim(S/I). For p = 5 and I = (x^3 - 2x^2 + x, xy) at
        (1, 0), A is k[x]/(x^2), of dimension 0 and not regular, yet
        dim(S/I) = 1 and the rank is 1, so smooth is true.
        """
        d = self.dimension(budget)
        codim = self.ring.nvars - d
        rank = matrix_rank_mod_p(
            linear_parts(self.ring, self.ideal.generators), self.p)
        return SmoothnessReport(dimension=d, codimension=codim,
                                jacobian_rank=rank, smooth=(rank == codim))


class SmoothnessReport(NamedTuple):
    dimension: int
    codimension: int
    jacobian_rank: int
    smooth: bool


def regular_count(ring: PolyRing, generators: tuple[Polynomial, ...],
                  q: int) -> int | None:
    """q^(n - r) when the r generators vanish at the origin and their linear
    parts are linearly independent; None otherwise, a zero generator
    included.

    Then S_m/(generators) is regular of dimension n - r, and q^(n - r) is
    both length(S/((generators) + m^[q])) and the splitting count a_e (see
    the module docstring).
    """
    rows = linear_parts(ring, generators)
    if rows is None or matrix_rank_mod_p(rows, ring.p) < len(rows):
        return None
    return q ** (ring.nvars - len(rows))


def linear_parts(ring: PolyRing, generators: tuple[Polynomial, ...]
                 ) -> list[list[int]] | None:
    """The Jacobian matrix of the generators at the origin, one row
    [dg/dx_i(0) for each i] per generator g; None when some g has a nonzero
    constant term.

    dg/dx_i(0) is the coefficient of x_i in g. Grevlex compares total
    degree first, so the terms of degree 1, and the constant after them,
    end each term list: only those at most n + 1 terms of g are read.
    """
    n = ring.nvars
    rows = []
    for g in generators:
        row = [0] * n
        for _, exps, c in reversed(g.terms):
            if not exps:
                return None
            if exps % kernel.DEGREE_MOD > 1:
                break
            row[kernel.unpack(exps, n).index(1)] = c
        rows.append(row)
    return rows


def matrix_rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over F_p: the rows that enlarge a RowSpace."""
    space = RowSpace(p)
    return sum(space.add(row) for row in rows)
