"""Local rings at rational points and their Frobenius colengths.

A ring is presented as A = (S/I) localized at the maximal ideal of a point
with coordinates in F_p; generators are translated so the point becomes the
origin. Since S/(I + m^[q]) is supported only at the origin, its length
over S equals the length of A/(m^[q]A), so the normalized colength

    lambda_e = length(A / m^[q] A) / q^dim(A)

is computed exactly in the polynomial ring, with q = p^e.

Two theorems give length(S/(J + m^[q])) and the splitting numerator of
fsplit in closed form, and closed_form recognizes the generator sets they
take, once for each set: LocalRingPresentation asks it when it is built,
and sample and fsplit.splitting_samples read that one answer at every q.
The answer is a counter, (q, budget) -> (colength, splitting numerator),
from the first recognizer in CLOSED_FORMS that accepts the generators:

* diagonal_counter takes a diagonal hypersurface, f = sum c_i x_i^(d_i) or
  a quadric in odd p. With T acting as f, S/m^[q] is a tensor product of
  the k[T]-modules k[x_i]/(x_i^q), and Han's count of its Jordan blocks
  gives both numbers from the degrees d_i (C. Han, thesis, Brandeis 1991;
  Han and Monsky, "Some surprising Hilbert-Kunz functions", Math. Z. 214,
  1993; see the diagonal module).
* regular_counter takes r generators that vanish at the origin with
  linearly independent linear parts. Then S_m/J is regular of dimension
  n - r, and Kunz's theorem (Amer. J. Math. 91, 1969) makes its Frobenius
  flat, so length(S/(J + m^[q])) = q^(n - r). Flatness also makes F^e_* A
  free of rank q^(n - r) over a regular A, as F_p is perfect, so the
  splitting numerator is q^(n - r) as well; Huneke and Leuschke (Math.
  Ann. 324, 2002) show s(A) = 1 exactly when A is regular. It reads the
  constant and linear coefficients only (see linear_parts).

Neither charges pairs. bracket_colength is the one entry for a bare
generator set, the twist levels of fsplit and the hypersurface bound check
in tests/lemmas.py: it asks closed_form, and every set that no recognizer
takes goes to the engine on J + m^[q], which stays the tests' oracle for
both theorems.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction
from functools import partial

from . import kernel
from .diagonal import diagonal_degrees, jordan_counts
from .engine import Budget, Ideal, maximal_ideal
from .errors import PreconditionError
from .field import FieldConfig, RowSpace, frobenius_exponent
from .poly import PolyRing, Polynomial

Point = tuple[int, ...]
ClosedForm = Callable[[int, Budget], tuple[int, int]]


def diagonal_counter(ring: PolyRing, generators: tuple[Polynomial, ...]
                     ) -> ClosedForm | None:
    """Han's count from the degrees of a diagonal hypersurface, read once
    by diagonal_degrees; None for every other generator set."""
    degrees = diagonal_degrees(generators)
    return None if degrees is None else partial(jordan_counts, ring, degrees)


def regular_counter(ring: PolyRing, generators: tuple[Polynomial, ...]
                    ) -> ClosedForm | None:
    """q^(n - r) for both counts when the r generators vanish at the origin
    and their linear parts are linearly independent; None otherwise, a zero
    generator included."""
    rows = linear_parts(ring, generators)
    if rows is None or matrix_rank_mod_p(rows, ring.p) < len(rows):
        return None
    dimension = ring.nvars - len(rows)
    return lambda q, budget: (q**dimension, q**dimension)


CLOSED_FORMS = (diagonal_counter, regular_counter)


def closed_form(ring: PolyRing, generators: tuple[Polynomial, ...]
                ) -> ClosedForm | None:
    """The counter of the first recognizer in CLOSED_FORMS that takes the
    generators, or None: a function (q, budget) -> (length(S/((generators)
    + m^[q])), the splitting numerator of S/(generators) at level q)."""
    counters = (recognize(ring, generators) for recognize in CLOSED_FORMS)
    return next(filter(None, counters), None)


def bracket_colength(ring: PolyRing, generators: tuple[Polynomial, ...],
                     q: int, budget: Budget | None = None) -> int:
    """length(S/((generators) + m^[q])): by the counter closed_form returns
    where a theorem gives it, else the engine on the generators followed by
    m^[q]. Only the engine charges pairs to the budget."""
    return _colength(closed_form(ring, generators),
                     Ideal(ring, list(generators)), q, budget or Budget())


def _colength(counter: ClosedForm | None, ideal: Ideal, q: int,
              budget: Budget) -> int:
    """length(S/(ideal + m^[q])) by the counter, closed_form's answer for
    the generators of ideal, else by the engine."""
    if counter is not None:
        return counter(q, budget)[0]
    m_bracket = maximal_ideal(ideal.ring).bracket_power(q)
    return ideal.sum_with(m_bracket).colength(budget)


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


class FrobeniusSample(namedtuple("FrobeniusSample",
                                 "e q colength normalized")):
    """One Frobenius colength measurement of a local ring: ints e, q = p^e
    and colength, and the Fraction normalized = colength / q^d."""

    __slots__ = ()


class LocalRingPresentation:
    """A = (S/I) localized at the origin, with cached invariants."""

    __slots__ = ("ring", "ideal", "counter", "twist_colons", "_dimension")

    def __init__(self, ring: PolyRing, ideal: Ideal) -> None:
        if ideal.ring != ring:
            raise PreconditionError("ideal from a different ring")
        for g in ideal.generators:
            if g.constant_coefficient() != 0:
                raise PreconditionError(
                    f"generator {g} does not vanish at the origin")
        self.ring = ring
        self.ideal = ideal
        # closed_form's answer, asked once: sample and
        # fsplit.splitting_samples read it at every level
        self.counter = closed_form(ring, ideal.generators)
        # e -> (I^[p^e] : I), filled by fsplit.twist_colon_ideal; level 1
        # serves both fsplit.fedder_test and the walk of twist_levels
        self.twist_colons: dict[int, Ideal] = {}
        self._dimension: int | None = None

    @classmethod
    def from_texts(cls, p: int, variables: tuple[str, ...],
                   generator_texts: list[str],
                   point: Point | None = None) -> LocalRingPresentation:
        ring = PolyRing(FieldConfig(p), tuple(variables))
        gens = [ring.parse(t) for t in generator_texts]
        if point is not None:
            gens = translate_to_origin(gens, point)
        return cls(ring, Ideal(ring, gens))

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
        budget = budget or Budget()
        q = frobenius_exponent(self.p, e)
        colength = _colength(self.counter, self.ideal, q, budget)
        d = self.dimension(budget)
        return FrobeniusSample(e, q, colength, Fraction(colength, q**d))

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


class SmoothnessReport(namedtuple(
        "SmoothnessReport", "dimension codimension jacobian_rank smooth")):
    """Three ints, and the bool smooth: jacobian_rank == codimension."""

    __slots__ = ()


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
