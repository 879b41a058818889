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

Two more identities keep a hypersurface S/(f) off the engine. Its
dimension is n - 1 by Krull's principal ideal theorem (Krull, 1928; see
Matsumura, Commutative Ring Theory, Theorem 13.5): f is a nonzero non-unit
of the domain S. And, S being a domain, (f^[p] : f) = (f^(p-1)), the twist
colon of Fedder's criterion (Fedder, "F-purity and rational singularity",
Trans. AMS 278, 1983), which fsplit.fedder_test reads as it is. A
LocalRingPresentation keeps the tuple of its generators and builds the
engine's Ideal of them only when a route needs a Groebner basis, so a ring
that the theorems take never runs the engine. Ideal.dimension and the
general colon stay the tests' oracles for both identities.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import partial

from . import engine, kernel
from .budget import Budget
from .diagonal import diagonal_degrees, jordan_counts
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
    budget = budget or Budget()
    counter = closed_form(ring, generators)
    if counter is not None:
        return counter(q, budget)[0]
    return _engine_colength(engine.Ideal(ring, list(generators)), q, budget)


def _engine_colength(ideal: engine.Ideal, q: int, budget: Budget) -> int:
    """length(S/(ideal + m^[q])) from the engine's basis."""
    m_bracket = engine.maximal_ideal(ideal.ring).bracket_power(q)
    return ideal.sum_with(m_bracket).colength(budget)


def translate_to_origin(generators: list[Polynomial], point: Point,
                        check_deadline: Callable[[], None] | None = None
                        ) -> list[Polynomial]:
    """Substitute x_i -> x_i + a_i after checking the point lies on V(I);
    every product of the expansion calls check_deadline, when given."""
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
    return [g.substitute_shift(point, check_deadline) for g in generators]


class FrobeniusSample(namedtuple("FrobeniusSample",
                                 "e q colength normalized")):
    """One Frobenius colength measurement of a local ring: ints e, q = p^e
    and colength, and the Fraction normalized = colength / q^d."""

    __slots__ = ()


class LocalRingPresentation:
    """A = (S/I) localized at the origin, with cached invariants.

    generators is the tuple of the nonzero generators of I given, each
    vanishing at the origin. The engine's Ideal of them is built on the
    first use of ideal, by a route that needs a Groebner basis: closed_form,
    linear_parts and the dimension of a hypersurface read the generators,
    so a ring that a theorem takes never runs the engine. A caller that
    already holds that Ideal, its basis perhaps computed, passes it as
    ideal, so no basis is computed twice.
    """

    __slots__ = ("ring", "generators", "counter", "twist_colons", "_ideal",
                 "_dimension")

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial],
                 ideal: engine.Ideal | None = None) -> None:
        self.generators = tuple(g for g in generators if not g.is_zero())
        for g in self.generators:
            if g.ring != ring:
                raise PreconditionError("generator from a different ring")
            if g.constant_coefficient() != 0:
                raise PreconditionError(
                    f"generator {g} does not vanish at the origin")
        if ideal is not None and (ideal.ring != ring
                                  or ideal.generators != self.generators):
            raise PreconditionError("the ideal given has other generators")
        self.ring = ring
        self._ideal = ideal
        # closed_form's answer, asked once: sample and
        # fsplit.splitting_samples read it at every level
        self.counter = closed_form(ring, self.generators)
        # e -> (I^[p^e] : I), the general colon, filled by
        # fsplit.twist_colon_ideal for rings that are not complete
        # intersections, which fsplit.fedder_test and the walk of
        # twist_levels share
        self.twist_colons: dict[int, engine.Ideal] = {}
        self._dimension: int | None = None

    @classmethod
    def from_texts(cls, p: int, variables: tuple[str, ...],
                   generator_texts: list[str], point: Point | None = None,
                   check_deadline: Callable[[], None] | None = None
                   ) -> LocalRingPresentation:
        """The presentation of the parsed generators, moved so that point
        becomes the origin. Every product of the parse and of the move
        calls check_deadline, when given."""
        ring = PolyRing(FieldConfig(p), tuple(variables))
        gens = [ring.parse(t, check_deadline) for t in generator_texts]
        if point is not None:
            gens = translate_to_origin(gens, point, check_deadline)
        return cls(ring, gens)

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def ideal(self) -> engine.Ideal:
        """The engine's Ideal of the generators, built on first use."""
        if self._ideal is None:
            self._ideal = engine.Ideal(self.ring, list(self.generators))
        return self._ideal

    def dimension(self, budget: Budget | None = None) -> int:
        """dim(S/I): n for I = 0, and n - 1 for a hypersurface, by Krull's
        principal ideal theorem. Its generator f vanishes at the origin, so
        it is a nonzero non-unit of the domain S, every minimal prime P over
        (f) has height 1, and dim(S/P) = n - 1 in the polynomial ring S.
        Two or more generators take the engine's basis (Ideal.dimension).
        """
        if self._dimension is None:
            if len(self.generators) <= 1:
                self._dimension = self.ring.nvars - len(self.generators)
            else:
                self._dimension = self.ideal.dimension(budget)
        return self._dimension

    def lambda_value(self, e: int, budget: Budget | None = None) -> Fraction:
        """Normalized colength length(A/m^[q]A) / q^dim(A)."""
        return self.sample(e, budget).normalized

    def sample(self, e: int, budget: Budget | None = None) -> FrobeniusSample:
        budget = budget or Budget()
        q = frobenius_exponent(self.p, e)
        if self.counter is None:
            colength = _engine_colength(self.ideal, q, budget)
        else:
            colength = self.counter(q, budget)[0]
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
            linear_parts(self.ring, self.generators), self.p)
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
