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
Hilbert-Kunz functions", Math. Z. 214, 1993). bracket_colength makes this
choice for every colength length(S/(J + m^[q])): the samples here,
hk.hypersurface_bound and the splitting numbers of fsplit all call it.
Han's count takes each J the diagonal module accepts; every other J takes
the engine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .diagonal import jordan_counts
from .engine import Budget, Ideal, maximal_ideal
from .errors import PreconditionError
from .field import FieldConfig, RowSpace, frobenius_exponent
from .poly import PolyRing, Polynomial

Point = tuple[int, ...]


def bracket_colength(ring: PolyRing, generators: tuple[Polynomial, ...],
                     q: int, budget: Budget | None = None) -> int:
    """length(S/((generators) + m^[q])): Han's count of Jordan blocks when
    the diagonal module accepts the generators, else the engine on the
    generators followed by m^[q]."""
    counts = jordan_counts(generators, q, budget)
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

    def jacobian_matrix(self) -> list[list[Polynomial]]:
        return [[g.derivative(i) for i in range(self.ring.nvars)]
                for g in self.ideal.generators]

    def jacobian_rank_at_origin(self) -> int:
        p = self.p
        rows = [[entry.constant_coefficient() for entry in row]
                for row in self.jacobian_matrix()]
        return matrix_rank_mod_p(rows, p)

    def smoothness_report(self, budget: Budget | None = None) -> SmoothnessReport:
        """Jacobian-criterion check at the origin.

        For the smooth reference points used in scans, the Jacobian rank must
        equal the codimension.
        """
        d = self.dimension(budget)
        codim = self.ring.nvars - d
        rank = self.jacobian_rank_at_origin()
        return SmoothnessReport(dimension=d, codimension=codim,
                                jacobian_rank=rank, smooth=(rank == codim))


class SmoothnessReport(NamedTuple):
    dimension: int
    codimension: int
    jacobian_rank: int
    smooth: bool


def matrix_rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over F_p: the rows that enlarge a RowSpace."""
    space = RowSpace(p)
    return sum(space.add(row) for row in rows)
