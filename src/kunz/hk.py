"""Normalized Frobenius colength sequences and uniform-bound checks.

hk_sequence collects lambda_e for e = 1..e_max, extracts the empirical gap
constant sup_e p^e*|lambda_e - lambda_{e+1}|, and turns it into an exact
rational interval around the limit via the geometric tail

    sum_{k>=0} p^-(E+k) = p^-E / (1 - 1/p).

verify_pair_bounds checks |l_e - l_e'| <= m * Delta * p^-e for every pair
1 <= e <= e' <= e_max, where l_e = l((I + (u))^[q] / I^[q]) / q^d for
nested ideals I and I + (u) differing by a single socle generator u. Each
l_e is computed once, and the constants m and Delta are supplied by the
caller (for realized curve data they come from the curves module).

The checks of the colon/quotient length identity and of the hypersurface
colength bound run in no command, so they live with the tests, in
tests/lemmas.py.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import engine
from .budget import Budget
from .errors import BudgetExceededError, PreconditionError
from .field import frobenius_levels
from .localring import FrobeniusSample, LocalRingPresentation
from .poly import Polynomial


_RationalInterval = namedtuple("_RationalInterval", "low high")


class RationalInterval(_RationalInterval):
    """The closed interval [low, high] between two Fractions."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RationalInterval:
        self = super().__new__(cls, *args, **kwargs)
        if self.low > self.high:
            raise PreconditionError("interval bounds out of order")
        return self

    def contains(self, value: Fraction) -> bool:
        return self.low <= value <= self.high


class HKReport(namedtuple(
        "HKReport", "presentation_id p dimension samples empirical_C interval "
        "stabilization_index truncated")):
    """Sequence report: exact samples, gap constant, and the tail interval.

    samples is a tuple of FrobeniusSample, empirical_C a Fraction and
    interval a RationalInterval; p, dimension and stabilization_index are
    ints, truncated is a bool and presentation_id is text.
    """

    __slots__ = ()


def describe_presentation(presentation: LocalRingPresentation) -> str:
    ring = presentation.ring
    gens = ", ".join(str(g) for g in presentation.generators) or "0"
    return f"F_{ring.p}[{', '.join(ring.variables)}]/({gens})"


def empirical_gap_constant(p: int, values: list[tuple[int, Fraction]]) -> Fraction:
    """max over e of p^e * |value_e - value_{e+1}|, for values at the
    consecutive levels e of field.frobenius_levels; 0 for one value."""
    return max((abs(a - b) * p**e
                for (e, a), (_, b) in zip(values, values[1:])),
               default=Fraction(0))


def tail_interval(p: int, values: list[tuple[int, Fraction]]
                  ) -> tuple[Fraction, RationalInterval]:
    """Gap constant C of sampled (e, value) pairs, and the interval
    v_E -+ C * p^-E / (1 - 1/p) around the last sampled value v_E."""
    c = empirical_gap_constant(p, values)
    e, last = values[-1]
    radius = c * Fraction(1, p**e) / (1 - Fraction(1, p))
    return c, RationalInterval(last - radius, last + radius)


def hk_sequence(presentation: LocalRingPresentation, e_max: int,
                budget: Budget | None = None) -> HKReport:
    """lambda_1..lambda_{e_max} with the empirical tail interval.

    A budget failure after at least one sample yields a partial report
    flagged truncated instead of an error.
    """
    levels = frobenius_levels(presentation.p, e_max)
    budget = budget or Budget()
    p = presentation.p
    samples: list[FrobeniusSample] = []
    truncated = False
    for e, _ in levels:
        try:
            samples.append(presentation.sample(e, budget))
        except BudgetExceededError:
            if not samples:
                raise
            truncated = True
            break
    lambdas = [(s.e, s.normalized) for s in samples]
    c, interval = tail_interval(p, lambdas)
    # the first e from which every sampled value lies in the interval; the
    # last one, its center, always does
    stabilization = 1 + max((e for e, value in lambdas
                             if not interval.contains(value)), default=0)
    return HKReport(
        presentation_id=describe_presentation(presentation),
        p=p,
        dimension=presentation.dimension(budget),
        samples=tuple(samples),
        empirical_C=c,
        interval=interval,
        stabilization_index=stabilization,
        truncated=truncated,
    )


# -- pair bounds -----------------------------------------------------------


class BoundConstants(namedtuple("BoundConstants", "m Delta")):
    """The int constants entering the pair bound rhs m * Delta * p^-e."""

    __slots__ = ()


class PairBoundEntry(namedtuple("PairBoundEntry", "e e_prime lhs rhs")):
    """One pair of ints (e, e_prime) and the Fraction sides of its bound."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs


class BoundCheck(namedtuple("BoundCheck", "constants entries")):
    """A batch of pair-bound verifications sharing one constant set:
    BoundConstants and a tuple of PairBoundEntry."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(entry.passed for entry in self.entries)


def relative_bracket_colength(presentation: LocalRingPresentation,
                              inner: engine.Ideal, u: Polynomial, q: int,
                              budget: Budget | None = None) -> int:
    """length of (inner + (u))^[q] / inner^[q] in the presented ring.

    Computed as the difference of two colengths modulo the defining ideal.
    """
    budget = budget or Budget()
    base = presentation.ideal
    inner_q = base.sum_with(inner.bracket_power(q))
    outer_q = inner_q.sum_with(engine.Ideal(presentation.ring,
                                            [u.frobenius_power(q)]))
    return inner_q.colength(budget) - outer_q.colength(budget)


def check_socle_condition(presentation: LocalRingPresentation,
                          inner: engine.Ideal, u: Polynomial,
                          budget: Budget | None = None) -> None:
    """Require (J : u) = m in the presented ring, for J = I + inner.

    Decided by membership in one basis of J, with no colon built: the colon
    is m exactly when u lies outside J and x*u lies in J for every variable
    x. Then m lies in (J : u), which is not (1), and m is maximal.
    """
    budget = budget or Budget()
    ideal = presentation.ideal.sum_with(inner)
    if (ideal.contains(u, budget)
            or not all(ideal.contains(x * u, budget)
                       for x in presentation.ring.gens())):
        raise PreconditionError(
            "the colon of the inner ideal by u is not the maximal ideal")


def verify_pair_bounds(presentation: LocalRingPresentation,
                       inner: engine.Ideal, u: Polynomial, e_max: int,
                       constants: BoundConstants,
                       budget: Budget | None = None) -> BoundCheck:
    """All pairs 1 <= e <= e' <= e_max of |l_e - l_e'| <= m * Delta / q,
    q = p^e.

    Here l_e is the relative bracket colength at q over q^d. Each side
    depends on one level, so l_e is computed once per e. The socle
    condition (inner : u) = m makes the inner/outer quotient have length
    one, so the rhs carries no extra length factor.
    """
    levels = frobenius_levels(presentation.p, e_max)
    budget = budget or Budget()
    check_socle_condition(presentation, inner, u, budget)
    d = presentation.dimension(budget)
    lengths = [Fraction(relative_bracket_colength(presentation, inner, u, q,
                                                  budget), q**d)
               for _, q in levels]
    entries = tuple(
        PairBoundEntry(e=e, e_prime=e_prime,
                       lhs=abs(lengths[e - 1] - lengths[e_prime - 1]),
                       rhs=constants.m * constants.Delta * Fraction(1, q))
        for e, q in levels for e_prime in range(e, e_max + 1))
    return BoundCheck(constants=constants, entries=entries)
