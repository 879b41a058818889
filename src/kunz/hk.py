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
hypersurface_bound checks the colength of a principal ideal plus a bracket
power of the maximal ideal against n * q^(d-1), taken by
localring.bracket_colength as every Frobenius colength is.

verify_basic_lengths is a library check of the paper's colon/quotient
length identity. No command calls it; the tests and the acceptance suite
exercise it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .engine import Budget, Ideal
from .errors import BudgetExceededError, PreconditionError
from .field import frobenius_exponent
from .localring import (FrobeniusSample, LocalRingPresentation,
                        bracket_colength)
from .poly import Polynomial


class _RationalInterval(NamedTuple):
    low: Fraction
    high: Fraction


class RationalInterval(_RationalInterval):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RationalInterval:
        self = super().__new__(cls, *args, **kwargs)
        if self.low > self.high:
            raise PreconditionError("interval bounds out of order")
        return self

    def contains(self, value: Fraction) -> bool:
        return self.low <= value <= self.high


class HKReport(NamedTuple):
    """Sequence report: exact samples, gap constant, and the tail interval."""

    presentation_id: str
    p: int
    dimension: int
    samples: tuple[FrobeniusSample, ...]
    empirical_C: Fraction
    interval: RationalInterval
    stabilization_index: int
    truncated: bool


def describe_presentation(presentation: LocalRingPresentation) -> str:
    ring = presentation.ring
    gens = ", ".join(str(g) for g in presentation.ideal.generators) or "0"
    return f"F_{ring.p}[{', '.join(ring.variables)}]/({gens})"


def empirical_gap_constant(p: int, values: list[tuple[int, Fraction]]) -> Fraction:
    """sup over adjacent sampled e of p^e * |value_e - value_{e+1}|."""
    best = Fraction(0)
    for (e, a), (e2, b) in zip(values, values[1:]):
        if e2 != e + 1:
            continue
        gap = abs(a - b) * p**e
        if gap > best:
            best = gap
    return best


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
    if e_max < 1:
        raise PreconditionError(f"e_max must be >= 1, got {e_max}")
    p = presentation.p
    samples: list[FrobeniusSample] = []
    truncated = False
    for e in range(1, e_max + 1):
        try:
            samples.append(presentation.sample(e, budget))
        except BudgetExceededError:
            if not samples:
                raise
            truncated = True
            break
    lambdas = [(s.e, s.normalized) for s in samples]
    c, interval = tail_interval(p, lambdas)
    stabilization = samples[-1].e
    for e, value in reversed(lambdas):
        if interval.contains(value):
            stabilization = e
        else:
            break
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


class BoundConstants(NamedTuple):
    """Constants entering the pair bound rhs m * Delta * p^-e."""

    m: int
    Delta: int


class PairBoundEntry(NamedTuple):
    e: int
    e_prime: int
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs


class BoundCheck(NamedTuple):
    """A batch of pair-bound verifications sharing one constant set."""

    constants: BoundConstants
    entries: tuple[PairBoundEntry, ...]

    @property
    def all_passed(self) -> bool:
        return all(entry.passed for entry in self.entries)


def relative_bracket_colength(presentation: LocalRingPresentation,
                              inner: Ideal, u: Polynomial, q: int,
                              budget: Budget | None = None) -> int:
    """length of (inner + (u))^[q] / inner^[q] in the presented ring.

    Computed as the difference of two colengths modulo the defining ideal.
    """
    base = presentation.ideal
    inner_q = base.sum_with(inner.bracket_power(q))
    outer_q = inner_q.sum_with(Ideal(presentation.ring,
                                     [u.frobenius_power(q)]))
    return inner_q.colength(budget) - outer_q.colength(budget)


def check_socle_condition(presentation: LocalRingPresentation, inner: Ideal,
                          u: Polynomial, budget: Budget | None = None) -> None:
    """Require (inner : u) = m in the presented ring.

    Decided by two containments, each within the budget: the colon lies
    in m when no generator has a constant term, and m lies in the colon
    when every variable does.
    """
    ring = presentation.ring
    colon = presentation.ideal.sum_with(inner).colon(Ideal(ring, [u]), budget)
    if (any(g.constant_coefficient() for g in colon.generators)
            or not all(colon.contains(x, budget) for x in ring.gens())):
        raise PreconditionError(
            "the colon of the inner ideal by u is not the maximal ideal")


def verify_pair_bounds(presentation: LocalRingPresentation, inner: Ideal,
                       u: Polynomial, e_max: int, constants: BoundConstants,
                       budget: Budget | None = None) -> BoundCheck:
    """All pairs 1 <= e <= e' <= e_max of |l_e - l_e'| <= m * Delta * p^-e.

    Here l_e is the relative bracket colength at q = p^e over q^d. Each
    side depends on one level, so l_e is computed once per e. The socle
    condition (inner : u) = m makes the inner/outer quotient have length
    one, so the rhs carries no extra length factor.
    """
    if e_max < 1:
        raise PreconditionError(f"e_max must be >= 1, got {e_max}")
    check_socle_condition(presentation, inner, u, budget)
    p = presentation.p
    d = presentation.dimension(budget)
    lengths = {}
    for e in range(1, e_max + 1):
        q = frobenius_exponent(p, e)
        lengths[e] = Fraction(
            relative_bracket_colength(presentation, inner, u, q, budget), q**d)
    entries = tuple(
        PairBoundEntry(e=e, e_prime=e_prime,
                       lhs=abs(lengths[e] - lengths[e_prime]),
                       rhs=constants.m * constants.Delta * Fraction(1, p**e))
        for e in range(1, e_max + 1) for e_prime in range(e, e_max + 1))
    return BoundCheck(constants=constants, entries=entries)


class BasicLengthsCheck(NamedTuple):
    """Two independently computed sides of the colon/quotient length identity

    l(R / (I^[q] : u^q)) = l((I + (u))^[q] / I^[q]).
    """

    q: int
    colon_side: int
    quotient_side: int

    @property
    def passed(self) -> bool:
        return self.colon_side == self.quotient_side


def verify_basic_lengths(presentation: LocalRingPresentation, inner: Ideal,
                         u: Polynomial, q: int,
                         budget: Budget | None = None) -> BasicLengthsCheck:
    """Check the length identity for one q, both sides through the engine."""
    base = presentation.ideal
    inner_q = base.sum_with(inner.bracket_power(q))
    colon = inner_q.colon(Ideal(presentation.ring, [u.frobenius_power(q)]),
                          budget)
    colon_side = colon.colength(budget)
    quotient_side = relative_bracket_colength(presentation, inner, u, q, budget)
    return BasicLengthsCheck(q=q, colon_side=colon_side,
                             quotient_side=quotient_side)


# -- hypersurface bound ----------------------------------------------------


class HypersurfaceBoundCheck(NamedTuple):
    n: int
    e: int
    q: int
    colength: int
    bound: int

    @property
    def passed(self) -> bool:
        return self.colength <= self.bound


def hypersurface_bound(F: Polynomial, n: int, e: int,
                       budget: Budget | None = None) -> HypersurfaceBoundCheck:
    """Check colength((F) + m^[q]) <= n * q^(d-1) in the ambient ring of F.

    The order of vanishing of F must be at most n; a unit F with n = 0 is
    the degenerate equality 0 <= 0.
    """
    if F.is_zero():
        raise PreconditionError("F must be nonzero")
    if n < 0:
        raise PreconditionError(f"n must be >= 0, got {n}")
    order = F.order_of_vanishing()
    if order > n:
        raise PreconditionError(
            f"every term of F has total degree above n = {n} (order {order})")
    ring = F.ring
    q = frobenius_exponent(ring.p, e)
    colength = bracket_colength(ring, (F,), q, budget)
    return HypersurfaceBoundCheck(n=n, e=e, q=q, colength=colength,
                                  bound=n * q ** (ring.nvars - 1))
