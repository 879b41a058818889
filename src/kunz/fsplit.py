"""Splitting numbers, purity tests, purity exponents.

With R = S/I local at the origin, S = F_p[x_1..x_n] and q = p^e, the
elements c whose twisted Frobenius does not split at level e form the
colon (m^[q] : J_e) of the twist colon J_e = (I^[q] : I), and
s_e = colength((m^[q] : J_e) + I) / q^dim(R). Two facts reduce this to

    s_e = (q^n - colength(m^[q] + J_e)) / q^dim(R):

* I * J_e lies in I^[q] by the definition of the colon, and I^[q] lies in
  m^[q] since I vanishes at the origin, so I is inside (m^[q] : J_e);
* S/m^[q] is Gorenstein Artinian of length q^n, so Matlis duality gives
  length(S/(m^[q] : J)) = q^n - length(S/(m^[q] + J)) for every ideal J
  (Bruns-Herzog, Cohen-Macaulay Rings, section 3.2).

R is F-pure exactly when (I^[p] : I) is not contained in m^[p]; the verdict
records a concrete witness element or an exhaustion certificate. The README
states the equivalence between this criterion and the purity definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import Budget, Ideal, maximal_ideal
from .errors import PreconditionError
from .field import frobenius_exponent
from .hk import RationalInterval, describe_presentation, tail_interval
from .localring import LocalRingPresentation
from .poly import Polynomial


def twist_colon_ideal(presentation: LocalRingPresentation, e: int,
                      budget: Budget | None = None) -> Ideal:
    """(I^[q] : I) in the ambient ring, q = p^e, cached on the presentation."""
    cached = presentation.twist_colons.get(e)
    if cached is None:
        q = frobenius_exponent(presentation.p, e)
        ideal = presentation.ideal
        cached = ideal.bracket_power(q).colon(ideal, budget)
        presentation.twist_colons[e] = cached
    return cached


@dataclass(frozen=True)
class SplittingSample:
    """One splitting-number measurement."""

    e: int
    q: int
    colength: int
    s: Fraction


def splitting_number(presentation: LocalRingPresentation, e: int,
                     budget: Budget | None = None) -> SplittingSample:
    """s_e = (q^n - colength(m^[q] + (I^[q] : I))) / q^d, exactly."""
    if e < 1:
        raise PreconditionError(f"splitting level must be >= 1, got {e}")
    q = frobenius_exponent(presentation.p, e)
    m_bracket = maximal_ideal(presentation.ring).bracket_power(q)
    total = twist_colon_ideal(presentation, e, budget).sum_with(m_bracket)
    colength = q**presentation.ring.nvars - total.colength(budget)
    d = presentation.dimension(budget)
    return SplittingSample(e=e, q=q, colength=colength,
                           s=Fraction(colength, q**d))


@dataclass(frozen=True)
class PurityVerdict:
    is_F_pure: bool
    witness: Polynomial | None
    detail: str


def fedder_test(presentation: LocalRingPresentation,
                budget: Budget | None = None) -> PurityVerdict:
    """F-purity via membership of (I^[p] : I) in m^[p].

    Pure exactly when some basis element of the colon ideal avoids m^[p];
    that element is returned as the witness. Otherwise the verdict carries
    an exhaustion certificate over the reduced basis.
    """
    p = presentation.p
    colon = twist_colon_ideal(presentation, 1, budget)
    m_bracket = maximal_ideal(presentation.ring).bracket_power(p)
    basis = colon.groebner_basis(budget)
    for g in basis:
        if not m_bracket.contains(g, budget):
            return PurityVerdict(
                is_F_pure=True, witness=g,
                detail=f"{g} lies in (I^[{p}] : I) but not in m^[{p}]")
    return PurityVerdict(
        is_F_pure=False, witness=None,
        detail=(f"all {len(basis)} reduced basis elements of (I^[{p}] : I) "
                f"lie in m^[{p}]"))


def fpurity_exponent(presentation: LocalRingPresentation, c: Polynomial,
                     e_cap: int = 4,
                     budget: Budget | None = None) -> int | None:
    """Smallest e <= e_cap with c * (I^[q] : I) not inside m^[q].

    None means the cap was exhausted; the true value may be larger or may
    not exist at all.
    """
    if e_cap < 1:
        raise PreconditionError(f"e_cap must be >= 1, got {e_cap}")
    if c.ring != presentation.ring:
        raise PreconditionError("c must live in the ambient ring")
    for e in range(1, e_cap + 1):
        q = frobenius_exponent(presentation.p, e)
        colon = twist_colon_ideal(presentation, e, budget)
        m_bracket = maximal_ideal(presentation.ring).bracket_power(q)
        for g in colon.groebner_basis(budget):
            if not m_bracket.contains(c * g, budget):
                return e
    return None


@dataclass(frozen=True)
class FSplitReport:
    """Splitting-number sequence with the same tail analysis as for lambda."""

    presentation_id: str
    p: int
    dimension: int
    samples: tuple[SplittingSample, ...]
    empirical_C: Fraction
    interval: RationalInterval
    verdict: PurityVerdict


def fsplit_report(presentation: LocalRingPresentation, e_max: int,
                  budget: Budget | None = None) -> FSplitReport:
    if e_max < 1:
        raise PreconditionError(f"e_max must be >= 1, got {e_max}")
    p = presentation.p
    samples = tuple(splitting_number(presentation, e, budget)
                    for e in range(1, e_max + 1))
    c, interval = tail_interval(p, [(s.e, s.s) for s in samples])
    return FSplitReport(
        presentation_id=describe_presentation(presentation),
        p=p,
        dimension=presentation.dimension(budget),
        samples=samples,
        empirical_C=c,
        interval=interval,
        verdict=fedder_test(presentation, budget))
