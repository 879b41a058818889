"""Point scans over a presented ring and generic values along subvarieties.

scan_points measures lambda_e and s_e at a list of rational points and
aggregates exact pairwise comparisons into semicontinuity verdicts. Along a
declared subvariety, generic_value computes lambda_e at the generic point
through a length factorization: with q = p^e, the quotient by a bracket
power is filtered by q^h translates of the fiber at a smooth witness, so

    lambda_e(generic) = colength(I + p^[q] + (t_1^q, ..., t_h^q)) / q^(ht + h)

where the t_i lift a regular system of parameters of the quotient by p at
the witness. Witness disagreement is reported, never raised: the generic
value is only locally constant, and a witness may sit outside the
constructible neighborhood where constancy holds.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product

from .engine import DEADLINE_STRIDE, Budget, Ideal
from .errors import PreconditionError
from .field import FieldConfig, frobenius_exponent
from .fsplit import splitting_samples
from .localring import LocalRingPresentation, Point, translate_to_origin
from .poly import PolyRing, Polynomial

MAX_ENUMERATION_VARS = 4


class PointRecord(namedtuple(
        "PointRecord", "point dimension smooth lambda_values s_values")):
    """Invariants at one point. dimension is that of S/I, not of the local
    ring at the point, and smooth is LocalRingPresentation.smoothness_report's
    verdict, which means regular only where the two dimensions agree.
    lambda_values and s_values are tuples of Fractions, one per e."""

    __slots__ = ()


class WitnessValues(namedtuple("WitnessValues", "witness values")):
    """A witness point and its tuple of Fraction values."""

    __slots__ = ()


class SubvarietyRecord(namedtuple(
        "SubvarietyRecord",
        "generators height parameter_count witness_values agreement")):
    """generators is a tuple of polynomial texts, height and parameter_count
    are ints, witness_values is a tuple of WitnessValues, and agreement is
    a bool."""

    __slots__ = ()


class ScanVerdicts(namedtuple(
        "ScanVerdicts", "upper_semicontinuous_lambda lower_semicontinuous_s "
        "generic_constancy violations")):
    """Three bools and the tuple of violation texts."""

    __slots__ = ()


class ScanReport(namedtuple(
        "ScanReport", "p variables ideal_generators e_values points "
        "subvarieties verdicts")):
    """The scan command's result: the int p; tuples of variable names,
    generator texts and int e values; tuples of PointRecord and
    SubvarietyRecord; and the ScanVerdicts."""

    __slots__ = ()


def enumerate_points(ring: PolyRing, generators: list[Polynomial],
                     budget: Budget | None = None) -> list[Point]:
    """All F_p-rational points of the zero set, by brute force scan.

    There are p^n candidates, so the budget's deadline is checked once
    every DEADLINE_STRIDE of them.
    """
    budget = budget or Budget()
    n = ring.nvars
    if n > MAX_ENUMERATION_VARS:
        raise PreconditionError(
            f"point enumeration supports at most {MAX_ENUMERATION_VARS} "
            f"variables, got {n}")
    points = []
    for i, candidate in enumerate(product(range(ring.p), repeat=n)):
        if not i % DEADLINE_STRIDE:
            budget.check_deadline()
        if all(g.evaluate(candidate) == 0 for g in generators):
            points.append(candidate)
    return points


class _WitnessContext(namedtuple(
        "_WitnessContext", "base_ideal sub_ideal params height h")):
    """A validated witness: the ideals and parameters translated to it.

    base_ideal and sub_ideal are Ideals, params a list of Polynomials, and
    height and h ints.
    """

    __slots__ = ()


def _generic_context(ring: PolyRing, ideal_generators: list[Polynomial],
                     subvariety_generators: list[Polynomial],
                     witness: Point, parameters: list[Polynomial],
                     budget: Budget | None) -> _WitnessContext:
    """Validate a witness and translate everything to it."""
    sub_shifted = translate_to_origin(subvariety_generators, witness)
    ideal_shifted = translate_to_origin(ideal_generators, witness)
    # One declared lift serves every witness: re-center it so the regular
    # parameter at the witness is t - t(witness).
    params_shifted = []
    for t in parameters:
        if any(a % ring.p for a in witness):
            t = t.substitute_shift(witness)
        shifted = t - ring.constant(t.constant_coefficient())
        if shifted.constant_coefficient() != 0:
            raise PreconditionError(
                f"parameter {t} could not be centered at {witness}")
        params_shifted.append(shifted)
    sub_ideal = Ideal(ring, sub_shifted)
    base_ideal = Ideal(ring, ideal_shifted)
    if not sub_ideal.contains_ideal(base_ideal, budget):
        raise PreconditionError(
            "the subvariety ideal does not contain the presentation ideal")
    quotient = LocalRingPresentation(ring, sub_ideal)
    h = len(parameters)
    if quotient.dimension(budget) != h:
        raise PreconditionError(
            f"witness rejected: {h} parameters given but the subvariety "
            f"has dimension {quotient.dimension(budget)} at {witness}")
    if not quotient.smoothness_report(budget).smooth:
        raise PreconditionError(
            f"witness rejected: the subvariety is not smooth at {witness}")
    cut = sub_ideal.sum_with(Ideal(ring, params_shifted))
    if cut.colength(budget) != 1:
        raise PreconditionError(
            "witness rejected: the parameters do not cut the subvariety "
            f"to its point at {witness}")
    d = LocalRingPresentation(ring, base_ideal).dimension(budget)
    height = d - h
    if height < 0:
        raise PreconditionError(
            f"height additivity fails at {witness}: the ring has dimension "
            f"{d} but the subvariety has dimension {h}")
    return _WitnessContext(base_ideal, sub_ideal, params_shifted, height, h)


def _factorized_value(context: _WitnessContext, e: int,
                      budget: Budget | None) -> Fraction:
    """lambda_e through the length factorization at a validated witness."""
    base_ideal, sub_ideal, params, height, h = context
    q = frobenius_exponent(base_ideal.ring.p, e)
    total = base_ideal.sum_with(sub_ideal.bracket_power(q))
    if params:
        total = total.sum_with(Ideal(base_ideal.ring, params).bracket_power(q))
    colength = total.colength(budget)
    return Fraction(colength, q ** (height + h))


def generic_value(ring: PolyRing, ideal_generators: list[Polynomial],
                  subvariety_generators: list[Polynomial], witness: Point,
                  parameters: list[Polynomial], e: int,
                  budget: Budget | None = None) -> Fraction:
    """lambda_e at the generic point of the subvariety, computed at a
    smooth witness through the length factorization."""
    budget = budget or Budget()
    context = _generic_context(ring, ideal_generators, subvariety_generators,
                               witness, parameters, budget)
    return _factorized_value(context, e, budget)


def scan_points(p: int, variables: tuple[str, ...],
                ideal_texts: list[str], points: list[Point] | None = None,
                e_max: int = 2, subvarieties: tuple = (),
                budget: Budget | None = None) -> ScanReport:
    """Per-point invariants, subvariety generic values, and verdicts.

    subvarieties is a tuple of textio.SubvarietySpec, as the job gives
    them. Points default to every rational point of the zero set. Every
    smooth point serves as a generic reference: lambda there must not
    exceed lambda at any other point, and s must not fall below it. Points
    lying on a declared subvariety are compared against its generic value.
    """
    if e_max < 1:
        raise PreconditionError(f"e_max must be >= 1, got {e_max}")
    budget = budget or Budget()
    ring = PolyRing(FieldConfig(p), tuple(variables))
    gens = [ring.parse(t) for t in ideal_texts]
    if points is None:
        points = enumerate_points(ring, gens, budget)
    if not points:
        raise PreconditionError("no points to scan")
    e_values = tuple(range(1, e_max + 1))

    records = []
    for point in points:
        pres = LocalRingPresentation(
            ring, Ideal(ring, translate_to_origin(gens, tuple(point))))
        lam = tuple(pres.lambda_value(e, budget) for e in e_values)
        s = tuple(sample.s
                  for sample in splitting_samples(pres, e_max, budget))
        smooth = pres.smoothness_report(budget).smooth
        records.append(PointRecord(tuple(point), pres.dimension(budget),
                                   smooth, lam, s))

    sub_gens = [[ring.parse(t) for t in sub.ideal] for sub in subvarieties]
    sub_records = []
    for sub, generators in zip(subvarieties, sub_gens):
        params = [ring.parse(t) for t in sub.params]
        witness_values = []
        height = None
        for witness in sub.witnesses:
            context = _generic_context(ring, gens, generators, tuple(witness),
                                       params, budget)
            values = tuple(_factorized_value(context, e, budget)
                           for e in e_values)
            witness_values.append(WitnessValues(tuple(witness), values))
            if height is None:
                height = context.height
        agreement = len({wv.values for wv in witness_values}) == 1
        sub_records.append(SubvarietyRecord(
            tuple(sub.ideal), height, len(sub.params),
            tuple(witness_values), agreement))

    verdicts = semicontinuity_verdict(e_values, records, sub_records,
                                      sub_gens)
    return ScanReport(p, tuple(variables), tuple(ideal_texts), e_values,
                      tuple(records), tuple(sub_records), verdicts)


def semicontinuity_verdict(e_values: tuple[int, ...],
                           records: list[PointRecord],
                           sub_records: list[SubvarietyRecord],
                           sub_gens: list[list[Polynomial]]) -> ScanVerdicts:
    """Exact pairwise comparisons; every failure is listed with its pair.
    sub_gens holds the parsed generators of each of sub_records."""
    violations = []
    upper = True
    lower = True
    references = [r for r in records if r.smooth]
    for special in records:
        for reference in references:
            for i, e in enumerate(e_values):
                if special.lambda_values[i] < reference.lambda_values[i]:
                    upper = False
                    violations.append(
                        f"lambda_{e} drops from reference {reference.point} "
                        f"to {special.point}")
                if special.s_values[i] > reference.s_values[i]:
                    lower = False
                    violations.append(
                        f"s_{e} rises from reference {reference.point} "
                        f"to {special.point}")
    for sub, generators in zip(sub_records, sub_gens):
        generic = sub.witness_values[0].values
        for record in records:
            if any(g.evaluate(record.point) != 0 for g in generators):
                continue
            for i, e in enumerate(e_values):
                if record.lambda_values[i] < generic[i]:
                    upper = False
                    violations.append(
                        f"lambda_{e} at {record.point} is below the generic "
                        f"value of {sub.generators}")
    constancy = all(sub.agreement for sub in sub_records)
    for sub in sub_records:
        if not sub.agreement:
            violations.append(
                f"generic values along {sub.generators} disagree across "
                "witnesses: some witness lies outside the constructible "
                "neighborhood")
    return ScanVerdicts(upper, lower, constancy, tuple(violations))
