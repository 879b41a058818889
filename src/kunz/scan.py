"""Point scans over a presented ring and generic values along subvarieties.

scan_points measures lambda_e and s_e at a list of rational points and
aggregates exact pairwise comparisons into semicontinuity verdicts. Along a
declared subvariety V(P) of dimension h, the generic value of lambda_e is
the length factorization at a smooth witness w,

    lambda_e(generic) = colength(I + P^[q] + (t_1^q..t_h^q)) / q^(ht + h)

with q = p^e, where the t_i lift a regular system of parameters of S/P at
w, ht = dim(S/I) - h is the subvariety's height, and everything is
translated to w. The witness is accepted only when cut = P + (t - t(w)),
whose generators all vanish at w, holds every variable: cut is then the
maximal ideal m of w. Bracket powers are generated by the q-th powers of
any generating set, so P^[q] + (t)^[q] = cut^[q] = m^[q], and the value is
colength(I + m^[q]) / q^dim(S/I): lambda_e of the ring at the witness, by
whichever route localring.bracket_colength picks. The factorized route is
kept as a test oracle, in tests/oracles.py. Witness disagreement is
reported, never raised: the generic value is only locally constant, and a
witness may sit outside the constructible neighborhood where constancy
holds.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from itertools import product

from . import engine
from .budget import DEADLINE_STRIDE, Budget
from .errors import PreconditionError
from .field import FieldConfig, frobenius_levels
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


def _generic_context(ring: PolyRing, ideal_generators: list[Polynomial],
                     subvariety_generators: list[Polynomial],
                     witness: Point, parameters: list[Polynomial],
                     budget: Budget) -> tuple[LocalRingPresentation, int]:
    """Validate a witness: the ring translated to it, and the height of
    the subvariety. The subvariety's presentation is given the Ideal whose
    basis the containment test computed, so its dimension reuses it."""
    check = budget.check_deadline
    sub_ideal = engine.Ideal(ring, translate_to_origin(subvariety_generators,
                                                       witness, check))
    presentation = LocalRingPresentation(
        ring, translate_to_origin(ideal_generators, witness, check))
    if not sub_ideal.contains_ideal(presentation.ideal, budget):
        raise PreconditionError(
            "the subvariety ideal does not contain the presentation ideal")
    quotient = LocalRingPresentation(ring, sub_ideal.generators, sub_ideal)
    h = len(parameters)
    if quotient.dimension(budget) != h:
        raise PreconditionError(
            f"witness rejected: {h} parameters given but the subvariety "
            f"has dimension {quotient.dimension(budget)} at {witness}")
    if not quotient.smoothness_report(budget).smooth:
        raise PreconditionError(
            f"witness rejected: the subvariety is not smooth at {witness}")
    # One declared lift serves every witness: the regular parameter at the
    # witness is t - t(witness).
    lifts = [t - ring.constant(t.evaluate(witness)) for t in parameters]
    cut = sub_ideal.sum_with(
        engine.Ideal(ring, translate_to_origin(lifts, witness, check)))
    if not all(cut.contains(x, budget) for x in ring.gens()):
        raise PreconditionError(
            "witness rejected: the parameters do not cut the subvariety "
            f"to its point at {witness}")
    return presentation, presentation.dimension(budget) - h


def generic_value(ring: PolyRing, ideal_generators: list[Polynomial],
                  subvariety_generators: list[Polynomial], witness: Point,
                  parameters: list[Polynomial], e: int,
                  budget: Budget | None = None) -> Fraction:
    """lambda_e at the generic point of the subvariety: lambda_e of the
    ring at a validated smooth witness (see the module docstring)."""
    budget = budget or Budget()
    presentation, _ = _generic_context(ring, ideal_generators,
                                       subvariety_generators, witness,
                                       parameters, budget)
    return presentation.lambda_value(e, budget)


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
    budget = budget or Budget()
    ring = PolyRing(FieldConfig(p), tuple(variables))
    e_values = tuple(e for e, _ in frobenius_levels(p, e_max))
    check = budget.check_deadline
    gens = [ring.parse(t, check) for t in ideal_texts]
    if points is None:
        points = enumerate_points(ring, gens, budget)
    if not points:
        raise PreconditionError("no points to scan")

    records = []
    for point in points:
        # a route that a theorem takes may check no deadline at all
        budget.check_deadline()
        pres = LocalRingPresentation(
            ring, translate_to_origin(gens, tuple(point), check))
        lam = tuple(pres.lambda_value(e, budget) for e in e_values)
        s = tuple(sample.s
                  for sample in splitting_samples(pres, e_max, budget))
        smooth = pres.smoothness_report(budget).smooth
        records.append(PointRecord(tuple(point), pres.dimension(budget),
                                   smooth, lam, s))

    sub_gens = [[ring.parse(t, check) for t in sub.ideal]
                for sub in subvarieties]
    sub_records = []
    for sub, generators in zip(subvarieties, sub_gens):
        params = [ring.parse(t, check) for t in sub.params]
        witness_values = []
        # every witness gives the same height: dim(S/I) - h
        for witness in sub.witnesses:
            presentation, height = _generic_context(
                ring, gens, generators, tuple(witness), params, budget)
            values = tuple(presentation.lambda_value(e, budget)
                           for e in e_values)
            witness_values.append(WitnessValues(tuple(witness), values))
        agreement = len({wv.values for wv in witness_values}) == 1
        sub_records.append(SubvarietyRecord(
            tuple(sub.ideal), height, len(sub.params),
            tuple(witness_values), agreement))

    verdicts = semicontinuity_verdict(e_values, records, sub_records,
                                      sub_gens, budget)
    return ScanReport(p, tuple(variables), tuple(ideal_texts), e_values,
                      tuple(records), tuple(sub_records), verdicts)


def semicontinuity_verdict(e_values: tuple[int, ...],
                           records: list[PointRecord],
                           sub_records: list[SubvarietyRecord],
                           sub_gens: list[list[Polynomial]],
                           budget: Budget | None = None) -> ScanVerdicts:
    """Exact pairwise comparisons; every failure is listed with its pair.
    sub_gens holds the parsed generators of each of sub_records. A point
    whose lambda_e is at least every smooth reference's and whose s_e is
    at most every one's, at each e, violates nothing; every other point is
    compared with every smooth one. The budget's deadline is checked once
    per point."""
    budget = budget or Budget()
    violations = []
    upper = True
    lower = True
    references = [r for r in records if r.smooth]
    # per e, the largest reference lambda_e and the least reference s_e
    most = tuple(map(max, zip(*(r.lambda_values for r in references))))
    least = tuple(map(min, zip(*(r.s_values for r in references))))
    for special in records:
        budget.check_deadline()
        if (all(map(operator.ge, special.lambda_values, most))
                and all(map(operator.le, special.s_values, least))):
            continue
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
