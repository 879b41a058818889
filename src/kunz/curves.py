"""Multi-branch curve models: tame invariants and trace-form discriminants.

A curve is described by its branches. Each branch is a numerical semigroup
(the valuations realized on that branch) plus, when there are several
branches, the valuations of elements vanishing on all other branches. From
this data the module computes the per-branch constants gamma0, beta, gamma
and the global delta and Delta.

Three facts come from theorems rather than computation: the parameter
valuations are the gammas, the extension degree is delta
(extension_degree), and the discriminant valuation of the tame extension
is Delta (tame_report). The trace form is block diagonal with one block per
branch, and on branch b the block of x, ..., x^gamma_b, x = s^(gamma_b+1)
times any unit, has valuation (gamma_b + 1)^2, so the valuations sum to
Delta. The truncated-series route (discriminant_valuation), which realizes
each branch and takes the determinants of its trace blocks, is kept as the
oracle of that theorem.

The checks of the paper's other lemmas on curves (the root closure, the
split reduction, the branch pieces and the single-extension trials) run in
no command, so they live with the tests, in tests/lemmas.py.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from typing import Iterable

from . import series
from .errors import (MAX_DIGITS, CapacityError, PreconditionError,
                     PrecisionLossError)
from .field import FieldConfig

MAX_BRANCHES = 4
MAX_PRECISION = 1 << 20
# Largest Schur bound a conductor sieve may reach: 2^20 entries, 8 MiB.
MAX_SIEVE = 1 << 20
MAX_DOUBLINGS = 6


def _normalize_generators(values: Iterable[int], label: str) -> tuple[int, ...]:
    out = sorted(set(int(v) for v in values))
    if not out:
        raise PreconditionError(f"{label} needs at least one generator")
    if out[0] < 1:
        raise PreconditionError(f"{label} generators must be positive")
    return tuple(out)


_Branch = namedtuple(
    "_Branch", "semigroup_generators cross_valuations conductor",
    defaults=((), None))


class Branch(_Branch):
    """One branch: its value semigroup and its cross-vanishing valuations.

    semigroup_generators generate the valuations the branch ring realizes in
    its normalization F_p[[t]]. cross_valuations lists the valuations, on
    this branch, of elements vanishing on every other branch; it is required
    exactly when the curve has more than one branch. conductor may be given
    for documentation and is validated against the semigroup. Both
    valuation fields are sorted tuples of ints; conductor is an int, and
    None on input means "compute it".
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Branch:
        self = super().__new__(cls, *args, **kwargs)
        gens = _normalize_generators(self.semigroup_generators, "semigroup")
        if math.gcd(*gens) != 1:
            raise PreconditionError(
                f"semigroup generators {gens} have gcd > 1, the branch "
                "normalization would not be all of F_p[[t]]")
        cross = tuple(sorted(int(v) for v in self.cross_valuations))
        if cross and cross[0] < 1:
            raise PreconditionError("cross valuations must be positive")
        computed = semigroup_conductor(gens)
        if self.conductor is not None and self.conductor != computed:
            raise PreconditionError(
                f"declared conductor {self.conductor} is inconsistent with "
                f"the semigroup (computed {computed})")
        return super().__new__(cls, gens, cross, computed)


_BranchCurve = namedtuple("_BranchCurve", "p branches")


class BranchCurve(_BranchCurve):
    """A curve over F_p with branches glued at a single point.

    branches is a tuple of Branch.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> BranchCurve:
        self = super().__new__(cls, *args, **kwargs)
        FieldConfig(self.p)
        branches = tuple(self.branches)
        if not branches:
            raise PreconditionError("a curve needs at least one branch")
        if len(branches) > MAX_BRANCHES:
            raise PreconditionError(
                f"at most {MAX_BRANCHES} branches are supported")
        for b in branches:
            if len(branches) == 1 and b.cross_valuations:
                raise PreconditionError(
                    "cross valuations make no sense for a single branch")
            if len(branches) > 1 and not b.cross_valuations:
                raise PreconditionError(
                    "every branch of a multi-branch curve needs cross "
                    "valuations")
        return super().__new__(cls, self.p, branches)


class BranchInvariants(namedtuple("BranchInvariants", "gamma0 beta gamma")):
    """The ints gamma0, beta and gamma of one branch."""

    __slots__ = ()


class TameInvariants(namedtuple("TameInvariants", "per_branch delta Delta")):
    """per_branch is a tuple of BranchInvariants; delta and Delta are ints."""

    __slots__ = ()


def semigroup_membership(generators: tuple[int, ...], bound: int) -> list[bool]:
    """member[v] for v < bound of the semigroup the generators span."""
    member = [False] * max(bound, 1)
    member[0] = True
    for v in range(1, bound):
        for g in generators:
            if g <= v and member[v - g]:
                member[v] = True
                break
    return member


def semigroup_conductor(generators: tuple[int, ...]) -> int:
    """Least c with [c, infinity) contained in the semigroup, for sorted
    generators a_1 < .. < a_k with gcd 1.

    Schur's bound (Brauer, "On a problem of partitions", Amer. J. Math. 64,
    1942) puts every gap below (a_1 - 1)(a_k - 1), so one sieve to that
    bound holds them all: c is one past the last gap, or 0 when there is
    none. A bound past MAX_SIEVE is refused before the sieve is allocated.
    """
    bound = (generators[0] - 1) * (generators[-1] - 1)
    if bound > MAX_SIEVE:
        raise CapacityError(
            f"Schur's bound {bound} for the semigroup {generators} exceeds "
            f"the sieve capacity {MAX_SIEVE}")
    member = semigroup_membership(generators, bound)
    if all(member):
        return 0
    return len(member) - member[::-1].index(False)


def tame_invariants(curve: BranchCurve) -> TameInvariants:
    """gamma0, beta, gamma per branch; delta and Delta for the curve.

    gamma0 is the branch conductor, beta the least cross-vanishing valuation
    (0 for a single branch), and gamma the least integer >= gamma0 + beta
    not divisible by p. delta sums the gammas and Delta sums (gamma + 1)^2.
    """
    p = curve.p
    multi = len(curve.branches) > 1
    per = []
    for br in curve.branches:
        gamma0 = br.conductor
        beta = min(br.cross_valuations) if multi else 0
        gamma = max(gamma0 + beta, 1)
        while gamma % p == 0:
            gamma += 1
        # Minimality: one step down breaks a defining constraint.
        assert gamma - 1 < max(gamma0 + beta, 1) or (gamma - 1) % p == 0
        per.append(BranchInvariants(gamma0, beta, gamma))
    delta = sum(b.gamma for b in per)
    Delta = sum((b.gamma + 1) ** 2 for b in per)
    return TameInvariants(tuple(per), delta, Delta)


def default_precision(curve: BranchCurve) -> int:
    return 2 * tame_invariants(curve).Delta + 2


# -- realized branches and their trace blocks -------------------------------


class BranchRealization(namedtuple("BranchRealization",
                                   "gamma s basis_element")):
    """One branch realized in F_p[t]/(t^N) with a re-uniformized coordinate.

    s = t * u^(1/gamma), for a random unit u with residue 1, is the
    coordinate with s^gamma = t^gamma * u, the branch component of the
    realized parameter. basis_element is x = s^(gamma+1) * (unit with
    residue 1), kept as a series in s; its powers x, x^2, ..., x^gamma are
    the family whose trace block is measured. gamma is an int; s and
    basis_element are TruncatedSeries.
    """

    __slots__ = ()


def _random_unit(rng: random.Random, p: int,
                 degree: int) -> series.TruncatedSeries:
    coeffs = {0: 1}
    for j in range(1, degree + 1):
        coeffs[j] = rng.randrange(p)
    return series.TruncatedSeries.make(p, coeffs)


def realize_curve(curve: BranchCurve, precision: int | None = None,
                  seed: int = 0) -> tuple[BranchRealization, ...]:
    """Realize every branch with random residue-1 units at the precision."""
    inv = tame_invariants(curve)
    n = default_precision(curve) if precision is None else precision
    if n < 2:
        raise PreconditionError("realization needs precision at least 2")
    if n > MAX_PRECISION:
        raise PreconditionError(f"precision {n} exceeds {MAX_PRECISION}")
    p = curve.p
    tag = ",".join(
        f"{b.semigroup_generators}/{b.cross_valuations}"
        for b in curve.branches)
    rng = random.Random(f"kunz:curve:{seed}:{p}:{tag}")
    t = series.TruncatedSeries.monomial(p, 1)
    realized = []
    for binv in inv.per_branch:
        gamma = binv.gamma
        unit = _random_unit(rng, p, 3)
        tau = t ** gamma * unit
        root = unit.kth_root_of_unit(gamma, n)
        s = (t * root).truncate(n + 1)
        mismatch = (s ** gamma - tau).truncate(n)
        assert not mismatch.coeffs, "re-uniformization failed"
        x = _random_unit(rng, p, n).truncate(n).shift(gamma + 1)
        realized.append(BranchRealization(gamma, s, x))
    return tuple(realized)


def _with_doublings(attempt, n: int, what: str):
    """attempt(n), doubling n (or raising it to the required precision) on
    each precision error, for at most MAX_DOUBLINGS attempts."""
    last: PrecisionLossError | None = None
    for _ in range(MAX_DOUBLINGS):
        try:
            return attempt(n)
        except PrecisionLossError as err:
            last = err
            n = max(2 * n, err.required or 0)
    raise PrecisionLossError(
        f"{what} not certified after {MAX_DOUBLINGS} precision doublings",
        required=n) from last


def _trace_block(x: series.TruncatedSeries,
                 g: int) -> list[list[series.TruncatedSeries]]:
    """Tr(x^i * x^j) down to the degree-g tame base, for i, j = 1..g."""
    powers = {1: x}
    for k in range(2, 2 * g + 1):
        powers[k] = powers[k - 1] * x
    return [[series.tame_trace(powers[i + j], g)
             for j in range(1, g + 1)] for i in range(1, g + 1)]


def discriminant_valuation(curve: BranchCurve, precision: int | None = None,
                           seed: int = 0) -> int:
    """T-adic valuation of the trace-form determinant, by truncated series.

    The oracle of the block theorem (tame_report): the answer is Delta.
    Products of elements on different branches vanish, so the trace matrix
    of the whole family is block diagonal with one block per branch, and
    its determinant is the product of the blocks' determinants: the
    valuation is the sum over the branches of the block valuations.

    Each block starts at the given precision, which must be at least the
    default, or else at twice its own valuation (gamma + 1)^2 plus 2, and
    doubles on precision errors, up to MAX_DOUBLINGS times. Blocks that ask
    for the same precision share one realization of the curve.
    """
    minimum = default_precision(curve)
    if precision is not None and precision < minimum:
        raise PreconditionError(
            f"precision {precision} is below the required {minimum}")
    realized: dict[int, tuple[BranchRealization, ...]] = {}

    def block(index: int, n: int) -> int:
        if n not in realized:
            realized[n] = realize_curve(curve, n, seed)
        br = realized[n][index]
        return series.determinant_valuation(
            _trace_block(br.basis_element, br.gamma))

    return sum(
        _with_doublings(
            lambda n, index=index: block(index, n),
            2 * (binv.gamma + 1) ** 2 + 2 if precision is None else precision,
            "discriminant valuation")
        for index, binv in enumerate(tame_invariants(curve).per_branch))


# -- module rank and generator counts --------------------------------------


def extension_degree(curve: BranchCurve) -> int:
    """Rank over F_p[[T]] of the piece module: delta, by a valuation count.

    On branch b the piece module is spanned over F_p[[T]], T = s^gamma, by
    the s^v for v in the piece valuation set P: for a single branch the
    nonzero semigroup values; for several, the sums of one cross valuation
    and a member of the monoid that the semigroup and the cross valuations
    span (tests/lemmas.py computes P the same way). Each s^v has
    t-valuation exactly v, so the module is fixed by P alone and the
    random units of a realization cannot change its rank.
    P + gamma lies in P, because gamma >= conductor puts gamma in the
    semigroup, and P contains every integer from some point on. So the
    elements of P in each residue class r mod gamma form one chain m_r,
    m_r + gamma, m_r + 2 gamma, ...; the gamma elements s^(m_r) are a basis,
    and the rank is gamma. Summed over the branches this is delta. The
    module is free, so the rank is also its minimal generator count.

    A rank drop measured on a realization reaches delta only at
    truncations from c_P + gamma on, c_P the conductor of P, so it cannot
    certify the rank at a given precision; the tests keep it as an oracle.
    """
    return tame_invariants(curve).delta


class GeneratorBoundCheck(namedtuple("GeneratorBoundCheck",
                                     "count delta mu bound passed")):
    """Ints count, delta, mu and bound, and the bool passed."""

    __slots__ = ()


def generator_bound_check(curve: BranchCurve, count: int,
                          mu: int = 1) -> GeneratorBoundCheck:
    """Compare a generator count of the realized module with delta^mu.

    The count is computed by the caller, normally as extension_degree (the
    piece module is free); this function does no rank work. A bound of
    more than MAX_DIGITS decimal digits is refused before the power
    is built.
    """
    if mu < 1:
        raise PreconditionError("mu must be at least 1")
    inv = tame_invariants(curve)
    # delta^mu has at least mu * log10(delta) digits, so a power far past
    # the limit is refused unbuilt and one near it is compared exactly.
    far = (inv.delta > 1
           and mu > (MAX_DIGITS + 1) / math.log10(inv.delta))
    bound = 0 if far else inv.delta ** mu
    if far or bound >= 10 ** MAX_DIGITS:
        raise CapacityError(
            f"generator bound delta^mu = {inv.delta}^{mu} exceeds "
            f"{MAX_DIGITS} digits")
    return GeneratorBoundCheck(count, inv.delta, mu, bound, count <= bound)


# -- aggregate report -------------------------------------------------------


class TameReport(namedtuple(
        "TameReport",
        "p semigroups invariants parameter_valuations discriminant_valuation "
        "extension_degree generator_count generator_bound precision")):
    """The tame command's result.

    semigroups is a tuple of int tuples, one per branch, and
    parameter_valuations a tuple of ints; invariants is a TameInvariants
    and generator_bound a GeneratorBoundCheck. Every other field is an int:
    precision is default_precision(curve), the truncation order at which
    the series oracle (discriminant_valuation) would start. No series is
    built at it.
    """

    __slots__ = ()


def tame_report(curve: BranchCurve, mu: int = 1) -> TameReport:
    """All tame-curve outputs for one curve, each from a theorem.

    The parameter valuations are the gammas: the parameter is t^gamma on
    each branch, and gamma lies in the branch piece because gamma - beta is
    past the conductor. The discriminant valuation is Delta by the block
    theorem (module docstring), and the extension degree and the generator
    count are delta (extension_degree), so no branch is realized. A default
    precision past MAX_PRECISION is refused as the series route
    (discriminant_valuation, the oracle) would refuse it.
    """
    inv = tame_invariants(curve)
    n = default_precision(curve)
    if n > MAX_PRECISION:
        raise PreconditionError(f"precision {n} exceeds {MAX_PRECISION}")
    degree = extension_degree(curve)
    bound = generator_bound_check(curve, degree, mu)
    return TameReport(curve.p,
                      tuple(b.semigroup_generators for b in curve.branches),
                      inv, tuple(b.gamma for b in inv.per_branch), inv.Delta,
                      degree, degree, bound, n)
