"""Multi-branch curve models: tame invariants and trace-form discriminants.

A curve is described by its branches. Each branch is a numerical semigroup
(the valuations realized on that branch) plus, when there are several
branches, the valuations of elements vanishing on all other branches. From
this data the module computes the per-branch constants gamma0, beta, gamma
and the global delta and Delta, and certifies the discriminant valuation of
the tame extension by an exact truncated-series trace computation.

Two facts come from theorems rather than computation: the parameter
valuations are the gammas (tame_report), and the trace form is block
diagonal with one block per branch, so the discriminant valuation is a sum
of per-branch block valuations (discriminant_valuation).

root_closure_check, split_reduction_check, piece_generators and
tame_trial_valuation are library checks of the paper's lemmas. No command
calls them; the tests and the acceptance suite exercise them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import PreconditionError, PrecisionLossError
from .field import FieldConfig, RowSpace
from .series import (TruncatedSeries, determinant_valuation, tame_trace)

MAX_BRANCHES = 4
MAX_PRECISION = 1 << 20
MAX_DOUBLINGS = 6


def _normalize_generators(values: Iterable[int], label: str) -> tuple[int, ...]:
    out = sorted(set(int(v) for v in values))
    if not out:
        raise PreconditionError(f"{label} needs at least one generator")
    if out[0] < 1:
        raise PreconditionError(f"{label} generators must be positive")
    return tuple(out)


@dataclass(frozen=True)
class Branch:
    """One branch: its value semigroup and its cross-vanishing valuations.

    semigroup_generators generate the valuations the branch ring realizes in
    its normalization F_p[[t]]. cross_valuations lists the valuations, on
    this branch, of elements vanishing on every other branch; it is required
    exactly when the curve has more than one branch. conductor may be given
    for documentation and is validated against the semigroup.
    """

    semigroup_generators: tuple[int, ...]
    cross_valuations: tuple[int, ...] = ()
    conductor: int | None = None

    def __post_init__(self):
        gens = _normalize_generators(self.semigroup_generators, "semigroup")
        object.__setattr__(self, "semigroup_generators", gens)
        if math.gcd(*gens) != 1:
            raise PreconditionError(
                f"semigroup generators {gens} have gcd > 1, the branch "
                "normalization would not be all of F_p[[t]]")
        cross = tuple(sorted(int(v) for v in self.cross_valuations))
        if cross and cross[0] < 1:
            raise PreconditionError("cross valuations must be positive")
        object.__setattr__(self, "cross_valuations", cross)
        computed = semigroup_conductor(gens)
        if self.conductor is None:
            object.__setattr__(self, "conductor", computed)
        elif self.conductor != computed:
            raise PreconditionError(
                f"declared conductor {self.conductor} is inconsistent with "
                f"the semigroup (computed {computed})")


@dataclass(frozen=True)
class BranchCurve:
    """A curve over F_p with branches glued at a single point."""

    p: int
    branches: tuple[Branch, ...]

    def __post_init__(self):
        FieldConfig(self.p)
        branches = tuple(self.branches)
        object.__setattr__(self, "branches", branches)
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


class BranchInvariants(NamedTuple):
    gamma0: int
    beta: int
    gamma: int


class TameInvariants(NamedTuple):
    per_branch: tuple[BranchInvariants, ...]
    delta: int
    Delta: int


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
    """Least c with [c, infinity) contained in the semigroup (gcd must be 1)."""
    a, b = generators[0], generators[-1]
    bound = (a - 1) * (b - 1) + b + 1
    while True:
        member = semigroup_membership(generators, bound)
        gaps = [v for v in range(bound) if not member[v]]
        if not gaps:
            return 0
        c = gaps[-1] + 1
        # A full window of min-generator length certifies the tail.
        if c + a <= bound and all(member[c:c + a]):
            return c
        bound *= 2


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


def branch_piece_membership(curve: BranchCurve, index: int,
                            bound: int) -> list[bool]:
    """member[v] for v < bound of the valuations the branch piece realizes.

    For a single branch the piece is the maximal ideal of the branch ring,
    every nonzero semigroup value. For several branches it is the set of
    valuations of elements vanishing on the other branches: sums of one
    declared cross valuation and members of the monoid spanned by the
    semigroup together with the cross valuations.
    """
    br = curve.branches[index]
    if len(curve.branches) == 1:
        member = semigroup_membership(br.semigroup_generators, bound)
        member[0] = False
        return member
    monoid = semigroup_membership(
        br.semigroup_generators + br.cross_valuations, bound)
    member = [False] * bound
    for v in range(bound):
        for c in br.cross_valuations:
            if c <= v and monoid[v - c]:
                member[v] = True
                break
    return member


def piece_generators(curve: BranchCurve, index: int, gamma: int,
                     bound: int) -> list[int]:
    """Valuations below bound that generate the branch piece over the
    parameter action t -> t + gamma."""
    member = branch_piece_membership(curve, index, bound)
    return [v for v in range(bound)
            if member[v] and (v < gamma or not member[v - gamma])]


# -- realized branches and their trace blocks -------------------------------


class BranchRealization(NamedTuple):
    """One branch realized in F_p[t]/(t^N) with a re-uniformized coordinate.

    s = t * u^(1/gamma), for a random unit u with residue 1, is the
    coordinate with s^gamma = t^gamma * u, the branch component of the
    realized parameter. basis_element is x = s^(gamma+1) * (unit with
    residue 1), kept as a series in s; its powers x, x^2, ..., x^gamma are
    the family whose trace block is measured.
    """

    gamma: int
    s: TruncatedSeries
    basis_element: TruncatedSeries


def _random_unit(rng: random.Random, p: int, degree: int) -> TruncatedSeries:
    coeffs = {0: 1}
    for j in range(1, degree + 1):
        coeffs[j] = rng.randrange(p)
    return TruncatedSeries.make(p, coeffs)


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
    t = TruncatedSeries.monomial(p, 1)
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


def _trace_block(x: TruncatedSeries,
                 g: int) -> list[list[TruncatedSeries]]:
    """Tr(x^i * x^j) down to the degree-g tame base, for i, j = 1..g."""
    powers = {1: x}
    for k in range(2, 2 * g + 1):
        powers[k] = powers[k - 1] * x
    return [[tame_trace(powers[i + j], g) for j in range(1, g + 1)]
            for i in range(1, g + 1)]


def discriminant_valuation(curve: BranchCurve, precision: int | None = None,
                           seed: int = 0) -> int:
    """T-adic valuation of the trace-form determinant; expected Delta.

    Products of elements on different branches vanish, so the trace matrix
    of the whole family is block diagonal with one block per branch, and
    its determinant is the product of the blocks' determinants: the
    valuation is the sum over the branches of the block valuations.

    Starts at the default precision (or the given one, which must be at
    least the default) and doubles on precision errors, up to MAX_DOUBLINGS
    times.
    """
    minimum = default_precision(curve)
    if precision is None:
        n = minimum
    elif precision < minimum:
        raise PreconditionError(
            f"precision {precision} is below the required {minimum}")
    else:
        n = precision
    return _with_doublings(
        lambda n: sum(
            determinant_valuation(_trace_block(br.basis_element, br.gamma))
            for br in realize_curve(curve, n, seed)),
        n, "discriminant valuation")


# -- module rank and generator counts --------------------------------------


def extension_degree(curve: BranchCurve) -> int:
    """Rank over F_p[[T]] of the piece module: delta, by a valuation count.

    On branch b the piece module is spanned over F_p[[T]], T = s^gamma, by
    the s^v for v in the piece valuation set P (branch_piece_membership).
    Each s^v has t-valuation exactly v, so the module is fixed by P alone
    and the random units of a realization cannot change its rank.
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


class GeneratorBoundCheck(NamedTuple):
    count: int
    delta: int
    mu: int
    bound: int
    passed: bool


def generator_bound_check(curve: BranchCurve, count: int,
                          mu: int = 1) -> GeneratorBoundCheck:
    """Compare a generator count of the realized module with delta^mu.

    The count is computed by the caller, normally as extension_degree (the
    piece module is free); this function does no rank work.
    """
    if mu < 1:
        raise PreconditionError("mu must be at least 1")
    inv = tame_invariants(curve)
    bound = inv.delta ** mu
    return GeneratorBoundCheck(count, inv.delta, mu, bound, count <= bound)


# -- randomized single-extension trials ------------------------------------


def tame_trial_valuation(p: int, degree: int, x_valuation: int,
                         seed: int = 0, precision: int | None = None) -> int:
    """Trace-determinant valuation for one tame extension of the given degree.

    The extension F_p[[s]] over F_p[[T]], T = s^degree, is sampled with
    x = s^x_valuation * (random unit); the returned valuation of
    det(Tr(x^(i+j))) for i, j = 1..degree is expected to be exactly
    (degree + 1) * x_valuation. Requires p coprime to the degree and the
    valuation coprime to the degree, else the anti-diagonal minimum of the
    determinant expansion is not unique and the value is not pinned.
    """
    FieldConfig(p)
    if degree < 1 or degree % p == 0:
        raise PreconditionError(
            f"degree must be positive and coprime to p, got {degree}")
    if x_valuation < 1 or math.gcd(x_valuation, degree) != 1:
        raise PreconditionError(
            f"x valuation {x_valuation} must be positive and coprime to "
            f"the degree {degree}")
    n = precision
    if n is None:
        n = degree * (degree + 1) * x_valuation + 2 * degree + 2
    rng = random.Random(f"kunz:trial:{seed}:{p}:{degree}:{x_valuation}")
    lead = rng.randrange(1, p)
    # Unit coefficients are drawn once and extended as the precision grows.
    tail: list[int] = []

    def attempt(n: int) -> int:
        while len(tail) < n - 1:
            tail.append(rng.randrange(p))
        unit = TruncatedSeries.make(p, {0: lead, **dict(enumerate(tail, 1))},
                                    n)
        return determinant_valuation(
            _trace_block(unit.shift(x_valuation), degree))

    return _with_doublings(attempt, n, "trial determinant")


# -- containment and reduction checks --------------------------------------


def _series_row(series: TruncatedSeries, offset: int, width: int,
                bound: int) -> list[int]:
    if series.prec is not None and series.prec < bound:
        raise PrecisionLossError(
            f"series known only to O(t^{series.prec}), need {bound}",
            required=bound)
    row = [0] * width
    for m, c in series.coeffs:
        if m < bound:
            row[offset + m] = c
    return row


class RootClosureCheck(NamedTuple):
    p: int
    m: int
    tested: int
    passed: bool


def root_closure_check(curve: BranchCurve, m: int = 1,
                       precision: int | None = None,
                       seed: int = 0) -> RootClosureCheck:
    """Discriminant times q-th roots stays in the ring the roots of the base
    and the branch algebra generate, q = p^m, checked on a spanning set.

    Single-branch curves only. Work happens in F_p[[u]] with u^q = t. A
    q-th root of an F_p-series simply reinterprets t-exponents as
    u-exponents, since Frobenius fixes the coefficients. The subalgebra is
    spanned by products of powers of the root of the realized parameter and
    embedded branch elements; up to a unit of the base the discriminant is
    T^Delta, and units of the base multiply the subalgebra into itself, so
    the test multiplies by T^Delta.
    """
    if len(curve.branches) > 1:
        raise PreconditionError(
            "the root containment check supports single-branch curves only")
    if m < 1:
        raise PreconditionError("m must be at least 1")
    inv = tame_invariants(curve)
    gamma = inv.per_branch[0].gamma
    q = curve.p ** m
    p = curve.p
    # u-valuations: the parameter root has gamma, embedded branch elements
    # q * v, targets Delta * q * gamma + v. Size the window to catch every
    # spanning target of bounded valuation.
    v_cap = max(inv.Delta, gamma) + 2
    n_u = inv.Delta * q * gamma + v_cap + q * gamma + 2
    # A q-th root keeps one u-coefficient per t-coefficient, so certifying
    # the subalgebra out to u^n_u takes t-precision n_u as well.
    n_t = n_u + 2
    br = realize_curve(curve, n_t, seed)[0]
    parameter = (br.s ** gamma).truncate(n_t)

    def scale_exponents(series: TruncatedSeries, factor: int,
                        prec: int) -> TruncatedSeries:
        coeffs = {e * factor: c for e, c in series.coeffs}
        base = series.prec
        limit = prec if base is None else min(base * factor, prec)
        return TruncatedSeries.make(p, coeffs, limit)

    def reinterpret(series: TruncatedSeries, prec: int) -> TruncatedSeries:
        coeffs = dict(series.coeffs)
        base = series.prec
        limit = prec if base is None else min(base, prec)
        return TruncatedSeries.make(p, coeffs, limit)

    member = branch_piece_membership(curve, 0, n_t)
    span_vals = [0] + [v for v in range(n_t) if member[v]]
    s_powers = {0: TruncatedSeries.one(p).truncate(n_t)}
    for v in range(1, n_t):
        s_powers[v] = (s_powers[v - 1] * br.s).truncate(n_t)

    root_param = reinterpret(parameter, n_u)
    space = RowSpace(p)
    width = n_u
    frontier = [TruncatedSeries.one(p).truncate(n_u)]
    a = 0
    while a * gamma < n_u:
        base = frontier[a]
        for v in span_vals:
            if a * gamma + q * v >= n_u:
                break
            row_series = (base * scale_exponents(s_powers[v], q, n_u))
            space.add(_series_row(row_series.truncate(n_u), 0, width, n_u))
        frontier.append((base * root_param).truncate(n_u))
        a += 1

    disc_shift = inv.Delta * q * gamma
    tested = 0
    for v in span_vals:
        if v > v_cap:
            break
        target = reinterpret(s_powers[v], n_u).shift(disc_shift)
        if not space.contains(
                _series_row(target.truncate(n_u), 0, width, n_u)):
            return RootClosureCheck(p, m, tested, False)
        tested += 1
    return RootClosureCheck(p, m, tested, True)


class SplitReductionCheck(NamedTuple):
    p: int
    discriminant_reduction: int
    reduced_discriminant: int
    passed: bool


def split_reduction_check(p: int, seed: int = 0) -> SplitReductionCheck:
    """Reduction of the discriminant equals the discriminant of the reduction
    for a split unramified rank-2 extension of F_p[[T]].

    The extension is two copies of the base. A random basis with unit
    determinant is drawn; its trace-form discriminant is a unit series whose
    constant term must match the discriminant of the reduced (T = 0) basis.
    """
    FieldConfig(p)
    rng = random.Random(f"kunz:split:{seed}:{p}")
    n = 8
    while True:
        rows = [[TruncatedSeries.make(
            p, {j: rng.randrange(p) for j in range(4)}, n)
            for _ in range(2)] for _ in range(2)]
        det0 = (rows[0][0].coefficient(0) * rows[1][1].coefficient(0)
                - rows[0][1].coefficient(0) * rows[1][0].coefficient(0)) % p
        if det0:
            break
    # Trace form of (a, b), (c, d) in the split algebra: ac + bd.
    gram = [[rows[i][0] * rows[j][0] + rows[i][1] * rows[j][1]
             for j in range(2)] for i in range(2)]
    disc = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    reduced_rows = [[rows[i][j].coefficient(0) for j in range(2)]
                    for i in range(2)]
    reduced_gram = [[(reduced_rows[i][0] * reduced_rows[j][0]
                      + reduced_rows[i][1] * reduced_rows[j][1]) % p
                     for j in range(2)] for i in range(2)]
    reduced_disc = (reduced_gram[0][0] * reduced_gram[1][1]
                    - reduced_gram[0][1] * reduced_gram[1][0]) % p
    reduction = disc.coefficient(0)
    return SplitReductionCheck(p, reduction, reduced_disc,
                               reduction == reduced_disc)


# -- aggregate report -------------------------------------------------------


class TameReport(NamedTuple):
    p: int
    semigroups: tuple[tuple[int, ...], ...]
    invariants: TameInvariants
    parameter_valuations: tuple[int, ...]
    discriminant_valuation: int
    extension_degree: int
    generator_count: int
    generator_bound: GeneratorBoundCheck
    precision: int
    seed: int


def tame_report(curve: BranchCurve, precision: int | None = None,
                seed: int = 0, mu: int = 1) -> TameReport:
    """All tame-curve outputs for one curve, at a shared precision.

    The parameter valuations are the gammas: the parameter is t^gamma on
    each branch, and gamma lies in the branch piece because gamma - beta is
    past the conductor. Truncated at the precision, t^gamma must survive,
    so the precision must exceed every gamma; a lower one is refused with
    a retry precision, at least double it, that does. The curve is realized
    once, for the discriminant; the extension degree and the generator count
    are delta (extension_degree).
    """
    inv = tame_invariants(curve)
    n = default_precision(curve) if precision is None else precision
    if n < 1:
        raise PreconditionError("precision must be positive")
    gammas = tuple(b.gamma for b in inv.per_branch)
    if n <= max(gammas):
        raise PrecisionLossError(
            f"valuation not certified below precision {n}",
            required=max(2 * n, max(gammas) + 1))
    disc = discriminant_valuation(curve, max(n, default_precision(curve)),
                                  seed)
    degree = extension_degree(curve)
    bound = generator_bound_check(curve, degree, mu)
    return TameReport(curve.p,
                      tuple(b.semigroup_generators for b in curve.branches),
                      inv, gammas, disc, degree,
                      degree, bound, n, seed)
