"""Checks of the paper's lemmas that no command runs.

Each function computes one lemma's quantities through the package, so the
tests compare them with the value the lemma predicts:

* tame_trial_valuation, the trace-determinant valuation of one sampled
  tame extension (acceptance criterion 3);
* root_closure_check and split_reduction_check, the discriminant's
  closure under q-th roots and its compatibility with reduction on a split
  extension;
* piece_generators and branch_piece_membership, the valuations of a
  branch piece;
* realized_rank_drop, the rank drop of a realized piece module at a
  truncation, the oracle of extension_degree;
* verify_basic_lengths, the colon/quotient length identity (acceptance
  criterion 6);
* hypersurface_bound, colength((F) + m^[q]) <= n * q^(d-1) for F of order
  at most n (acceptance criterion 7).

No command calls them, so they live beside the oracles rather than in the
package. tests/test_curves.py and tests/test_hk.py check them on known
cases, and tests/test_cli.py reads realized_rank_drop.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from kunz.curves import (BranchCurve, _trace_block, _with_doublings,
                         realize_curve, semigroup_membership, tame_invariants)
from kunz.engine import Budget, Ideal
from kunz.errors import PrecisionLossError, PreconditionError
from kunz.field import FieldConfig, RowSpace, frobenius_exponent
from kunz.hk import relative_bracket_colength
from kunz.localring import LocalRingPresentation, bracket_colength
from kunz.poly import Polynomial
from kunz.series import TruncatedSeries, determinant_valuation

# -- branch pieces -------------------------------------------------------------


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


# -- randomized single-extension trials ----------------------------------------


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


# -- containment and reduction checks ------------------------------------------


def series_row(series: TruncatedSeries, offset: int, width: int,
               bound: int) -> list[int]:
    """The coefficients of series below bound, placed from offset in a row
    of the given width; refused when the series is not known to bound."""
    if series.prec is not None and series.prec < bound:
        raise PrecisionLossError(
            f"series known only to O(t^{series.prec}), need {bound}",
            required=bound)
    row = [0] * width
    for m, c in series.coeffs:
        if m < bound:
            row[offset + m] = c
    return row


def realized_rank_drop(curve: BranchCurve, branches, bound: int) -> int:
    """dim of (piece module)/(T * piece module) row-reduced at the bound.

    The piece module of branch b is spanned by s^v for v in the branch
    piece; T acts as s^gamma. Both spans are row-reduced on t-coefficient
    vectors and the difference of their ranks is returned.
    """
    width = len(branches) * bound
    full = RowSpace(curve.p)
    shifted = RowSpace(curve.p)
    drop = 0
    for b_index, br in enumerate(branches):
        member = branch_piece_membership(curve, b_index, bound)
        offset = b_index * bound
        s_power = TruncatedSeries.one(curve.p).truncate(bound)
        for v in range(bound):
            if member[v]:
                row = series_row(s_power, offset, width, bound)
                drop += full.add(row)
                if v >= br.gamma and member[v - br.gamma]:
                    drop -= shifted.add(row)
            s_power = (s_power * br.s).truncate(bound)
    return drop


class RootClosureCheck(namedtuple("RootClosureCheck", "p m tested passed")):
    """Ints p, m and tested, and the bool passed."""

    __slots__ = ()


def root_closure_check(curve: BranchCurve, m: int = 1,
                       seed: int = 0) -> RootClosureCheck:
    """Discriminant times q-th roots stays in the ring the roots of the base
    and the branch algebra generate, q = p^m, checked on a spanning set.

    Single-branch curves only. Work happens in F_p[[u]] with u^q = t. A
    q-th root of an F_p-series simply reinterprets t-exponents as
    u-exponents, since Frobenius fixes the coefficients. The subalgebra is
    spanned by products of powers of the root of the realized parameter and
    embedded branch elements; up to a unit of the base the discriminant is
    T^Delta, and units of the base multiply the subalgebra into itself, so
    the test multiplies by T^Delta. A target lies in the span exactly when
    adding it does not enlarge the row space, and the check stops at the
    first target outside it.
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
            space.add(series_row(row_series.truncate(n_u), 0, width, n_u))
        frontier.append((base * root_param).truncate(n_u))
        a += 1

    disc_shift = inv.Delta * q * gamma
    tested = 0
    for v in span_vals:
        if v > v_cap:
            break
        target = reinterpret(s_powers[v], n_u).shift(disc_shift)
        if space.add(series_row(target.truncate(n_u), 0, width, n_u)):
            return RootClosureCheck(p, m, tested, False)
        tested += 1
    return RootClosureCheck(p, m, tested, True)


class SplitReductionCheck(namedtuple(
        "SplitReductionCheck",
        "p discriminant_reduction reduced_discriminant passed")):
    """Three ints and the bool passed."""

    __slots__ = ()


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


# -- the colon/quotient length identity ----------------------------------------


class BasicLengthsCheck(namedtuple("BasicLengthsCheck",
                                   "q colon_side quotient_side")):
    """Two independently computed sides of the colon/quotient length identity

    l(R / (I^[q] : u^q)) = l((I + (u))^[q] / I^[q]),

    both ints, like q.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.colon_side == self.quotient_side


def verify_basic_lengths(presentation: LocalRingPresentation, inner: Ideal,
                         u: Polynomial, q: int,
                         budget: Budget | None = None) -> BasicLengthsCheck:
    """Check the length identity for one q, both sides through the engine."""
    budget = budget or Budget()
    base = presentation.ideal
    inner_q = base.sum_with(inner.bracket_power(q))
    colon = inner_q.colon(Ideal(presentation.ring, [u.frobenius_power(q)]),
                          budget)
    colon_side = colon.colength(budget)
    quotient_side = relative_bracket_colength(presentation, inner, u, q, budget)
    return BasicLengthsCheck(q=q, colon_side=colon_side,
                             quotient_side=quotient_side)


# -- hypersurface bound --------------------------------------------------------


class HypersurfaceBoundCheck(namedtuple("HypersurfaceBoundCheck",
                                        "n e q colength bound")):
    """The ints n, e, q, colength and bound of one hypersurface check."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.colength <= self.bound


def hypersurface_bound(F: Polynomial, n: int, e: int,
                       budget: Budget | None = None) -> HypersurfaceBoundCheck:
    """Check colength((F) + m^[q]) <= n * q^(d-1) in the ambient ring of F.

    The colength is localring.bracket_colength's, which takes Han's count
    where F is diagonal. The order of vanishing of F must be at most n; a
    unit F with n = 0 is the degenerate equality 0 <= 0.
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
