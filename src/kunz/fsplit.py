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

A diagonal hypersurface f, sum c_i x_i^(d_i) or a quadric in odd p,
skips both the colon and the colength. (I^[q] : I) + m^[q] is
(f^(q-1)) + m^[q] by the identity below, and with T acting as f on
S/m^[q], a tensor product of the k[x_i]/(x_i^q), the splitting numerator
q^n - colength(m^[q] + (f^(q-1))) is the number of Jordan blocks of size
q. Han's closed form for D(a, b, c) = dim k[x,y]/(x^a, y^b, (x+y)^c)
counts them (C. Han, thesis, Brandeis 1991; Han and Monsky, "Some
surprising Hilbert-Kunz functions", Math. Z. 214, 1993); see the diagonal
module. fedder_test still takes a reduced basis of (I^[p] : I), since its
witness is a reduced basis element; for a hypersurface I = (f) that basis
is read off an identity instead of computed. S is a domain, so c f lies in
(f^p) exactly when f^(p-1) divides c, and (f^[p] : f) = (f^(p-1)), whose
reduced basis is the monic f^(p-1) alone (Fedder, "F-purity and rational
singularity", Trans. AMS 278, 1983, for the colon; the hypersurface case
of the identity for complete intersections below). Its dimension, n - 1,
comes from Krull's principal ideal theorem (see the localring module), so
a hypersurface's purity verdict needs no Groebner basis at all.

A regular origin skips them too: where the r generators of I vanish at the
origin with independent linear parts, F^e_* R is free of rank q^(n - r) by
Kunz's theorem, and that rank is the splitting numerator. Both theorems
are recognized once, by localring.closed_form when the presentation is
built (see the localring module), and splitting_samples reads that answer.

Complete intersections skip the colon. If I = (f_1..f_c) is generated by a
regular sequence in a regular local ring, Fedder's lemma gives

    (I^[q] : I) = I^[q] + (h^(q-1)),    h = f_1 * ... * f_c

(Fedder, "F-purity and rational singularity", Trans. AMS 278, 1983). I is
called a complete intersection here when I != 0 and n - dim(S/I) equals its
number c of generators. Then the identity holds in S:

* Krull's height theorem bounds the height of every minimal prime of I by
  c, and dim(S/I) = n - c makes every minimal prime P have dim(S/P) <=
  n - c, so height exactly c, since S is a polynomial ring;
* so at every maximal ideal M containing I, I_M has height c and c
  generators, and S_M is Cohen-Macaulay, so f_1..f_c is a regular sequence
  in S_M and the identity holds there; at M not containing I both sides
  are the unit ideal;
* an equality of ideals that holds at every maximal ideal holds in S.

Every generator vanishes at the origin (LocalRingPresentation checks it), so
I^[q] lies in the monomial ideal m^[q], and

    (I^[q] : I) + m^[q] = (h^(q-1)) + m^[q].

Both s_e and the purity exponent therefore need h^(q-1) only modulo m^[q]:
its terms in the box of exponents below q. Since
h^(q-1) = prod_{i<e} (h^[p^i])^(p-1), and m^[q] is a monomial ideal, every
partial product may drop its terms with an exponent >= q; the products run
from the highest Frobenius power down, so most terms leave the box early.
h^(p-1) itself takes about 2 log2 p products, by repeated squaring, and
every product checks the job's deadline. No Groebner basis of a colon is
computed. Fedder's identity is built in two places only: twist_levels
takes h^(q-1) modulo m^[q] as above, and fedder_test the reduced basis of
I^[p] + (h^(p-1)). Every other ideal takes the general colon of
twist_colon_ideal, by elimination (engine.Ideal.colon): for homogeneous I
by restriction to one generator of I at a time, otherwise by intersecting
the colons by each generator. twist_levels yields either one modulo m^[q]
as polynomials J_e with (I^[q] : I) + m^[q] = (J_e) + m^[q], up to the
first empty J_e: the ring splits at no later level. splitting_samples and
fpurity_exponent each read J_1, J_2, .. from one walk of the levels
field.frobenius_levels gives, and localring.bracket_colength counts
(J_e) + m^[q]; splitting_number is the last of splitting_samples.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce

from . import engine, kernel
from .budget import Budget
from .errors import PreconditionError
from .field import frobenius_levels
from .hk import describe_presentation, tail_interval
from .localring import LocalRingPresentation, bracket_colength
from .poly import Polynomial


def is_complete_intersection(presentation: LocalRingPresentation,
                             budget: Budget | None = None) -> bool:
    """Whether I != 0 and n - dim(S/I) equals the number of generators of I.

    Then the generators form a regular sequence at every maximal ideal
    containing I (see the module docstring), and Fedder's identity holds.
    """
    generators = presentation.generators
    return (bool(generators)
            and presentation.ring.nvars - presentation.dimension(budget)
            == len(generators))


def twist_colon_ideal(presentation: LocalRingPresentation, e: int,
                      budget: Budget | None = None) -> engine.Ideal:
    """(I^[q] : I) in the ambient ring, q = p^e, by the general colon,
    cached on the presentation. e is a level of field.frobenius_levels, so
    q fits its capacity."""
    cached = presentation.twist_colons.get(e)
    if cached is None:
        ideal = presentation.ideal
        cached = ideal.bracket_power(presentation.p**e).colon(
            ideal, budget or Budget())
        presentation.twist_colons[e] = cached
    return cached


def _in_box(f: Polynomial, q: int, budget: Budget) -> Polynomial:
    """f modulo m^[q]: the terms of f with every exponent below q, those
    whose monomial divides the corner (x_1...x_n)^(q-1).

    Checks the budget's deadline and records the degree of the result.
    """
    budget.check_deadline()
    n = f.ring.nvars
    corner = kernel.pack([q - 1] * n)
    guard = kernel.guard_mask(n)
    box = Polynomial.wrap(f.ring, [term for term in f.terms
                                   if kernel.divides(term[1], corner, guard)])
    budget.observe_degree(box.total_degree())
    return box


def _product(f: Polynomial, g: Polynomial, budget: Budget,
             top: int | None = None) -> Polynomial:
    """f * g, checking the budget's deadline once per term of the shorter
    factor; with top, modulo m^[top] (see _in_box)."""
    product = f.times(g, budget.check_deadline)
    return product if top is None else _in_box(product, top, budget)


def _fedder_power(presentation: LocalRingPresentation, budget: Budget,
                  top: int | None = None) -> Polynomial:
    """h^(p-1) for h the product of the generators of I, by the repeated
    squaring of Polynomial.power, every product taken by _product: about
    2 log2 p of them, each checking the deadline, and with top each modulo
    m^[top], which is exact since m^[top] is a monomial ideal."""
    times = partial(_product, budget=budget, top=top)
    h = reduce(times, presentation.generators, presentation.ring.one())
    return h.power(presentation.p - 1, times)


def twist_levels(presentation: LocalRingPresentation,
                 levels: tuple[tuple[int, int], ...],
                 budget: Budget | None = None):
    """Yield, for the levels (e, q) of field.frobenius_levels, polynomials
    J_e with (I^[q] : I) + m^[q] = (J_e) + m^[q], up to and including the
    first empty J_e.

    Every ideal other than a complete intersection yields the generators of
    its general colon, from twist_colon_ideal, each modulo m^[q], leaving
    out those that lie in m^[q]. A complete intersection
    yields h^(q-1) modulo m^[q], h the product of the generators of I, or no
    polynomial where that is zero. The level q = p^e comes from the one
    before by h^(pq'-1) = h^(p-1) * (h^(q'-1))^[p], q = pq', which unrolls
    to prod_{i<e} (h^[p^i])^(p-1) with the highest Frobenius power
    multiplied first. Every product, including those building h and
    h^(p-1) (by _fedder_power), drops the terms with an exponent of at
    least the last level's q, and each level keeps its terms below its own
    q; both are exact, since m^[q] is a monomial ideal. Every product
    checks the budget's deadline.

    The walk ends at the first empty J_e, building no later level. Then
    (I^[q] : I) lies in m^[q], so R does not split at level e (Fedder's
    criterion), and it splits at no later level either: a map phi of
    F^e'_* R to R with phi(F^e'_* c) = 1, e' > e, gives the map
    F^e_* r -> phi(F^e'_* (c r^(p^(e' - e)))), which sends F^e_* 1 to 1.
    """
    budget = budget or Budget()
    p = presentation.p
    fedder = is_complete_intersection(presentation, budget)
    if fedder:
        factor = _fedder_power(presentation, budget, levels[-1][1])
        power = presentation.ring.one()
    for e, q in levels:
        if fedder:
            power = _product(factor, power.frobenius_power(p), budget, q)
            boxes = (power,)
        else:
            colon = twist_colon_ideal(presentation, e, budget)
            boxes = (_in_box(g, q, budget) for g in colon.generators)
        level = tuple(filter(None, boxes))
        yield level
        if not level:
            return


class SplittingSample(namedtuple("SplittingSample", "e q colength s")):
    """One splitting-number measurement: ints e, q = p^e and colength, and
    the Fraction s = colength / q^d."""

    __slots__ = ()


def splitting_samples(presentation: LocalRingPresentation, e_max: int,
                      budget: Budget | None = None
                      ) -> tuple[SplittingSample, ...]:
    """s_e = (q^n - colength(m^[q] + (I^[q] : I))) / q^d at e = 1..e_max,
    exactly.

    The numerator comes from the presentation's counter where a theorem
    gives it: Han's count of Jordan blocks of size q for a diagonal
    hypersurface, or q^(n - r) where the r generators of I are regular at
    the origin, since F^e_* A is then free of that rank by Kunz's theorem
    (Huneke-Leuschke: s(A) = 1 exactly when A is regular).
    localring.closed_form recognizes both once, when the presentation is
    built; neither builds a colon or charges pairs. Otherwise the numerator
    is q^n - colength(m^[q] + (J_e)), with every J_e from one walk of
    twist_levels. Past the end of the walk, an empty level, R splits at no
    level, so the numerator is 0.
    """
    levels = frobenius_levels(presentation.p, e_max)
    budget = budget or Budget()
    ring = presentation.ring
    walk = twist_levels(presentation, levels, budget)
    samples: list[SplittingSample] = []
    for e, q in levels:
        if presentation.counter is not None:
            colength = presentation.counter(q, budget)[1]
        elif (level := next(walk, None)) is not None:
            colength = q**ring.nvars - bracket_colength(ring, level, q, budget)
        else:
            colength = 0
        d = presentation.dimension(budget)
        samples.append(SplittingSample(e, q, colength,
                                       Fraction(colength, q**d)))
    return tuple(samples)


def splitting_number(presentation: LocalRingPresentation, e: int,
                     budget: Budget | None = None) -> SplittingSample:
    """s_e, the last of splitting_samples(presentation, e, budget)."""
    return splitting_samples(presentation, e, budget)[-1]


class PurityVerdict(namedtuple("PurityVerdict", "is_F_pure witness detail")):
    """Fedder's verdict: a bool, the witness Polynomial or None, and the
    detail text."""

    __slots__ = ()


def fedder_test(presentation: LocalRingPresentation,
                budget: Budget | None = None) -> PurityVerdict:
    """F-purity via membership of (I^[p] : I) in m^[p].

    Pure exactly when some basis element of the colon ideal avoids m^[p],
    that is, keeps a term in the box of exponents below p; that element is
    returned as the witness. Otherwise the verdict carries an exhaustion
    certificate over the reduced basis.

    A hypersurface I = (f) takes no colon and no basis: S is a domain, so
    (f^[p] : f) = (f^(p-1)), and its reduced basis is the monic f^(p-1)
    alone, built by _fedder_power with every product checking the deadline.
    A complete intersection of two or more generators takes no colon
    either: by Fedder's lemma (see the module docstring) its basis is the
    reduced basis of I^[p] + (h^(p-1)). Every other ideal takes the reduced
    basis of twist_colon_ideal.
    """
    budget = budget or Budget()
    p = presentation.p
    if len(presentation.generators) == 1:
        power = _fedder_power(presentation, budget)
        basis = [power.scale(pow(power.terms[0][2], -1, p))]
    elif is_complete_intersection(presentation, budget):
        fedder = [*presentation.ideal.bracket_power(p).generators,
                  _fedder_power(presentation, budget)]
        basis = engine.Ideal(presentation.ring, fedder).groebner_basis(budget)
    else:
        colon = twist_colon_ideal(presentation, 1, budget)
        basis = colon.groebner_basis(budget)
    for g in basis:
        if _in_box(g, p, budget):
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

    None means no e <= e_cap works; the true value may be larger or may
    not exist at all. m^[q] is a monomial ideal, so c * g lies outside it
    exactly when c * g keeps a term in the box of exponents below q. Since
    (I^[q] : I) + m^[q] = (J_e) + m^[q] for the level J_e of twist_levels,
    and c * m^[q] lies in m^[q], the test runs over the g in J_e. The walk
    of twist_levels ends at the first empty J_e, past which R splits at no
    level, so no later level is built.
    """
    levels = frobenius_levels(presentation.p, e_cap, "e_cap")
    if c.ring != presentation.ring:
        raise PreconditionError("c must live in the ambient ring")
    budget = budget or Budget()
    walk = twist_levels(presentation, levels, budget)
    for (e, q), level in zip(levels, walk):
        if any(_product(c, g, budget, q) for g in level):
            return e
    return None


class FSplitReport(namedtuple(
        "FSplitReport",
        "presentation_id p dimension samples empirical_C interval verdict")):
    """Splitting-number sequence with the same tail analysis as for lambda.

    samples is a tuple of SplittingSample, empirical_C a Fraction, interval
    a RationalInterval and verdict a PurityVerdict; p and dimension are
    ints and presentation_id is text.
    """

    __slots__ = ()


def fsplit_report(presentation: LocalRingPresentation, e_max: int,
                  budget: Budget | None = None) -> FSplitReport:
    budget = budget or Budget()
    p = presentation.p
    samples = splitting_samples(presentation, e_max, budget)
    c, interval = tail_interval(p, [(s.e, s.s) for s in samples])
    return FSplitReport(
        presentation_id=describe_presentation(presentation),
        p=p,
        dimension=presentation.dimension(budget),
        samples=samples,
        empirical_C=c,
        interval=interval,
        verdict=fedder_test(presentation, budget))
