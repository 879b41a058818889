"""Groebner engine over F_p: bases, normal forms, ideal arithmetic, lengths.

Everything here is exact and deterministic. Buchberger's algorithm with the
Gebauer-Moeller pair filters and the sugar strategy is enough for the ideal
sizes this package targets; pair processing, degree growth and wall time
are all charged against an explicit budget so every operation terminates
with either an answer or a budget error.

Ideal caches the minimal grevlex basis Buchberger gives, as monic kernel
term lists, for repeated queries (membership, colon, colength). Leading
monomials and normal forms need no tail reduction; a reduced basis does.
"""

from __future__ import annotations

from collections.abc import Iterable
from heapq import heapify, heappop, heappush
from itertools import combinations, count
from operator import le

from . import kernel
from .budget import DEADLINE_STRIDE, Budget
from .errors import PreconditionError
from .field import require_frobenius_power
from .poly import PolyRing, Polynomial, grevlex_key

Exps = tuple[int, ...]

# Budget lives in kunz.budget; engine.Budget and engine.BudgetTracker name
# the same class, since kunzbench/tracing.py counts pairs by patching
# engine.BudgetTracker.charge_pair. The alias goes once the benchmark
# patches Budget.charge_pair instead.
BudgetTracker = Budget


# -- Buchberger with Gebauer-Moeller filters -------------------------------


def _lcm_exps(a: Exps, b: Exps) -> Exps:
    return tuple(map(max, a, b))


def _divides(a: Exps, b: Exps) -> bool:
    return all(map(le, a, b))


def _coprime(a: Exps, b: Exps) -> bool:
    return not any(map(min, a, b))


def _update(basis, pairs, h, key, seq):
    """Gebauer-Moeller update: fold a new member h into basis and pairs.

    A basis member is a triple (terms, lead, sugar): a monic kernel term
    list, the exponent tuple of its leading monomial, unpacked once when
    the member is made, so the lcms here need no unpacking, and its sugar.
    A pair is the tuple (sugar, key, seq, lcm, f, g) for members f and g:
    lcm is the exponent tuple of the lcm of their leading monomials, key
    its packed order key, and seq its number, drawn from the iterator seq.
    A pair's sugar is the larger of its members' sugars, each raised by the
    degree of the cofactor that lifts the member's leading monomial to the
    lcm. pairs is a heap, and so is the list returned: the old pairs that
    survive, then the new ones, heapified. seq is unique, so comparisons
    stop at it and pairs come off the heap smallest (sugar, key, seq)
    first.

    A candidate (h, g) becomes a pair when g is the first basis member with
    its lcm, no other candidate's lcm properly divides it, and the leading
    monomials of h and g are not coprime. Minimality is decided against the
    minimal lcms alone: the distinct lcms are walked by total degree (a
    proper divisor has a smaller degree), and one is minimal when no
    minimal lcm found so far divides it. That is O(B * M) for B basis
    members and M minimal lcms. New pairs are numbered in basis order. An
    old pair (f, g) is pruned when lm(h) divides its lcm and neither
    lcm(f, h) nor lcm(g, h) equals it; basis members whose leading monomial
    lm(h) divides are discarded.
    """
    lm_h = h[1]
    sugar_h = h[2] - sum(lm_h)
    lcms = [_lcm_exps(lm_h, g[1]) for g in basis]
    first: dict[Exps, int] = {}
    for i, lcm in enumerate(lcms):
        first.setdefault(lcm, i)
    minimal: list[Exps] = []
    for lcm in sorted(first, key=sum):
        if not any(_divides(m, lcm) for m in minimal):
            minimal.append(lcm)
    kept = {first[lcm] for lcm in minimal}
    pairs = [pair for pair in pairs
             if not _divides(lm_h, pair[3])
             or _lcm_exps(pair[4][1], lm_h) == pair[3]
             or _lcm_exps(pair[5][1], lm_h) == pair[3]]
    for i, g in enumerate(basis):
        if i in kept and not _coprime(lm_h, g[1]):
            lcm = lcms[i]
            pairs.append((sum(lcm) + max(sugar_h, g[2] - sum(g[1])),
                          kernel.pack(key(lcm)), next(seq), lcm, h, g))
    heapify(pairs)
    new_basis = [g for g in basis if not _divides(lm_h, g[1])]
    new_basis.append(h)
    return new_basis, pairs


def groebner(generators: list[Polynomial],
             budget: Budget | None = None) -> list[Polynomial]:
    """Reduced monic grevlex Groebner basis, sorted descending by leading
    monomial.

    The reduced basis is unique, which makes it usable as a canonical form
    for ideal equality.
    """
    inputs = [f for f in generators if not f.is_zero()]
    if not inputs:
        return []
    return Ideal(inputs[0].ring, inputs).groebner_basis(budget)


def _minimal_basis(inputs: Iterable[list], key, n: int, p: int,
                   budget: Budget) -> list[list]:
    """Buchberger's algorithm: a minimal basis as monic kernel term lists.

    inputs are nonzero descending term lists in n variables over F_p, and
    key maps an exponent tuple to the order key their packed keys hold:
    poly.grevlex_key, or the elimination key of _meet.

    Each input, then each pair's s-polynomial, is fully reduced by the
    basis so far, and a nonzero remainder joins it (see _update). Pairs
    wait on a heap and are popped by the sugar strategy (Giovini, Mora,
    Niesi, Robbiano and Traverso, "One sugar cube, please", ISSAC 1991):
    smallest (sugar, key(lcm), seq) first. An input's sugar is its total
    degree and a reduced s-polynomial's is its pair's. For homogeneous
    inputs under a degree order sugar is the lcm's degree, and the choice
    is normal selection's; under elimination sugar follows the degrees a
    homogenized computation would reach, where normal selection runs far
    ahead of them.
    """
    guard = kernel.guard_mask(n)
    basis: list[tuple[list, Exps, int]] = []
    reducers: list[list] = []
    pairs: list[tuple] = []
    seq = count(1)

    def absorb(terms, sugar):
        nonlocal basis, reducers, pairs
        reduced, max_deg = kernel.reduce_full(terms, reducers, guard, p,
                                               budget.check_deadline)
        budget.observe_degree(max_deg)
        if reduced:
            h = kernel.make_monic(reduced, p)
            basis, pairs = _update(basis, pairs,
                                   (h, kernel.unpack(h[0][1], n), sugar),
                                   key, seq)
            reducers = [g for g, _, _ in basis]

    for f in inputs:
        degree = kernel.degree(f)
        budget.observe_degree(degree)
        absorb(kernel.make_monic(f, p), degree)

    while pairs:
        sugar, lcm_key, _, lcm, f, g = heappop(pairs)
        budget.charge_pair()
        budget.observe_degree(sum(lcm))
        absorb(kernel.s_poly(f[0], g[0], lcm_key, kernel.pack(lcm), p), sugar)
    return reducers


def _reduce_basis(basis: list[list], n: int, p: int,
                  budget: Budget) -> list[list]:
    """Tail-reduce each member of a minimal basis of monic term lists in n
    variables: the reduced basis, sorted descending by leading monomial.

    The basis is already minimal: every new member is fully reduced by the
    basis before _update adds it, and _update drops each member whose
    leading monomial the new one divides, so no leading monomial divides
    another, and tail reduction keeps each leading term. The list given is
    emptied.
    """
    guard = kernel.guard_mask(n)
    basis.sort(key=lambda g: g[0][0], reverse=True)
    reduced = []
    for i, g in enumerate(basis):
        nf, _ = kernel.reduce_full(g, basis[:i] + basis[i + 1:], guard, p,
                                   budget.check_deadline)
        reduced.append(kernel.make_monic(nf, p))
    basis.clear()
    return reduced


def _meet(first: list[list], second: list[list], n: int, p: int,
          budget: Budget) -> list[list]:
    """Reduced grevlex basis of (first) intersect (second), for term lists
    in n variables; empty when either is.

    Keeps the members of a minimal basis of t*first + (1-t)*second whose
    leading monomial is free of t, under the elimination of t (Cox, Little
    and O'Shea, 4.3). t sits in one more top slot (see kernel), so such a
    member has packed leading exponents below T = 1 << (64 n), and is then
    already a grevlex term list in n variables. Every reducer of its terms
    is free of t too, so tail-reducing them among themselves gives the
    t-free members of the reduced basis.
    """
    if not first or not second:
        return []
    top = 1 << (kernel.SLOT_BITS * n)
    t = [(top, top, 1)]
    one_minus_t = [(top, top, p - 1), (0, 0, 1)]
    gens = [kernel.multiply(t, f, p) for f in first]
    gens += [kernel.multiply(one_minus_t, g, p) for g in second]
    basis = _minimal_basis(gens, _eliminating_key, n + 1, p, budget)
    return _reduce_basis([g for g in basis if g[0][1] < top], n, p, budget)


def _eliminating_key(exps: Exps) -> tuple[int, ...]:
    """The order key of t^a x^e, for exps = (a, *e): a, then grevlex."""
    return (exps[0], *grevlex_key(exps[1:]))


def normal_form(f: Polynomial, basis: list[Polynomial],
                budget: Budget | None = None) -> Polynomial:
    """Remainder of f on full grevlex reduction by a Groebner basis."""
    reducers = [kernel.make_monic(g.terms, f.ring.p)
                for g in basis if not g.is_zero()]
    return _normal_form(f, reducers, budget or Budget())


def _normal_form(f: Polynomial, reducers: list[list],
                 budget: Budget) -> Polynomial:
    """Remainder of f on full grevlex reduction by monic term lists."""
    ring = f.ring
    nf, max_deg = kernel.reduce_full(f.terms, reducers,
                                     kernel.guard_mask(ring.nvars),
                                     ring.p, budget.check_deadline)
    budget.observe_degree(max_deg)
    return Polynomial.wrap(ring, nf)


def div_exact(f: Polynomial, g: Polynomial,
              budget: Budget | None = None) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises otherwise (see
    _divide)."""
    ring = f.ring
    if g.ring != ring:
        raise PreconditionError("polynomials from different rings")
    if g.is_zero():
        raise PreconditionError("division by the zero polynomial")
    return Polynomial.wrap(ring, _divide(f.terms, g.terms, ring.nvars, ring.p,
                                         budget or Budget()))


def _divide(f: list, g: list, n: int, p: int, budget: Budget) -> list:
    """Quotient f/g of term lists in n variables, for g nonzero, when g
    divides f exactly; raises PreconditionError otherwise.

    Long division on grevlex term lists, with the remainder kept as
    kernel.reduce_full keeps its work list (Monagan and Pearce, CASC 2007).
    Each step pops the head, records the quotient term lm(r)/lm(g) with
    coefficient lc(r)/lc(g) and adds the tail of g, shifted and scaled,
    touching no other term of the remainder. A head that lm(g) does not
    divide ends the division: g does not divide f. Polls the budget's
    deadline every 64 quotient terms.
    """
    guard = kernel.guard_mask(n)
    (key_g, lm_g, lc_g), *tail = g
    inv = pow(lc_g, -1, p)
    work = {k: [e, c] for k, e, c in f}
    # f is descending, so its negated keys ascend: already a heap
    heap = [-k for k, _, _ in f]
    get = work.get
    quotient = []
    while heap:
        key_r = -heappop(heap)
        lm_r, lc_r = work.pop(key_r)
        if not lc_r:
            continue
        if not kernel.divides(lm_g, lm_r, guard):
            raise PreconditionError("exact division failed: remainder is nonzero")
        key_q = key_r - key_g
        lm_q = lm_r - lm_g
        lc_q = lc_r * inv % p
        quotient.append((key_q, lm_q, lc_q))
        scale = p - lc_q
        for k, e, c in tail:
            k += key_q
            entry = get(k)
            if entry is None:
                work[k] = [e + lm_q, c * scale % p]
                heappush(heap, -k)
            else:
                entry[1] = (entry[1] + c * scale) % p
        if len(quotient) % 64 == 0:
            budget.check_deadline()
    return quotient


# -- Ideal ----------------------------------------------------------------


class Ideal:
    """An ideal of a polynomial ring, with its cached minimal grevlex basis
    of monic kernel term lists."""

    __slots__ = ("ring", "generators", "_basis")

    def __init__(self, ring: PolyRing, generators: list[Polynomial]) -> None:
        self.ring = ring
        for g in generators:
            if g.ring != ring:
                raise PreconditionError("generator from a different ring")
        self.generators = tuple(g for g in generators if not g.is_zero())
        self._basis: list[list] | None = None

    def _minimal(self, budget: Budget) -> list[list]:
        if self._basis is None:
            ring = self.ring
            self._basis = _minimal_basis([g.terms for g in self.generators],
                                         grevlex_key, ring.nvars, ring.p,
                                         budget)
        return self._basis

    def groebner_basis(self, budget: Budget | None = None) -> list[Polynomial]:
        """The reduced monic grevlex basis, sorted descending by leading
        monomial, tail-reduced from a copy of the cached minimal basis."""
        budget = budget or Budget()
        ring = self.ring
        return [Polynomial.wrap(ring, g)
                for g in _reduce_basis(list(self._minimal(budget)),
                                       ring.nvars, ring.p, budget)]

    def normal_form(self, f: Polynomial,
                    budget: Budget | None = None) -> Polynomial:
        budget = budget or Budget()
        return _normal_form(f, self._minimal(budget), budget)

    def contains(self, f: Polynomial, budget: Budget | None = None) -> bool:
        return self.normal_form(f, budget).is_zero()

    def contains_ideal(self, other: Ideal,
                       budget: Budget | None = None) -> bool:
        return all(self.contains(g, budget) for g in other.generators)

    def is_zero(self) -> bool:
        return not self.generators

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    # -- arithmetic ----------------------------------------------------

    def sum_with(self, other: Ideal) -> Ideal:
        self._check_ring(other)
        return Ideal(self.ring, list(self.generators) + list(other.generators))

    def bracket_power(self, q: int) -> Ideal:
        """Ideal generated by the q-th powers of the generators, q = p^e.

        Over a polynomial ring Frobenius is flat, so generator-wise powers
        do generate the bracket power.
        """
        require_frobenius_power(self.ring.p, q)
        return Ideal(self.ring, [g.frobenius_power(q) for g in self.generators])

    def intersection(self, other: Ideal,
                     budget: Budget | None = None) -> Ideal:
        """Intersection by the elimination of one auxiliary variable (see
        _meet), as its reduced grevlex basis."""
        self._check_ring(other)
        ring = self.ring
        meet = _meet([g.terms for g in self.generators],
                     [g.terms for g in other.generators], ring.nvars, ring.p,
                     budget or Budget())
        return Ideal(ring, [Polynomial.wrap(ring, g) for g in meet])

    def colon(self, other: Ideal, budget: Budget | None = None) -> Ideal:
        """Ideal quotient (self : other).

        For a single divisor g this is (self intersect (g)) scaled by 1/g
        (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, 4.4).
        For several, (A : (g_1..g_k)) is the intersection of the (A : g_i),
        and the route depends on whether every generator of self and of
        other is homogeneous. Both routes keep every ideal they pass
        through as grevlex term lists, and wrap the result's lists as
        Polynomials.

        Homogeneous: successive restriction. M_1 = (A : g_1), and
        M_i = (A intersect g_i*M_(i-1)) / g_i. Since S is a domain, c lies
        in M_(i-1) with c*g_i in A exactly when c*g_i lies in
        A intersect g_i*M_(i-1), so M_k = (A : (g_1..g_k)). On the twisted
        cubic's twist colons at p = 3 this takes 54 pairs at q = 27, 81
        and 243, where the route below takes 302, 734 and 2030. The
        divisors are taken in a fixed order, descending by grevlex term
        list, so the generators returned do not depend on the order given.
        They are the quotients by g_k of the last meet's reduced basis,
        not tail-reduced: lm(g*h) = lm(g)*lm(h), so they are a minimal
        Groebner basis of the colon.

        Otherwise: the single-divisor colons are computed first and then
        intersected smallest first, in ascending order of generator count
        (ties in the divisor's order), since an elimination's cost grows
        with the generators it starts from. Every intersection is returned
        as the reduced grevlex basis, which is unique, so the order cannot
        change the result. Successive restriction is not used here because
        on non-homogeneous input it can cost far more: over F_3, the colon
        (I^[9] : I) for I = (2x^2yz^2 + 2xz^2 + z, xy^2z + xy^2 + 2x) takes
        544 pairs and about 38 s by the meets of single-divisor colons on a
        2-vCPU host, and ran past 200 s by successive restriction in both
        divisor orders.
        """
        self._check_ring(other)
        ring = self.ring
        if other.is_zero():
            return Ideal(ring, [ring.one()])
        budget = budget or Budget()
        n, p = ring.nvars, ring.p
        base = [g.terms for g in self.generators]

        def divided(multiples, g):
            return [_divide(f, g, n, p, budget)
                    for f in _meet(base, multiples, n, p, budget)]

        if all(map(_is_homogeneous, self.generators + other.generators)):
            result = [[(0, 0, 1)]]  # M_0 = (1)
            for g in sorted((g.terms for g in other.generators),
                            reverse=True):
                result = divided([kernel.multiply(g, h, p) for h in result],
                                 g)
        else:
            parts = sorted((divided([g.terms], g.terms)
                            for g in other.generators), key=len)
            result = parts[0]
            for part in parts[1:]:
                result = _meet(result, part, n, p, budget)
        return Ideal(ring, [Polynomial.wrap(ring, g) for g in result])

    def _check_ring(self, other: Ideal) -> None:
        if self.ring != other.ring:
            raise PreconditionError("ideals from different rings")

    # -- numerical invariants -------------------------------------------

    def leading_term_ideal(self, budget: Budget | None = None) -> list[Exps]:
        """Leading exponents of the minimal basis: the minimal generators of
        the leading term ideal, in no particular order."""
        n = self.ring.nvars
        return [kernel.unpack(g[0][1], n)
                for g in self._minimal(budget or Budget())]

    def dimension(self, budget: Budget | None = None) -> int:
        """Krull dimension of ring/self.

        A variable subset U is independent when no leading monomial lives
        entirely in U; the dimension is the largest independent size. The
        subsets are walked largest first, so the first independent one
        gives the answer. The unit ideal is refused, so every lead has a
        variable and the empty set is independent: when no other subset
        is, the walk has taken all 2^n - 1 of them and the dimension is 0.
        The budget's deadline is checked every DEADLINE_STRIDE subsets.
        """
        budget = budget or Budget()
        leads = self.leading_term_ideal(budget)
        if any(sum(e) == 0 for e in leads):
            raise PreconditionError("the unit ideal has no dimension")
        n = self.ring.nvars
        supports = [{i for i, e in enumerate(exps) if e} for exps in leads]
        subsets = (subset for size in range(n, 0, -1)
                   for subset in combinations(range(n), size))
        for walked, subset in enumerate(subsets):
            if not walked % DEADLINE_STRIDE:
                budget.check_deadline()
            if not any(s.issubset(subset) for s in supports):
                return len(subset)
        return 0

    def colength(self, budget: Budget | None = None) -> int:
        """dim_k of ring/self; raises naming an unbounded variable if infinite.

        Counts the standard monomials of the leading term ideal, slice by
        slice along the last variable (see _slice_count).
        """
        budget = budget or Budget()
        leads = self.leading_term_ideal(budget)
        return monomial_colength(leads, self.ring, budget)


def monomial_colength(leads: list[Exps], ring: PolyRing,
                      budget: Budget | None = None) -> int:
    """Number of monomials outside the monomial ideal generated by leads."""
    budget = budget or Budget()
    n = ring.nvars
    if any(sum(e) == 0 for e in leads):
        return 0
    for i in range(n):
        if not any(all(k == 0 for j, k in enumerate(e) if j != i) and e[i] > 0
                   for e in leads):
            raise PreconditionError(
                f"colength is infinite: variable {ring.variables[i]!r} "
                "has no pure power in the leading term ideal")
    return _slice_count(leads, n, budget)


def _slice_count(gens: list[Exps], n: int, budget: Budget) -> int:
    """Number of monomials in n variables outside the ideal of gens.

    Precondition: gens holds a pure power of every variable, and no unit.
    So x_n^a is in the ideal, where a is the smallest such power of the
    last variable. For 0 <= k < a, the standard monomials with last
    exponent k are those whose first n - 1 exponents lie outside the slice
    ideal {e[:-1] : e[-1] <= k}. That slice ideal changes only at the last
    exponents that occur among gens, so with gens sorted by last exponent
    the count is sum (next_level - level) * count_{n-1}(slice), and the
    slice only grows as the level rises. The lowest level is 0, where the
    pure powers of the other variables sit. At n = 2 the slice count is the
    running minimum of e[0]; at n = 1 it is the pure power.

    A redundant generator never changes which monomials lie outside the
    ideal, so nothing is minimalized and nothing is memoized.
    """
    budget.check_deadline()
    if n == 1:
        return min(e[0] for e in gens)
    last = n - 1
    top = min(e[last] for e in gens if not any(e[:last]))
    ordered = sorted((e for e in gens if e[last] <= top),
                     key=lambda e: e[last])
    steps = zip(ordered, ordered[1:])
    total = 0
    if n == 2:
        width = ordered[0][0]
        for e, after in steps:
            width = min(width, e[0])
            total += (after[1] - e[1]) * width
        return total
    slice_: list[Exps] = []
    for e, after in steps:
        slice_.append(e[:last])
        if after[last] > e[last]:
            total += ((after[last] - e[last])
                      * _slice_count(slice_, last, budget))
    return total


def _is_homogeneous(f: Polynomial) -> bool:
    return f.total_degree() == f.order_of_vanishing()


def maximal_ideal(ring: PolyRing) -> Ideal:
    """The ideal generated by all the variables."""
    return Ideal(ring, ring.gens())
