"""Groebner engine over F_p: bases, normal forms, ideal arithmetic, lengths.

Everything here is exact and deterministic. Buchberger's algorithm with the
Gebauer-Moeller pair filters and normal selection is enough for the ideal
sizes this package targets; pair processing, degree growth and wall time
are all charged against an explicit budget so every operation terminates
with either an answer or a budget error.

Ideal caches the minimal grevlex basis Buchberger gives, as monic kernel
term lists, for repeated queries (membership, colon, colength). Leading
monomials and normal forms need no tail reduction; a reduced basis does.
"""

from __future__ import annotations

import time
from operator import le

from . import kernel
from .errors import BudgetExceededError, PreconditionError
from .poly import ELIMINATION, MonomialOrder, PolyRing, Polynomial

Exps = tuple[int, ...]

DEFAULT_MAX_PAIRS = 10**6
DEFAULT_MAX_DEGREE = 10**6
DEFAULT_DEADLINE_SECONDS = 600.0


class Budget:
    """One job's ceilings on pairs, degree and wall time, and the running
    totals charged against them.

    A budget is job-wide: every call given the same Budget adds to its one
    pair count and shares its one deadline, which runs from the moment the
    Budget is built. A call given no budget starts a fresh one with the
    default ceilings.
    """

    def __init__(self, max_pairs: int = DEFAULT_MAX_PAIRS,
                 max_degree: int = DEFAULT_MAX_DEGREE,
                 deadline_seconds: float = DEFAULT_DEADLINE_SECONDS) -> None:
        self.max_pairs = max_pairs
        self.max_degree = max_degree
        self.deadline_seconds = deadline_seconds
        self.pairs = 0
        self.max_degree_seen = 0
        self.started_at = time.monotonic()

    def charge_pair(self) -> None:
        self.pairs += 1
        if self.pairs > self.max_pairs:
            raise BudgetExceededError(
                f"pair budget of {self.max_pairs} exhausted",
                pairs=self.pairs, max_degree_seen=self.max_degree_seen)
        if self.pairs % 64 == 0:
            self.check_deadline()

    def observe_degree(self, degree: int) -> None:
        if degree > self.max_degree_seen:
            self.max_degree_seen = degree
        if degree > self.max_degree:
            raise BudgetExceededError(
                f"degree {degree} exceeds the budget of {self.max_degree}",
                pairs=self.pairs, max_degree_seen=self.max_degree_seen)

    def check_deadline(self) -> None:
        elapsed = time.monotonic() - self.started_at
        if elapsed > self.deadline_seconds:
            raise BudgetExceededError(
                f"deadline of {self.deadline_seconds}s exceeded",
                pairs=self.pairs, max_degree_seen=self.max_degree_seen)


# kunzbench/tracing.py counts pairs by patching BudgetTracker.charge_pair;
# the alias goes once the benchmark patches Budget.charge_pair instead.
BudgetTracker = Budget


# -- Buchberger with Gebauer-Moeller filters -------------------------------


def _lcm_exps(a: Exps, b: Exps) -> Exps:
    return tuple(map(max, a, b))


def _divides(a: Exps, b: Exps) -> bool:
    return all(map(le, a, b))


def _coprime(a: Exps, b: Exps) -> bool:
    return not any(map(min, a, b))


class _Pair:
    """A critical pair of basis members; key is the packed order key of
    lcm, the exponent tuple of the lcm of their leading monomials."""

    __slots__ = ("key", "seq", "f", "g", "lcm")

    def __init__(self, key, seq, f, g, lcm):
        self.key = key
        self.seq = seq
        self.f = f
        self.g = g
        self.lcm = lcm


def _update(basis, pairs, h, key, seq_counter):
    """Gebauer-Moeller update: fold a new member h into basis and pairs.

    A basis member is a pair (terms, lead): a monic kernel term list and
    the exponent tuple of its leading monomial, unpacked once when the
    member is made, so the lcms here need no unpacking.

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
    lcms = [_lcm_exps(lm_h, g[1]) for g in basis]
    first: dict[Exps, int] = {}
    for i, lcm in enumerate(lcms):
        first.setdefault(lcm, i)
    minimal: list[Exps] = []
    for lcm in sorted(first, key=sum):
        if not any(_divides(m, lcm) for m in minimal):
            minimal.append(lcm)
    kept = {first[lcm] for lcm in minimal}
    surviving = [pair for pair in pairs
                 if not _divides(lm_h, pair.lcm)
                 or _lcm_exps(pair.f[1], lm_h) == pair.lcm
                 or _lcm_exps(pair.g[1], lm_h) == pair.lcm]
    for i, g in enumerate(basis):
        if i in kept and not _coprime(lm_h, g[1]):
            seq_counter[0] += 1
            surviving.append(_Pair(kernel.pack(key(lcms[i])), seq_counter[0],
                                   h, g, lcms[i]))
    new_basis = [g for g in basis if not _divides(lm_h, g[1])]
    new_basis.append(h)
    return new_basis, surviving


def groebner(generators: list[Polynomial], order: MonomialOrder | None = None,
             budget: Budget | None = None) -> list[Polynomial]:
    """Reduced monic Groebner basis, sorted descending by leading monomial.

    The reduced basis is unique for the order, which makes it usable as a
    canonical form for ideal equality.
    """
    inputs = [f for f in generators if not f.is_zero()]
    if not inputs:
        return []
    ring = inputs[0].ring
    budget = budget or Budget()
    basis = _minimal_basis(inputs, order or ring.default_order(), budget)
    return _reduce_basis(basis, ring, budget)


def _minimal_basis(inputs: list[Polynomial], order: MonomialOrder,
                   budget: Budget) -> list[list]:
    """Buchberger's algorithm: a minimal basis as monic kernel term lists."""
    ring = inputs[0].ring
    key = order.key
    p, n = ring.p, ring.nvars
    guard = kernel.guard_mask(n)
    basis: list[tuple[list, Exps]] = []
    reducers: list[list] = []
    pairs: list[_Pair] = []
    seq_counter = [0]

    def absorb(reduced):
        nonlocal basis, reducers, pairs
        h = kernel.make_monic(reduced, p)
        basis, pairs = _update(basis, pairs, (h, kernel.unpack(h[0][1], n)),
                               key, seq_counter)
        reducers = [g for g, _ in basis]

    for f in inputs:
        budget.observe_degree(f.total_degree())
        terms = kernel.make_monic(kernel.to_terms(f, order), p)
        reduced, max_deg = kernel.reduce_full(terms, reducers, guard, p,
                                               budget.check_deadline)
        budget.observe_degree(max_deg)
        if reduced:
            absorb(reduced)

    while pairs:
        best = 0
        for i in range(1, len(pairs)):
            if (pairs[i].key, pairs[i].seq) < (pairs[best].key, pairs[best].seq):
                best = i
        pair = pairs.pop(best)
        budget.charge_pair()
        budget.observe_degree(sum(pair.lcm))
        spair = kernel.s_poly(pair.f[0], pair.g[0], pair.key,
                              kernel.pack(pair.lcm), p)
        reduced, max_deg = kernel.reduce_full(spair, reducers, guard, p,
                                               budget.check_deadline)
        budget.observe_degree(max_deg)
        if reduced:
            absorb(reduced)
    return reducers


def _reduce_basis(basis, ring, budget: Budget) -> list[Polynomial]:
    """Tail-reduce each member of a minimal basis of monic term lists.

    The basis is already minimal: every new member is fully reduced by the
    basis before _update adds it, and _update drops each member whose
    leading monomial the new one divides, so no leading monomial divides
    another, and tail reduction keeps each leading term.

    The list given is emptied, and each reduced member is dropped once it
    is rebuilt as a Polynomial, so the packed terms are freed as the
    polynomials are built instead of being held beside all of them.
    """
    guard = kernel.guard_mask(ring.nvars)
    basis.sort(key=lambda g: g[0][0], reverse=True)
    reduced = []
    for i, g in enumerate(basis):
        nf, _ = kernel.reduce_full(g, basis[:i] + basis[i + 1:], guard,
                                   ring.p, budget.check_deadline)
        reduced.append(kernel.make_monic(nf, ring.p))
    basis.clear()
    polys = []
    while reduced:
        polys.append(kernel.from_terms(reduced.pop(), ring))
    return polys[::-1]


def normal_form(f: Polynomial, basis: list[Polynomial],
                budget: Budget | None = None) -> Polynomial:
    """Remainder of f on full grevlex reduction by a Groebner basis."""
    ring = f.ring
    order = ring.default_order()
    reducers = [kernel.make_monic(kernel.to_terms(g, order), ring.p)
                for g in basis if not g.is_zero()]
    return _normal_form(f, reducers, budget or Budget())


def _normal_form(f: Polynomial, reducers: list[list],
                 budget: Budget) -> Polynomial:
    """Remainder of f on full grevlex reduction by monic term lists."""
    ring = f.ring
    nf, max_deg = kernel.reduce_full(kernel.to_terms(f, ring.default_order()),
                                     reducers, kernel.guard_mask(ring.nvars),
                                     ring.p, budget.check_deadline)
    budget.observe_degree(max_deg)
    return kernel.from_terms(nf, ring)


def div_exact(f: Polynomial, g: Polynomial,
              budget: Budget | None = None) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises otherwise.

    Long division on kernel term lists under grevlex: each step records
    the quotient term lm(r)/lm(g) with coefficient lc(r)/lc(g) and merges
    the tail of g, shifted and scaled, into the rest of r. One Polynomial
    is built at the end. Polls the budget's deadline every 64 quotient
    terms.
    """
    ring = f.ring
    if g.ring != ring:
        raise PreconditionError("polynomials from different rings")
    if g.is_zero():
        raise PreconditionError("division by the zero polynomial")
    budget = budget or Budget()
    order = ring.default_order()
    p = ring.p
    guard = kernel.guard_mask(ring.nvars)
    (key_g, lm_g, lc_g), *tail = kernel.to_terms(g, order)
    inv = pow(lc_g, -1, p)
    rest = kernel.to_terms(f, order)
    quotient = []
    while rest:
        key_r, lm_r, lc_r = rest[0]
        if not kernel.divides(lm_g, lm_r, guard):
            raise PreconditionError("exact division failed: remainder is nonzero")
        key_q = key_r - key_g
        lm_q = lm_r - lm_g
        lc_q = lc_r * inv % p
        quotient.append((key_q, lm_q, lc_q))
        scaled = kernel.shifted(tail, key_q, lm_q, p - lc_q, p)
        rest = kernel.merge(rest[1:], scaled, p)
        if len(quotient) % 64 == 0:
            budget.check_deadline()
    return kernel.from_terms(quotient, ring)


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
            self._basis = (_minimal_basis(list(self.generators),
                                          self.ring.default_order(), budget)
                           if self.generators else [])
        return self._basis

    def groebner_basis(self, budget: Budget | None = None) -> list[Polynomial]:
        """The reduced monic grevlex basis, sorted descending by leading
        monomial, tail-reduced from a copy of the cached minimal basis."""
        budget = budget or Budget()
        return _reduce_basis(list(self._minimal(budget)), self.ring, budget)

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
        p = self.ring.p
        m = q
        while m > 1:
            if m % p:
                raise PreconditionError(
                    f"{q} is not a power of the characteristic {p}")
            m //= p
        if q < 1:
            raise PreconditionError(f"{q} is not a power of the characteristic {p}")
        return Ideal(self.ring, [g.frobenius_power(q) for g in self.generators])

    def intersection(self, other: Ideal,
                     budget: Budget | None = None) -> Ideal:
        """Intersection via a single auxiliary variable and elimination.

        Keeps the members of a minimal basis of (t*I + (1-t)*J) in
        F_p[t, x...] whose leading monomial is free of t. Under elimination
        such a member, and every reducer of its terms, is free of t; so
        tail-reducing them among themselves gives the t-free members of the
        reduced basis, and their packed exponents unpack without t.
        """
        self._check_ring(other)
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, [])
        ring = self.ring
        aux = _fresh_variable_name(ring.variables)
        big = PolyRing(ring.field, (aux,) + ring.variables)
        t = big.variable(aux)
        one_minus_t = big.one() - t
        gens = [t * _lift(f, big) for f in self.generators]
        gens += [one_minus_t * _lift(g, big) for g in other.generators]
        budget = budget or Budget()
        basis = _minimal_basis(gens, MonomialOrder(ELIMINATION, 1), budget)
        kept = [g for g in basis if kernel.unpack(g[0][1], big.nvars)[0] == 0]
        return Ideal(ring, _reduce_basis(kept, ring, budget))

    def colon(self, other: Ideal, budget: Budget | None = None) -> Ideal:
        """Ideal quotient (self : other).

        For a single divisor g this is (self intersect (g)) scaled by 1/g;
        for several, the intersection of the single-divisor quotients.
        """
        self._check_ring(other)
        if other.is_zero():
            return Ideal(self.ring, [self.ring.one()])
        budget = budget or Budget()
        result: Ideal | None = None
        for g in other.generators:
            part = self._colon_single(g, budget)
            result = part if result is None else result.intersection(
                part, budget)
        assert result is not None
        return result

    def _colon_single(self, g: Polynomial, budget: Budget) -> Ideal:
        meet = self.intersection(Ideal(self.ring, [g]), budget)
        gens = [div_exact(f, g, budget) for f in meet.generators]
        return Ideal(self.ring, gens)

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
        variable counts here are small, so subsets are enumerated directly.
        """
        leads = self.leading_term_ideal(budget)
        if any(sum(e) == 0 for e in leads):
            raise PreconditionError("the unit ideal has no dimension")
        n = self.ring.nvars
        supports = [frozenset(i for i, e in enumerate(exps) if e)
                    for exps in leads]
        best = 0
        for mask in range(2**n):
            size = mask.bit_count()
            if size <= best:
                continue
            subset = {i for i in range(n) if mask >> i & 1}
            if all(not s <= subset for s in supports):
                best = size
        return best

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


def _fresh_variable_name(names: tuple[str, ...]) -> str:
    base = "t"
    if base not in names:
        return base
    i = 0
    while f"{base}{i}" in names:
        i += 1
    return f"{base}{i}"


def _lift(f: Polynomial, big: PolyRing) -> Polynomial:
    return Polynomial(big, {(0,) + e: c for e, c in f.terms.items()})


def maximal_ideal(ring: PolyRing) -> Ideal:
    """The ideal generated by all the variables."""
    return Ideal(ring, ring.gens())
