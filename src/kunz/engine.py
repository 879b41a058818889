"""Groebner engine over F_p: bases, normal forms, ideal arithmetic, lengths.

Everything here is exact and deterministic. Buchberger's algorithm with the
Gebauer-Moeller pair filters and normal selection is enough for the ideal
sizes this package targets; pair processing, degree growth and wall time
are all charged against an explicit budget so every operation terminates
with either an answer or a budget error.

Ideal caches its reduced grevlex basis, so repeated queries (membership,
colon, colength) reuse work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import kernel
from .errors import BudgetExceededError, PreconditionError
from .poly import ELIMINATION, MonomialOrder, PolyRing, Polynomial

Exps = tuple[int, ...]

DEFAULT_MAX_PAIRS = 10**6
DEFAULT_MAX_DEGREE = 10**6
DEFAULT_DEADLINE_SECONDS = 600.0


@dataclass
class Budget:
    """One job's ceilings on pairs, degree and wall time, and the running
    totals charged against them.

    A budget is job-wide: every call given the same Budget adds to its one
    pair count and shares its one deadline, which runs from the moment the
    Budget is built. A call given no budget starts a fresh one with the
    default ceilings.
    """

    max_pairs: int = DEFAULT_MAX_PAIRS
    max_degree: int = DEFAULT_MAX_DEGREE
    deadline_seconds: float = DEFAULT_DEADLINE_SECONDS
    pairs: int = field(default=0, init=False)
    max_degree_seen: int = field(default=0, init=False)
    started_at: float = field(default_factory=time.monotonic, init=False)

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
    return tuple(x if x > y else y for x, y in zip(a, b))


def _divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _coprime(a: Exps, b: Exps) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class _Pair:
    __slots__ = ("key", "seq", "f", "g", "lcm")

    def __init__(self, key, seq, f, g, lcm):
        self.key = key
        self.seq = seq
        self.f = f
        self.g = g
        self.lcm = lcm


def _update(basis, pairs, h, key, seq_counter):
    """Gebauer-Moeller update: fold a new monic term list into basis and pairs.

    Follows the textbook three-filter formulation: among the candidate pairs
    with h keep only those whose lcm is minimal or whose leading monomials
    are coprime, drop coprime pairs afterwards, prune old pairs whose lcm is
    a proper multiple of the new leading monomial, and discard basis members
    whose leading monomial the new one divides.
    """
    lm_h = h[0][1]
    candidates = [(g, _lcm_exps(lm_h, g[0][1])) for g in basis]
    kept = []
    for i, (g, lcm_hg) in enumerate(candidates):
        if _coprime(lm_h, g[0][1]):
            kept.append((g, lcm_hg))
            continue
        dominated = False
        for j, (g2, lcm_hg2) in enumerate(candidates):
            if i == j or lcm_hg2 == lcm_hg:
                if j < i and lcm_hg2 == lcm_hg and i != j:
                    dominated = True
                    break
                continue
            if _divides(lcm_hg2, lcm_hg):
                dominated = True
                break
        if not dominated:
            kept.append((g, lcm_hg))
    new_pairs = []
    for g, lcm_hg in kept:
        if _coprime(lm_h, g[0][1]):
            continue
        seq_counter[0] += 1
        new_pairs.append(_Pair(key(lcm_hg), seq_counter[0], h, g, lcm_hg))
    surviving = []
    for pair in pairs:
        lcm_fg = pair.lcm
        if not _divides(lm_h, lcm_fg):
            surviving.append(pair)
            continue
        if _lcm_exps(pair.f[0][1], lm_h) == lcm_fg:
            surviving.append(pair)
            continue
        if _lcm_exps(pair.g[0][1], lm_h) == lcm_fg:
            surviving.append(pair)
            continue
    surviving.extend(new_pairs)
    new_basis = [g for g in basis if not _divides(lm_h, g[0][1])]
    new_basis.append(h)
    return new_basis, surviving


def groebner(generators: list[Polynomial], order: MonomialOrder | None = None,
             budget: Budget | None = None) -> list[Polynomial]:
    """Reduced monic Groebner basis, sorted descending by leading monomial.

    The reduced basis is unique for the order, which makes it usable as a
    canonical form for ideal equality.
    """
    if not generators:
        return []
    ring = generators[0].ring
    if order is None:
        order = ring.default_order()
    budget = budget or Budget()
    key = order.key

    inputs = [f for f in generators if not f.is_zero()]
    if not inputs:
        return []
    basis: list[list] = []
    pairs: list[_Pair] = []
    seq_counter = [0]
    for f in inputs:
        budget.observe_degree(f.total_degree())
        terms = kernel.make_monic(kernel.to_terms(f, order), ring.p)
        reduced, max_deg, _ = kernel.reduce_full(terms, basis, ring.p, key)
        budget.observe_degree(max_deg)
        if reduced:
            basis, pairs = _update(basis, pairs, kernel.make_monic(reduced, ring.p),
                                   key, seq_counter)

    while pairs:
        best = 0
        for i in range(1, len(pairs)):
            if (pairs[i].key, pairs[i].seq) < (pairs[best].key, pairs[best].seq):
                best = i
        pair = pairs.pop(best)
        budget.charge_pair()
        budget.observe_degree(sum(pair.lcm))
        spair = kernel.s_poly(pair.f, pair.g, ring.p, key)
        reduced, max_deg, _ = kernel.reduce_full(spair, basis, ring.p, key)
        budget.observe_degree(max_deg)
        if reduced:
            basis, pairs = _update(basis, pairs, kernel.make_monic(reduced, ring.p),
                                   key, seq_counter)

    return _reduce_basis(basis, ring, key)


def _reduce_basis(basis, ring, key) -> list[Polynomial]:
    """Tail-reduce each member of a minimal basis.

    The basis is already minimal: every new member is fully reduced by the
    basis before _update adds it, and _update drops each member whose
    leading monomial the new one divides, so no leading monomial divides
    another, and tail reduction keeps each leading term.
    """
    minimal = sorted(basis, key=lambda g: g[0][0], reverse=True)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        nf, _, _ = kernel.reduce_full(g, others, ring.p, key)
        reduced.append(kernel.make_monic(nf, ring.p))
    return [kernel.from_terms(g, ring) for g in reduced]


def normal_form(f: Polynomial, basis: list[Polynomial],
                budget: Budget | None = None) -> Polynomial:
    """Remainder of f on full grevlex reduction by a Groebner basis."""
    ring = f.ring
    order = ring.default_order()
    budget = budget or Budget()
    reducers = [kernel.make_monic(kernel.to_terms(g, order), ring.p)
                for g in basis if not g.is_zero()]
    terms = kernel.to_terms(f, order)
    nf, max_deg, _ = kernel.reduce_full(terms, reducers, ring.p, order.key)
    budget.observe_degree(max_deg)
    return kernel.from_terms(nf, ring)


def div_exact(f: Polynomial, g: Polynomial,
              budget: Budget | None = None) -> Polynomial:
    """Quotient f/g when g divides f exactly; raises otherwise.

    Polls the budget's deadline every 64 quotient terms.
    """
    ring = f.ring
    if g.is_zero():
        raise PreconditionError("division by the zero polynomial")
    budget = budget or Budget()
    order = ring.default_order()
    lm_g, lc_g = g.leading_term(order)
    inv = ring.field.inverse(lc_g)
    quotient = ring.zero()
    rest = f
    terms = 0
    while not rest.is_zero():
        lm_r, lc_r = rest.leading_term(order)
        if not _divides(lm_g, lm_r):
            raise PreconditionError("exact division failed: remainder is nonzero")
        shift = tuple(a - b for a, b in zip(lm_r, lm_g))
        mono = ring.monomial(shift, lc_r * inv)
        quotient = quotient + mono
        rest = rest - mono * g
        terms += 1
        if terms % 64 == 0:
            budget.check_deadline()
    return quotient


# -- Ideal ----------------------------------------------------------------


class Ideal:
    """An ideal of a polynomial ring, with its cached reduced grevlex basis."""

    __slots__ = ("ring", "generators", "_basis")

    def __init__(self, ring: PolyRing, generators: list[Polynomial]) -> None:
        self.ring = ring
        for g in generators:
            if g.ring != ring:
                raise PreconditionError("generator from a different ring")
        self.generators = tuple(g for g in generators if not g.is_zero())
        self._basis: list[Polynomial] | None = None

    def groebner_basis(self, budget: Budget | None = None) -> list[Polynomial]:
        if self._basis is None:
            self._basis = groebner(list(self.generators), None, budget)
        return self._basis

    def normal_form(self, f: Polynomial,
                    budget: Budget | None = None) -> Polynomial:
        return normal_form(f, self.groebner_basis(budget), budget)

    def contains(self, f: Polynomial, budget: Budget | None = None) -> bool:
        return self.normal_form(f, budget).is_zero()

    def contains_ideal(self, other: Ideal,
                       budget: Budget | None = None) -> bool:
        return all(self.contains(g, budget) for g in other.generators)

    def is_unit(self, budget: Budget | None = None) -> bool:
        basis = self.groebner_basis(budget)
        return len(basis) == 1 and basis[0] == self.ring.one()

    def is_zero(self) -> bool:
        return not self.generators

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner_basis() == other.groebner_basis()

    def __hash__(self) -> int:
        return hash((self.ring, tuple(self.groebner_basis())))

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

        Computes (t*I + (1-t)*J) in F_p[t, x...] and keeps the basis members
        free of t.
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
        order = MonomialOrder(ELIMINATION, 1)
        basis = groebner(gens, order, budget)
        kept = [_drop_first_variable(g, ring) for g in basis
                if all(e[0] == 0 for e in g.terms)]
        return Ideal(ring, kept)

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
        order = self.ring.default_order()
        return [g.leading_term(order)[0] for g in self.groebner_basis(budget)]

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

        Counts standard monomials of the leading term ideal by peeling one
        generator m that is not a pure power: the count for (G, m) is the
        count for G minus the count for (G : m). Pure-power states are the
        base case (a box), and results are memoized on the generator set.
        """
        budget = budget or Budget()
        leads = self.leading_term_ideal(budget)
        return monomial_colength(leads, self.ring, budget)


def monomial_colength(leads: list[Exps], ring: PolyRing,
                      budget: Budget | None = None) -> int:
    """Number of monomials outside the monomial ideal generated by leads."""
    budget = budget or Budget()
    n = ring.nvars
    gens = _minimalize_monomials(leads)
    if any(sum(e) == 0 for e in gens):
        return 0
    for i in range(n):
        if not any(all(k == 0 for j, k in enumerate(e) if j != i) and e[i] > 0
                   for e in gens):
            raise PreconditionError(
                f"colength is infinite: variable {ring.variables[i]!r} "
                "has no pure power in the leading term ideal")
    memo: dict[frozenset, int] = {}
    return _box_count(frozenset(gens), n, memo, budget)


def _minimalize_monomials(gens: list[Exps]) -> list[Exps]:
    out = []
    for i, e in enumerate(gens):
        redundant = False
        for j, f in enumerate(gens):
            if i == j:
                continue
            if _divides(f, e) and (f != e or j < i):
                redundant = True
                break
        if not redundant:
            out.append(e)
    return out


def _box_count(gens: frozenset, n: int, memo: dict, budget: Budget) -> int:
    cached = memo.get(gens)
    if cached is not None:
        return cached
    budget.check_deadline()
    pure: dict[int, int] = {}
    mixed: list[Exps] = []
    for e in gens:
        if sum(e) == 0:
            memo[gens] = 0
            return 0
        support = [i for i, k in enumerate(e) if k]
        if len(support) == 1:
            i = support[0]
            pure[i] = min(pure.get(i, e[i]), e[i])
        else:
            mixed.append(e)
    if not mixed:
        total = 1
        for i in range(n):
            total *= pure[i]
        memo[gens] = total
        return total
    mixed.sort()
    m = mixed[0]
    rest = [e for e in gens if e != m]
    without = frozenset(_minimalize_monomials(rest))
    colon = frozenset(_minimalize_monomials(
        [tuple(max(a - b, 0) for a, b in zip(e, m)) for e in rest]))
    result = (_box_count(without, n, memo, budget)
              - _box_count(colon, n, memo, budget))
    memo[gens] = result
    return result


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


def _drop_first_variable(f: Polynomial, small: PolyRing) -> Polynomial:
    return Polynomial(small, {e[1:]: c for e, c in f.terms.items()})


def maximal_ideal(ring: PolyRing) -> Ideal:
    """The ideal generated by all the variables."""
    return Ideal(ring, ring.gens())
