"""Independent brute-force checkers the engine tests compare against.

Nothing here touches the package's reduction machinery: counting is
combinatorial, arithmetic is naive convolution, and the tuple reduction
kernel below keeps its own copy of every loop, so agreement between an
oracle and the engine is evidence rather than a tautology.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb


def box_bounds(generators: list[tuple[int, ...]]) -> list[int]:
    """The smallest pure power of each axis: the box holding the staircase.

    Requires a pure power of every axis among the generators; anything else
    has infinite colength and is a caller bug.
    """
    if not generators:
        raise ValueError("empty generating set has infinite colength")
    nvars = len(generators[0])
    bounds = [None] * nvars
    for gen in generators:
        support = [i for i, e in enumerate(gen) if e > 0]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or gen[i] < bounds[i]:
                bounds[i] = gen[i]
    if any(b is None for b in bounds):
        raise ValueError(f"no pure power on every axis: {generators}")
    return bounds


def monomial_colength(generators: list[tuple[int, ...]]) -> int:
    """Colength of a monomial ideal by counting the staircase directly.

    Walks every monomial of the box; same precondition as box_bounds.
    """
    count = 0
    for vector in product(*(range(b) for b in box_bounds(generators))):
        if not any(all(v >= g for v, g in zip(vector, gen))
                   for gen in generators):
            count += 1
    return count


def peeling_colength(generators: list[tuple[int, ...]]) -> int:
    """Colength of a monomial ideal by peeling one generator at a time.

    For a generator m that is not a pure power, the count for (G, m) is the
    count for G minus the count for (G : m); a set of pure powers alone
    bounds a box. Results are memoized on the minimal generating set. It
    needs no box walk, so it reaches staircases the brute-force count
    cannot. Same precondition as monomial_colength.
    """
    memo: dict[frozenset, int] = {}

    def minimal(gens):
        return frozenset(e for e in gens
                         if not any(f != e and _divides(f, e) for f in gens))

    def count(gens: frozenset) -> int:
        if gens in memo:
            return memo[gens]
        if any(not any(e) for e in gens):
            return 0
        mixed = sorted(e for e in gens if sum(1 for k in e if k) > 1)
        if not mixed:
            result = 1
            for e in gens:
                result *= max(e)
        else:
            m = mixed[0]
            rest = gens - {m}
            colon = [tuple(max(a - b, 0) for a, b in zip(e, m)) for e in rest]
            result = count(minimal(rest)) - count(minimal(colon))
        memo[gens] = result
        return result

    return count(minimal(set(generators)))


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def bracket(generators: list[tuple[int, ...]], q: int) -> list[tuple[int, ...]]:
    return [tuple(q * e for e in gen) for gen in generators]


def node_lambda(p: int, e: int) -> Fraction:
    """Normalized colength of the coordinate cross, from the staircase.

    Monomials outside (x^q, y^q, xy) are the two coordinate axes truncated
    at q, sharing the origin: 2q - 1 of them, over q^1.
    """
    q = p**e
    return Fraction(2 * q - 1, q)


def node_splitting(p: int, e: int) -> Fraction:
    return Fraction(1, p**e)


def cusp_colength(q: int) -> int:
    """Colength of the q-th bracket of the maximal ideal in k[x,y]/(y^2-x^3).

    The quotient by the cusp equation is a free k[x]-module on {1, y}, and
    y^q reduces to x^(3q/2) for even q and to x^(3(q-1)/2) y for odd q,
    multiples of x^q either way once q >= 2. So the basis is
    {x^a : a < q} plus {x^a y : a < q}.
    """
    if q < 2:
        raise ValueError("closed form derived for q >= 2 only")
    return 2 * q


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by plain Gaussian elimination."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [(v - factor * w) % p
                           for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def syzygy_dimension(a: int, b: int, c: int, p: int) -> int:
    """dim k[x,y]/(x^a, y^b, (x+y)^c) over F_p, from graded ranks.

    Multiplication by (x+y)^c on k[x,y]/(x^a, y^b) maps degree t - c to
    degree t; the quotient has dimension ab minus the sum of those ranks.
    Monomials x^i y^j of degree t are indexed by i.
    """
    if min(a, b, c) <= 0:
        return 0
    binomials = [comb(c, k) % p for k in range(c + 1)]
    total = a * b
    for t in range(c, a + b - 1):
        rows = []
        for i in range(a):
            j = t - c - i
            if 0 <= j < b:
                row = [0] * a
                for k, coeff in enumerate(binomials):
                    if i + k < a and 0 <= t - i - k < b:
                        row[i + k] = coeff
                rows.append(row)
        total -= rank_mod_p(rows, p)
    return total


def naive_series_product(a: dict[int, int], b: dict[int, int], p: int,
                         cutoff: int) -> dict[int, int]:
    """Convolution of coefficient dicts modulo p, dropped at the cutoff."""
    out: dict[int, int] = {}
    for i, ai in a.items():
        for j, bj in b.items():
            if i + j < cutoff:
                out[i + j] = (out.get(i + j, 0) + ai * bj) % p
    return {k: v for k, v in out.items() if v}


def semigroup_elements(generators: tuple[int, ...], bound: int) -> set[int]:
    """All semigroup elements below the bound, by saturation."""
    elements = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for value in frontier:
            for gen in generators:
                new = value + gen
                if new < bound and new not in elements:
                    elements.add(new)
                    nxt.add(new)
        frontier = nxt
    return elements


def semigroup_conductor_brute(generators: tuple[int, ...]) -> int:
    """Smallest c with every integer >= c in the semigroup, brute force."""
    bound = max(generators) ** 2 + max(generators) + 1
    members = semigroup_elements(generators, bound + max(generators))
    conductor = bound
    while conductor > 0 and conductor - 1 in members:
        conductor -= 1
    return conductor


def grevlex_greater(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """a > b in grevlex: higher total degree wins; on equal degree, a > b
    when the last nonzero entry of a - b is negative."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    for x, y in reversed(list(zip(a, b))):
        if x != y:
            return x < y
    return False


def lex_greater(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """a > b in lex: the first nonzero entry of a - b is positive."""
    for x, y in zip(a, b):
        if x != y:
            return x > y
    return False


def elimination_greater(a: tuple[int, ...], b: tuple[int, ...], k: int) -> bool:
    """a > b in the elimination order for the first k variables: grevlex on
    the first block, ties broken by grevlex on the rest."""
    if a[:k] != b[:k]:
        return grevlex_greater(a[:k], b[:k])
    return grevlex_greater(a[k:], b[k:])


def pairwise_update(basis, pairs, h, seq):
    """The Gebauer-Moeller update by a pairwise dominance loop, O(B^2).

    This is the engine's former _update, kept to check the minimal-lcm
    filter that replaced it. basis and h are term lists whose first term
    is (key, exps, coeff); pairs are (f, g, lcm, seq) tuples and seq is the
    last sequence number handed out. Returns (basis, pairs, seq).
    """
    lm_h = h[0][1]

    def lcm_with(g):
        return tuple(max(x, y) for x, y in zip(lm_h, g[0][1]))

    def coprime(a, b):
        return all(x == 0 or y == 0 for x, y in zip(a, b))

    candidates = [(g, lcm_with(g)) for g in basis]
    kept = []
    for i, (g, lcm_hg) in enumerate(candidates):
        if coprime(lm_h, g[0][1]):
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
        if coprime(lm_h, g[0][1]):
            continue
        seq += 1
        new_pairs.append((h, g, lcm_hg, seq))
    surviving = []
    for f, g, lcm_fg, s in pairs:
        if (not _divides(lm_h, lcm_fg) or lcm_with(f) == lcm_fg
                or lcm_with(g) == lcm_fg):
            surviving.append((f, g, lcm_fg, s))
    surviving.extend(new_pairs)
    new_basis = [g for g in basis if not _divides(lm_h, g[0][1])]
    new_basis.append(h)
    return new_basis, surviving, seq


# -- the tuple reduction kernel ---------------------------------------------
#
# The reduction kernel before monomials were packed into ints. A term is
# (key, exps, coeff) with key the monomial order key tuple and exps the
# exponent tuple; vectors are shifted, compared and tested for divisibility
# entry by entry. The packed kernel must give the same results, step for
# step: the same normal forms, degrees, pairs and bases.


def tuple_terms(poly, order):
    """A Polynomial as a descending tuple term list under order."""
    key = order.key
    return [(key(e), e, c) for e, c in poly.ordered_terms(order)]


def merge(a, b, p):
    """Merge two descending term lists, adding coefficients mod p."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ta, tb = a[i], b[j]
        if ta[0] > tb[0]:
            out.append(ta)
            i += 1
        elif ta[0] < tb[0]:
            out.append(tb)
            j += 1
        else:
            c = (ta[2] + tb[2]) % p
            if c:
                out.append((ta[0], ta[1], c))
            i += 1
            j += 1
    return out + a[i:] + b[j:]


def shifted(terms, key_shift, exp_shift, scale, p):
    """Multiply a term list by scale * x^exp_shift, whose key is key_shift."""
    return [(tuple(x + y for x, y in zip(k, key_shift)),
             tuple(x + y for x, y in zip(e, exp_shift)), c * scale % p)
            for k, e, c in terms]


def make_monic(terms, p):
    if not terms:
        return terms
    inv = pow(terms[0][2], -1, p)
    return [(k, e, c * inv % p) for k, e, c in terms]


def reduce_full(f, reducers, p):
    """(normal form, max degree seen) of f by monic reducers, each step by
    the first reducer whose leading monomial divides the head."""
    work = f
    result = []
    max_deg = 0
    while work:
        key0, e0, c0 = work[0]
        max_deg = max(max_deg, sum(e0))
        reducer = next((r for r in reducers if _divides(r[0][1], e0)), None)
        if reducer is None:
            result.append(work[0])
            work = work[1:]
            continue
        lead_key, lead, _ = reducer[0]
        key_shift = tuple(x - y for x, y in zip(key0, lead_key))
        exp_shift = tuple(x - y for x, y in zip(e0, lead))
        work = merge(work[1:], shifted(reducer[1:], key_shift, exp_shift,
                                       p - c0, p), p)
    return result, max_deg


def s_poly(f, g, p, key):
    """S-polynomial of two monic term lists."""
    ef, eg = f[0][1], g[0][1]
    lcm = tuple(max(x, y) for x, y in zip(ef, eg))
    sf = tuple(x - y for x, y in zip(lcm, ef))
    sg = tuple(x - y for x, y in zip(lcm, eg))
    return merge(shifted(f[1:], key(sf), sf, 1, p),
                 shifted(g[1:], key(sg), sg, p - 1, p), p)


def divide_exact(f, g, p):
    """Quotient term list of f by g by long division, or None when the
    division leaves a remainder."""
    (key_g, lm_g, lc_g), *tail = g
    inv = pow(lc_g, -1, p)
    rest = f
    quotient = []
    while rest:
        key_r, lm_r, lc_r = rest[0]
        if not _divides(lm_g, lm_r):
            return None
        key_q = tuple(x - y for x, y in zip(key_r, key_g))
        lm_q = tuple(x - y for x, y in zip(lm_r, lm_g))
        lc_q = lc_r * inv % p
        quotient.append((key_q, lm_q, lc_q))
        rest = merge(rest[1:], shifted(tail, key_q, lm_q, p - lc_q, p), p)
    return quotient


def buchberger(generators, order, p, max_pairs=None, max_degree=None):
    """Reduced Groebner basis by the tuple kernel and pairwise_update.

    Runs the engine's algorithm: each generator is reduced by the basis so
    far, pairs are taken smallest (key(lcm), seq) first, and the minimal
    basis is tail-reduced in descending order of leading monomials.
    Returns (basis, pairs processed, max degree seen), where the degrees
    seen are those the engine charges to its budget: each generator's, each
    pair's lcm, and each reduction's.

    With max_pairs or max_degree, stops where a Budget with those ceilings
    makes the engine raise, and returns None for the basis: the pair after
    the last allowed one is counted but its lcm is not seen, and a degree
    above max_degree is seen.
    """
    def over(degree):
        return max_degree is not None and degree > max_degree

    key = order.key
    basis, pairs, seq = [], [], 0
    processed = 0
    todo = [(f.total_degree(), make_monic(tuple_terms(f, order), p))
            for f in generators if f]
    seen = 0
    while True:
        if todo:
            degree, terms = todo.pop(0)
            seen = max(seen, degree)
            if over(degree):
                return None, processed, seen
        elif pairs:
            if processed == max_pairs:
                return None, processed + 1, seen
            best = min(range(len(pairs)),
                       key=lambda i: (key(pairs[i][2]), pairs[i][3]))
            f, g, lcm, _ = pairs.pop(best)
            processed += 1
            seen = max(seen, sum(lcm))
            if over(sum(lcm)):
                return None, processed, seen
            terms = s_poly(f, g, p, key)
        else:
            break
        reduced, degree = reduce_full(terms, basis, p)
        seen = max(seen, degree)
        if over(degree):
            return None, processed, seen
        if reduced:
            basis, pairs, seq = pairwise_update(
                basis, pairs, make_monic(reduced, p), seq)
    minimal = sorted(basis, key=lambda g: g[0][0], reverse=True)
    reduced_basis = [
        make_monic(reduce_full(g, minimal[:i] + minimal[i + 1:], p)[0], p)
        for i, g in enumerate(minimal)]
    return reduced_basis, processed, seen


def elimination_intersection(first, second, ring, max_pairs=None,
                             max_degree=None):
    """Generators of the intersection of the ideals generated by first and
    second, by the route Ideal.intersection took before it stopped
    tail-reducing the members it drops: the whole reduced basis of
    t*I + (1 - t)*J under elimination of t, from buchberger above, filtered
    to the members free of t. ring must not name a variable t.

    Returns (generators, pairs processed, max degree seen), with None for
    the generators where a ceiling stopped buchberger.
    """
    from kunz.poly import ELIMINATION, MonomialOrder, PolyRing, Polynomial

    big = PolyRing(ring.field, ("t",) + ring.variables)
    t = big.variable("t")

    def lift(f):
        return Polynomial(big, {(0,) + e: c for e, c in f.terms.items()})

    gens = [t * lift(f) for f in first]
    gens += [(big.one() - t) * lift(g) for g in second]
    basis, processed, seen = buchberger(gens, MonomialOrder(ELIMINATION, 1),
                                        ring.p, max_pairs, max_degree)
    if basis is None:
        return None, processed, seen
    kept = [Polynomial(ring, {e[1:]: c for _, e, c in g}) for g in basis
            if all(e[0] == 0 for _, e, _ in g)]
    return kept, processed, seen
