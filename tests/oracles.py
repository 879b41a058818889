"""Independent brute-force checkers the engine tests compare against.

Nothing here touches the package's reduction machinery: counting is
combinatorial and arithmetic is naive convolution, so agreement between an
oracle and the engine is evidence rather than a tautology.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


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
