"""Frobenius colengths of diagonal hypersurfaces, by Han's syzygy gap.

Let f = sum c_i x_i^(d_i) with each variable in at most one term, and
q = p^e. As a module over k[T], with T acting as f, S/m^[q] is the tensor
product of the k[x_i]/(x_i^q), and x^d has Jordan blocks of sizes
ceil((q - r)/d) there, one for each r < min(d, q). So

    l(S/(m^[q] + (f^k))) = sum over the blocks lambda of min(lambda, k),

and no block is longer than q, since f^q = f^[q] lies in m^[q]. The Hilbert-
Kunz numerator (k = 1) is the number of blocks; the splitting numerator
q^n - l(S/(m^[q] + (f^(q-1)))) is the number of blocks of size exactly q.
A variable absent from f gives q blocks of size 1, so it multiplies both by
q. A linear change of coordinates keeps m^[q], so in odd p a quadric is
diagonal once its Gram matrix is, and behaves as rank-many squares.

Blocks of a tensor product come from D(a, b, c) = dim k[x,y]/(x^a, y^b,
(x+y)^c), the number of blocks of J_a (x) J_b (x) J_c:

* J_a (x) J_b has min(a, b) blocks, and D(a, b, j) - D(a, b, j - 1) of
  them have size at least j; for a, b <= q it has max(0, a + b - q) blocks
  of size q;
* D = (2ab + 2bc + 2ca - a^2 - b^2 - c^2 + delta^2)/4, where delta is the
  syzygy gap: c - a - b if c >= a + b for (a, b, c) sorted, and otherwise
  the largest positive p^s - dist_1((a, b, c), p^s L_odd) over s >= 0, or 0,
  with L_odd the integer triples of odd sum (C. Han, thesis, Brandeis 1991;
  Han and Monsky, "Some surprising Hilbert-Kunz functions", Math. Z. 214,
  1993).

Forms in more than 4 present variables, and everything else, are left to
the engine; tests/oracles.py checks D by graded ranks.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .engine import Budget
from .field import RowSpace
from .poly import Polynomial


def diagonal_degrees(generators: tuple[Polynomial, ...]
                     ) -> tuple[int, ...] | None:
    """The exponents d_i, sorted, of a single generator that is, up to a
    linear change of coordinates, sum c_i y_i^(d_i) in at most 4 of its
    variables; None for every other ideal, the zero polynomial included.
    """
    if len(generators) != 1 or generators[0].is_zero():
        return None
    (f,) = generators
    p = f.ring.p
    terms = list(f)
    supports = [[i for i, e in enumerate(exps) if e] for exps, _ in terms]
    if (all(len(s) == 1 for s in supports)
            and len({s[0] for s in supports}) == len(supports)):
        degrees = [exps[s[0]] for (exps, _), s in zip(terms, supports)]
    elif p != 2 and f.total_degree() == f.order_of_vanishing() == 2:
        n = f.ring.nvars
        gram = [[0] * n for _ in range(n)]
        half = pow(2, -1, p)
        for (exps, c), support in zip(terms, supports):
            i, j = support * 2 if len(support) == 1 else support
            gram[i][j] = gram[j][i] = c if i == j else c * half % p
        space = RowSpace(p)
        degrees = [2] * sum(space.add(row) for row in gram)
    else:
        return None
    return tuple(sorted(degrees)) if len(degrees) <= 4 else None


def syzygy_dimension(a: int, b: int, c: int, p: int) -> int:
    """D(a, b, c) = dim k[x,y]/(x^a, y^b, (x+y)^c) over F_p, by Han's
    theorem."""
    a, b, c = sorted((a, b, c))
    if a <= 0:
        return 0
    if c >= a + b:
        return a * b
    delta = 0
    t = 1
    while t <= a + b + c:
        # the nearest point of t * L_odd: round each coordinate to a
        # multiple of t, then move the cheapest one across if the sum is even
        dist = odd = 0
        flip = t
        for x in (a, b, c):
            u, r = divmod(x, t)
            if 2 * r > t:
                u, r = u + 1, t - r
            dist += r
            odd ^= u & 1
            flip = min(flip, t - 2 * r)
        delta = max(delta, t - dist - (0 if odd else flip))
        t *= p
    return (2 * (a * b + b * c + c * a) - a * a - b * b - c * c
            + delta * delta) // 4


def _jordan_blocks(d: int, q: int) -> dict[int, int]:
    """Block size -> multiplicity of x^d on k[x]/(x^q)."""
    a, b = divmod(q, d)
    return {size: m for size, m in ((a + 1, b), (a, d - b)) if size and m}


def _at_least(first: dict[int, int], second: dict[int, int], q: int, p: int,
              budget: Budget) -> list[int]:
    """G[j] = the number of blocks of size >= j of the tensor product of two
    factors, for 0 <= j <= q (G[0] is not used)."""
    counts = [0] * (q + 1)
    for (a, ma), (b, mb) in product(first.items(), second.items()):
        before = 0
        for j in range(1, min(a + b - 1, q) + 1):
            budget.check_deadline()
            now = syzygy_dimension(a, b, j, p)
            counts[j] += ma * mb * (now - before)
            before = now
    return counts


def jordan_counts(generators: tuple[Polynomial, ...], q: int,
                  budget: Budget | None = None) -> tuple[int, int] | None:
    """(l(S/(m^[q] + (f))), q^n - l(S/(m^[q] + (f^(q-1))))) for the one
    generator f of a diagonal hypersurface: the number of Jordan blocks of f
    on S/m^[q], and the number of those of size q. None when
    diagonal_degrees refuses the generators.
    """
    degrees = diagonal_degrees(generators)
    if degrees is None:
        return None
    budget = budget or Budget()
    budget.check_deadline()
    p = generators[0].ring.p
    absent = q ** (generators[0].ring.nvars - len(degrees))
    factors = [_jordan_blocks(d, q) for d in degrees]
    if len(factors) == 4:
        upper = _at_least(factors[0], factors[1], q, p, budget)
        lower = (upper if degrees[:2] == degrees[2:]
                 else _at_least(factors[2], factors[3], q, p, budget))
        # for blocks lambda, mu <= q: min(lambda, mu) counts the j >= 1 with
        # j <= lambda and j <= mu, and max(0, lambda + mu - q) the j with
        # j <= lambda and q + 1 - j <= mu
        blocks = full = 0
        for j in range(1, q + 1):
            budget.check_deadline()
            blocks += upper[j] * lower[j]
            full += upper[j] * lower[q + 1 - j]
        return blocks * absent, full * absent
    if len(factors) == 1:
        factors.append({1: 1})  # J_1 is the unit of the tensor product
    blocks = full = 0
    for combo in product(*(factor.items() for factor in factors)):
        m = prod(mult for _, mult in combo)
        if len(combo) == 2:
            (a, _), (b, _) = combo
            blocks += m * min(a, b)
            full += m * max(0, a + b - q)
        else:
            (a, _), (b, _), (c, _) = combo
            blocks += m * syzygy_dimension(a, b, c, p)
            full += m * (a * b - syzygy_dimension(a, b, q - c, p))
    return blocks * absent, full * absent
