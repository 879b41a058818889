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

* J_a (x) J_b has D(a, b, j) - D(a, b, j - 1) blocks of size at least j,
  and for a, b <= q none longer than q;
* for a, b, c <= q, a*b - D(a, b, q - c) blocks of J_a (x) J_b (x) J_c
  have size q: a block J_l of J_a (x) J_b gives max(0, l + c - q) of them,
  and the l sum to a*b while the min(l, q - c) sum to D(a, b, q - c);
* D = (2ab + 2bc + 2ca - a^2 - b^2 - c^2 + delta^2)/4, where delta is the
  syzygy gap: c - a - b if c >= a + b for (a, b, c) sorted, and otherwise
  the largest positive p^s - dist_1((a, b, c), p^s L_odd) over s >= 0, or 0,
  with L_odd the integer triples of odd sum (C. Han, thesis, Brandeis 1991;
  Han and Monsky, "Some surprising Hilbert-Kunz functions", Math. Z. 214,
  1993).

So any number of factors takes one route: pad them with the unit J_1 to
three, fold all but the last two into one block-size distribution by the
first rule, and count against the last two by D and the second rule.
Every other ideal is left to the engine; tests/oracles.py checks D by
graded ranks.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from functools import cache, partial
from itertools import product

from .budget import Budget
from .field import RowSpace
from .poly import PolyRing, Polynomial


def diagonal_degrees(generators: tuple[Polynomial, ...]
                     ) -> tuple[int, ...] | None:
    """The exponents d_i, sorted, of a single generator that is, up to a
    linear change of coordinates, sum c_i y_i^(d_i) in some of its
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
    return tuple(sorted(degrees))


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


def _tensor(first: dict[int, int], second: dict[int, int], q: int,
            dimension: Callable[[int, int, int], int],
            budget: Budget) -> Counter[int]:
    """Block size -> multiplicity of the tensor product of two factors with
    no block longer than q, from dimension(a, b, c) = D(a, b, c)."""
    blocks: Counter[int] = Counter()
    for (a, ma), (b, mb) in product(first.items(), second.items()):
        # D(a, b, j) - D(a, b, j - 1) blocks have size >= j, and none is
        # longer than the last j, so a second difference counts those of
        # size exactly j
        dims = [0]
        for j in range(1, min(a + b - 1, q) + 1):
            budget.check_deadline()
            dims.append(dimension(a, b, j))
        dims.append(dims[-1])
        for size in range(1, len(dims) - 1):
            if count := 2 * dims[size] - dims[size - 1] - dims[size + 1]:
                blocks[size] += ma * mb * count
    return blocks


def jordan_counts(ring: PolyRing, degrees: tuple[int, ...], q: int,
                  budget: Budget) -> tuple[int, int]:
    """(l(S/(m^[q] + (f))), q^n - l(S/(m^[q] + (f^(q-1))))) for a diagonal
    hypersurface f of ring with the degrees diagonal_degrees read: the
    number of Jordan blocks of f on S/m^[q], and the number of those of
    size q, by the fold of the module docstring.
    """
    budget.check_deadline()
    # D is symmetric, and the fold and the count meet the same triples
    remembered = cache(partial(syzygy_dimension, p=ring.p))

    def dimension(a: int, b: int, c: int) -> int:
        return remembered(*sorted((a, b, c)))

    absent = q ** (ring.nvars - len(degrees))
    factors = [_jordan_blocks(d, q) for d in degrees]
    factors += [{1: 1}] * (3 - len(factors))  # J_1 is the unit
    *head, second, third = factors
    first = head[0]
    for factor in head[1:]:
        first = _tensor(first, factor, q, dimension, budget)
    blocks = full = 0
    for a, ma in first.items():
        budget.check_deadline()
        for (b, mb), (c, mc) in product(second.items(), third.items()):
            blocks += ma * mb * mc * dimension(a, b, c)
            full += ma * mb * mc * (a * b - dimension(a, b, q - c))
    return blocks * absent, full * absent
