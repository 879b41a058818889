"""Reduction kernel.

The Groebner engine spends nearly all of its time in full reduction, so the
inner loop lives here in a flat representation: a polynomial is a list of
(key, exps, coeff) triples sorted descending by key, where key is the
monomial order key tuple, exps the exponent vector and coeff an int in
[1, p). Reducers are assumed monic. Functions that build new terms take the
order's key function, MonomialOrder.key.
"""

from __future__ import annotations

from .poly import MonomialOrder, Polynomial


def merge(a, b, p):
    """Merge two descending term lists, adding coefficients mod p."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
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
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def reduce_full(f, reducers, p, key):
    """Fully reduce f by a list of monic term lists.

    Returns (normal_form, max_degree_seen, steps). Every term of the result
    is divisible by no reducer leading monomial. The reducer chosen at each
    step is the first whose leading monomial divides, so the outcome is
    deterministic in the order reducers are given.
    """
    lead_exps = [r[0][1] for r in reducers]
    nred = len(reducers)
    work = list(f)
    result = []
    max_deg = 0
    steps = 0
    while work:
        key0, e0, c0 = work[0]
        deg = sum(e0)
        if deg > max_deg:
            max_deg = deg
        chosen = -1
        for j in range(nred):
            rl = lead_exps[j]
            divides = True
            for a, b in zip(rl, e0):
                if a > b:
                    divides = False
                    break
            if divides:
                chosen = j
                break
        if chosen < 0:
            result.append(work[0])
            work = work[1:]
            continue
        shift = tuple(a - b for a, b in zip(e0, lead_exps[chosen]))
        shifted = []
        for _, e, c in reducers[chosen][1:]:
            ne = tuple(a + b for a, b in zip(e, shift))
            nc = (p - c * c0 % p) % p
            if nc:
                shifted.append((key(ne), ne, nc))
        work = merge(work[1:], shifted, p)
        steps += 1
    return result, max_deg, steps


def s_poly(f, g, p, key):
    """S-polynomial of two monic term lists, leading terms cancelled exactly."""
    ef = f[0][1]
    eg = g[0][1]
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    sf = tuple(l - a for l, a in zip(lcm, ef))
    sg = tuple(l - b for l, b in zip(lcm, eg))
    a = []
    for _, e, c in f[1:]:
        ne = tuple(x + y for x, y in zip(e, sf))
        a.append((key(ne), ne, c))
    b = []
    for _, e, c in g[1:]:
        ne = tuple(x + y for x, y in zip(e, sg))
        b.append((key(ne), ne, (p - c) % p))
    return merge(a, b, p)


def make_monic(terms, p):
    """Scale a descending term list so its leading coefficient is 1."""
    if not terms:
        return terms
    lc = terms[0][2]
    if lc == 1:
        return terms
    inv = pow(lc, -1, p)
    return [(k, e, c * inv % p) for k, e, c in terms]


def to_terms(poly: Polynomial, order: MonomialOrder) -> list:
    """Flatten a polynomial into the kernel term representation."""
    key = order.key
    return [(key(e), e, c) for e, c in poly.ordered_terms(order)]


def from_terms(terms: list, ring) -> Polynomial:
    """Rebuild a polynomial from a kernel term list."""
    return Polynomial(ring, {e: c for _, e, c in terms})
