"""Reduction kernel.

The Groebner engine spends nearly all of its time in full reduction, so the
inner loop lives here in a flat representation: a polynomial is a list of
(key, exps, coeff) triples sorted descending by key, where key is the
monomial order key tuple, exps the exponent vector and coeff an int in
[1, p). Reducers are assumed monic.

Every MonomialOrder.key is additive, key(a + b) = key(a) + key(b)
componentwise, so the kernel shifts a term by a monomial by adding the
monomial's key to the term's key and never calls the key function on a
shifted term. Beyond to_terms, only s_poly takes the key function, and
calls it once per side.
"""

from __future__ import annotations

from operator import add, le, sub

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


def shifted(terms, key_shift, exp_shift, scale, p):
    """Multiply a term list by the monomial scale * x^exp_shift, whose order
    key is key_shift."""
    return [(tuple(map(add, k, key_shift)), tuple(map(add, e, exp_shift)),
             c * scale % p) for k, e, c in terms]


def reduce_full(f, reducers, p, check_deadline):
    """Fully reduce f by a list of monic term lists.

    Returns (normal_form, max_degree_seen). Every term of the result is
    divisible by no reducer leading monomial. The reducer chosen at each
    step is the first whose leading monomial divides, so the outcome is
    deterministic in the order reducers are given. The work list is walked
    by index: an irreducible head moves to the result, and a one-term
    (monomial) reducer just drops the head, so neither copies the list.
    check_deadline() is called every 64 head reductions; it raises to end
    a reduction that has run out of time.
    """
    lead_exps = [r[0][1] for r in reducers]
    work = f
    i = 0
    result = []
    max_deg = 0
    steps = 0
    while i < len(work):
        key0, e0, c0 = work[i]
        deg = sum(e0)
        if deg > max_deg:
            max_deg = deg
        for j, lead in enumerate(lead_exps):
            if all(map(le, lead, e0)):
                break
        else:
            result.append(work[i])
            i += 1
            continue
        reducer = reducers[j]
        i += 1
        steps += 1
        if not steps % 64:
            check_deadline()
        if len(reducer) > 1:
            key_shift = tuple(map(sub, key0, reducer[0][0]))
            exp_shift = tuple(map(sub, e0, lead))
            work = merge(work[i:], shifted(reducer[1:], key_shift, exp_shift,
                                           p - c0, p), p)
            i = 0
    return result, max_deg


def s_poly(f, g, p, key):
    """S-polynomial of two monic term lists, leading terms cancelled exactly."""
    ef = f[0][1]
    eg = g[0][1]
    lcm = tuple(map(max, ef, eg))
    sf = tuple(map(sub, lcm, ef))
    sg = tuple(map(sub, lcm, eg))
    return merge(shifted(f[1:], key(sf), sf, 1, p),
                 shifted(g[1:], key(sg), sg, p - 1, p), p)


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
