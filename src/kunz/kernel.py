"""Reduction kernel on packed monomials.

The Groebner engine spends nearly all of its time in full reduction, so the
inner loop lives here in a flat representation: a polynomial is a list of
(key, exps, coeff) triples sorted descending by key, where exps is the
exponent vector and key the monomial order key tuple, each packed into one
int, and coeff is an int in [1, p). Reducers are assumed monic.

Packed layout. A vector (v_1, ..., v_n) is packed into n 64-bit slots,
v_1 in the most significant: sum v_i * 2^(64 (n - i)). While every slot
stays below 2^63 (see Capacity), slots never carry or borrow, so:

* packed ints compare as the tuples do when the tuples have one length,
  as the keys of one order do, so one int comparison decides the
  monomial order on packed keys;
* packed ints add and subtract componentwise, where the componentwise
  result has no negative entry;
* a packed exponent vector a divides b exactly when
  ((b | G) - a) & G == G, where G = guard_mask(n) holds bit 63 of every
  slot: each slot of b | G is b_i + 2^63 > a_i, so the subtraction borrows
  from no neighbour, and slot i keeps its guard bit exactly when
  b_i >= a_i;
* the total degree of a packed exponent vector m is m % (2^64 - 1), since
  2^64 = 1 modulo 2^64 - 1 and the degree is below 2^64 - 1.

Two key layouts are used, both built on poly.grevlex_key: the grevlex key
of S = F_p[x_1..x_n], the layout of every Polynomial's term list, and the
key (a, *grevlex_key(e)) of t^a x^e by which the engine's intersection
eliminates t. t takes one more top slot of key and exponents, so
multiplying by t adds T = 1 << (64 n) to both, and a term free of t has
its ints in S. Both keys are additive, key(a + b) = key(a) + key(b)
componentwise, with entries nonnegative linear forms in the exponents. So
the kernel shifts a term by a monomial by adding the packed key and packed
exponents of the monomial to the term's, and the shift between a term and
a leading monomial dividing it is the difference of their packed ints,
which borrows nowhere because every entry of key(b) - key(a) = key(b - a)
is nonnegative. This module never calls a key function: keys arrive
packed, built by the Polynomial constructor or the engine.

Capacity. Every key entry of a term is a partial sum of its exponents, so
no slot of a term exceeds the term's total degree. Products keep total
degrees at most MAX_EXPONENT = 2^40 (multiply; Polynomial.frobenius_power
and the parser check against it too), but a reduction can raise degrees
(eliminating t, t^a reduced by t - y^b gives y^(ab)). So the kernel
enforces its own ceiling DEGREE_CAP = 2^60: the Polynomial constructor
refuses a term above it, and reduce_full refuses a head term above it,
which also bounds its result and so every basis member. A term built in
reduce_full is a head shifted down to a reducer term, both at most 2^60;
an s-polynomial term is an lcm of degree at most 2^61 times a tail term.
Every degree stays below 2^62, and every slot below the guard bit.
"""

from __future__ import annotations

import struct
from functools import cache
from heapq import heappop, heappush
from itertools import islice

from .errors import CapacityError

SLOT_BITS = 64
MAX_EXPONENT = 2**40
DEGREE_CAP = 2**60
DEGREE_MOD = 2**SLOT_BITS - 1


def pack(vector) -> int:
    """Pack a vector of nonnegative ints into 64-bit slots, first entry
    most significant."""
    m = 0
    for v in vector:
        m = m << SLOT_BITS | v
    return m


@cache
def _codec(n: int) -> struct.Struct:
    return struct.Struct(f">{n}Q")


def unpack(m: int, n: int) -> tuple[int, ...]:
    """The n-entry vector that pack turned into m."""
    return _codec(n).unpack(m.to_bytes(8 * n, "big"))


@cache
def guard_mask(n: int) -> int:
    """Bit 63 of each of n slots: the mask of the divisibility test."""
    return pack([1 << (SLOT_BITS - 1)] * n)


def divides(a: int, b: int, guard: int) -> bool:
    """Whether the packed exponent vector a divides b componentwise."""
    return (b | guard) - a & guard == guard


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
    """Multiply a term list by the monomial scale * x^exp_shift, whose
    packed order key is key_shift."""
    return [(k + key_shift, e + exp_shift, c * scale % p)
            for k, e, c in terms]


def reduce_full(f, reducers, guard, p, check_deadline):
    """Fully reduce f by a list of monic term lists.

    Returns (normal_form, max_degree_seen). Every term of the result is
    divisible by no reducer leading monomial. The reducer chosen at each
    step is the first whose leading monomial divides, so the outcome is
    deterministic in the order reducers are given. guard is
    guard_mask(n) for the ring's n variables.

    The work list is a dict from packed order key to [exps, coeff] beside a
    heap of the negated keys, so the head is the largest key, as in a
    descending term list (Monagan and Pearce, CASC 2007, use a heap the
    same way). A head step adds the reducer's shifted tail term by term:
    a key already present has its coefficient updated in place, a new one
    is pushed, and nothing else of the work list is touched. A key whose
    coefficient cancels to zero stays in both until it is popped, then is
    skipped, so each key sits on the heap at most once. An irreducible
    head moves to the result, and a one-term (monomial) reducer just drops
    the head. check_deadline() is called every 64 head reductions; it
    raises to end a reduction that has run out of time. A head of degree
    above DEGREE_CAP raises CapacityError.
    """
    leads = [r[0][1] for r in reducers]
    work = {k: [e, c] for k, e, c in f}
    # f is descending, so its negated keys ascend: already a heap
    heap = [-k for k, _, _ in f]
    get, pop, push = work.get, heappop, heappush
    result = []
    max_deg = 0
    steps = 0
    while heap:
        key0 = -pop(heap)
        e0, c0 = work.pop(key0)
        if not c0:
            continue
        deg = e0 % DEGREE_MOD
        if deg > max_deg:
            if deg > DEGREE_CAP:
                raise CapacityError(
                    f"degree {deg} exceeds the kernel's 2^60 capacity")
            max_deg = deg
        # divides(lead, e0, guard), inlined
        e0g = e0 | guard
        for j, lead in enumerate(leads):
            if e0g - lead & guard == guard:
                break
        else:
            result.append((key0, e0, c0))
            continue
        reducer = reducers[j]
        steps += 1
        if not steps % 64:
            check_deadline()
        key_shift = key0 - reducer[0][0]
        exp_shift = e0 - lead
        scale = p - c0
        for k, e, c in islice(reducer, 1, None):
            k += key_shift
            entry = get(k)
            if entry is None:
                work[k] = [e + exp_shift, c * scale % p]
                push(heap, -k)
            else:
                entry[1] = (entry[1] + c * scale) % p
    return result, max_deg


def s_poly(f, g, lcm_key, lcm_exps, p):
    """S-polynomial of two monic term lists, leading terms cancelled exactly.

    lcm_exps is the packed lcm of the two leading monomials and lcm_key
    its packed order key.
    """
    return merge(shifted(f[1:], lcm_key - f[0][0], lcm_exps - f[0][1], 1, p),
                 shifted(g[1:], lcm_key - g[0][0], lcm_exps - g[0][1], p - 1,
                         p), p)


def make_monic(terms, p):
    """Scale a descending term list so its leading coefficient is 1."""
    if not terms:
        return terms
    lc = terms[0][2]
    if lc == 1:
        return terms
    inv = pow(lc, -1, p)
    return [(k, e, c * inv % p) for k, e, c in terms]


def degree(terms) -> int:
    """Total degree of a nonempty term list."""
    return max(e % DEGREE_MOD for _, e, _ in terms)


def multiply(f, g, p):
    """Product of two descending term lists of one layout: the longer
    shifted by each term of the shorter, summed in a dict from packed key
    to [exps, coeff], as reduce_full keeps its work list, then sorted.
    Raises CapacityError when the product's total degree, deg f + deg g as
    the ring is a domain, is above MAX_EXPONENT; it bounds every exponent."""
    if not f or not g:
        return []
    total = degree(f) + degree(g)
    if total > MAX_EXPONENT:
        raise CapacityError(f"total degree {total} exceeds the 2^40 capacity")
    if len(f) > len(g):
        f, g = g, f
    work = {}
    get = work.get
    for key, exps, coeff in f:
        for k, e, c in g:
            k += key
            entry = get(k)
            if entry is None:
                work[k] = [e + exps, c * coeff]
            else:
                entry[1] += c * coeff
    out = []
    for k in sorted(work, reverse=True):
        e, c = work[k]
        c %= p
        if c:
            out.append((k, e, c))
    return out
