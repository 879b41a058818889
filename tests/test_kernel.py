"""The packed reduction kernel against the tuple kernel in oracles.py, and
the slot capacity at its edge."""

from functools import cmp_to_key

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from kunz import kernel
from kunz.engine import (Budget, _eliminating_key, div_exact, groebner,
                         normal_form)
from kunz.errors import (BudgetExceededError, CapacityError,
                         PreconditionError)
from kunz.field import FieldConfig
from kunz.poly import MAX_EXPONENT, PolyRing, Polynomial, grevlex_key
import oracles


def no_deadline():
    pass


def as_polynomial(terms, ring):
    return Polynomial(ring, {e: c for _, e, c in terms})


@st.composite
def small_ideals(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 4))
    ring = PolyRing(FieldConfig(p), tuple("xyzw"[:nvars]))

    def poly():
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * nvars), st.integers(1, p - 1),
            min_size=1, max_size=4))
        return sum((ring.monomial(e, c) for e, c in terms.items()),
                   ring.zero())

    gens = [poly() for _ in range(draw(st.integers(1, 3)))]
    return ring, gens, [poly() for _ in range(2)]


# Both kernels run under one pair and degree ceiling, which bounds the
# test's time, and must stop at the same point when they reach it.
MAX_PAIRS = 100
MAX_DEGREE = 40


@given(small_ideals())
@settings(max_examples=150)
def test_packed_kernel_matches_the_tuple_kernel(data):
    ring, gens, others = data
    p = ring.p
    key = oracles.grevlex_key
    budget = Budget(max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE)
    expected, pairs, seen = oracles.buchberger(gens, key, p, MAX_PAIRS,
                                               MAX_DEGREE)
    if expected is None:
        with pytest.raises(BudgetExceededError):
            groebner(gens, budget)
        basis = gens
    else:
        basis = groebner(gens, budget)
        assert basis == [as_polynomial(g, ring) for g in expected]
    assert budget.pairs == pairs
    assert budget.max_degree_seen == seen

    # normal forms by the basis (by the generators where a ceiling
    # stopped it, whose members need scaling to be monic)
    guard = kernel.guard_mask(ring.nvars)
    for f in others:
        reducers = [kernel.make_monic(kernel.to_terms(g), p) for g in basis]
        nf, degree = kernel.reduce_full(kernel.to_terms(f), reducers, guard,
                                        p, no_deadline)
        old_nf, old_degree = oracles.reduce_full(
            oracles.tuple_terms(f, key),
            [oracles.make_monic(oracles.tuple_terms(g, key), p)
             for g in basis], p)
        assert kernel.from_terms(nf, ring) == as_polynomial(old_nf, ring)
        assert degree == old_degree
        nf_budget = Budget()
        assert normal_form(f, basis, nf_budget) == as_polynomial(old_nf, ring)
        assert nf_budget.max_degree_seen == old_degree

    # exact quotients, and the same refusal of a remainder
    f, g = others
    for dividend in (f * g, f * g + f):
        old = oracles.divide_exact(oracles.tuple_terms(dividend, key),
                                   oracles.tuple_terms(g, key), p)
        if old is None:
            with pytest.raises(PreconditionError):
                div_exact(dividend, g)
        else:
            assert div_exact(dividend, g) == as_polynomial(old, ring)


@st.composite
def long_reductions(draw):
    """A dividend of up to 12 terms, or its square, and up to 4 monic
    grevlex reducers in 3 variables. The reducers need not form a Groebner
    basis: reduction by any list is deterministic. A squared dividend
    reaches degree 12, so the work list grows, cancels and refills."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ring = PolyRing(FieldConfig(p), ("x", "y", "z"))

    def poly(max_degree, max_size):
        return Polynomial(ring, draw(st.dictionaries(
            st.tuples(*[st.integers(0, max_degree)] * 3),
            st.integers(1, p - 1), min_size=1, max_size=max_size)))

    return ring, poly(2, 12) ** draw(st.integers(1, 2)), [
        poly(2, 5) for _ in range(draw(st.integers(1, 4)))]


@given(long_reductions())
@settings(max_examples=100)
def test_heap_work_list_matches_the_tuple_kernel(data):
    ring, f, basis = data
    p = ring.p
    key = oracles.grevlex_key
    reducers = [kernel.make_monic(kernel.to_terms(g), p) for g in basis]
    nf, degree = kernel.reduce_full(kernel.to_terms(f), reducers,
                                    kernel.guard_mask(3), p, no_deadline)
    old_nf, old_degree = oracles.reduce_full(
        oracles.tuple_terms(f, key),
        [oracles.make_monic(oracles.tuple_terms(g, key), p)
         for g in basis], p)
    assert nf == [(kernel.pack(k), kernel.pack(e), c) for k, e, c in old_nf]
    assert degree == old_degree


def test_reduction_polls_the_deadline_every_64_steps():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    polls = []
    # x^200 -> x^199*y -> ... -> y^200 takes 200 head reductions
    nf, degree = kernel.reduce_full(
        kernel.to_terms(ring.parse("x^200")),
        [kernel.to_terms(ring.parse("x - y"))], kernel.guard_mask(2),
        5, lambda: polls.append(None))
    assert kernel.from_terms(nf, ring) == ring.parse("y^200")
    assert degree == 200
    assert len(polls) == 200 // 64


EDGE = MAX_EXPONENT
near_edge = st.one_of(st.integers(0, 3), st.integers(EDGE - 3, EDGE))


@given(st.lists(near_edge, min_size=5, max_size=5))
def test_vectors_at_the_exponent_cap_round_trip(vector):
    exps = tuple(vector)
    assert kernel.unpack(kernel.pack(exps), 5) == exps
    key = grevlex_key(exps)
    assert kernel.unpack(kernel.pack(key), 5) == key
    assert kernel.pack(exps) % (2**64 - 1) == sum(exps)
    ring = PolyRing(FieldConfig(7), tuple("abcde"))
    f = ring.monomial(exps, 3) + ring.monomial((EDGE,) * 5, 2)
    assert kernel.from_terms(kernel.to_terms(f), ring) == f


@given(st.lists(st.tuples(near_edge, near_edge), min_size=1, max_size=5))
def test_guard_bit_divisibility_is_componentwise(pairs):
    a = tuple(x for x, _ in pairs)
    b = tuple(y for _, y in pairs)
    guard = kernel.guard_mask(len(pairs))
    assert kernel.divides(kernel.pack(a), kernel.pack(b), guard) == all(
        x <= y for x, y in pairs)


def test_normal_form_at_the_exponent_cap_is_exact():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    f = ring.monomial((EDGE, 1))
    g = ring.monomial((EDGE, 0)) - ring.monomial((0, 2))
    budget = Budget(max_degree=2 * EDGE)
    assert normal_form(f, [g], budget) == ring.monomial((0, 3))
    assert budget.max_degree_seen == EDGE + 1
    assert div_exact(ring.monomial((EDGE, 2)) - ring.monomial((0, 4)), g,
                     budget) == ring.monomial((0, 2))


def eliminating_terms(terms):
    """A term list in (t, y), {exps: coeff}, under the elimination of t that
    Ideal.intersection runs: there the key of t^a y^b is (a, b)."""
    return sorted(((kernel.pack(_eliminating_key(e)), kernel.pack(e), c)
                   for e, c in terms.items()), reverse=True)


def test_degrees_past_the_kernel_cap_are_refused():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    with pytest.raises(CapacityError):
        kernel.to_terms(ring.monomial((0, kernel.DEGREE_CAP + 1)))
    # eliminating t, reducing t^2 by t - y^k gives y^(2k): past the cap,
    # though each input is below it
    k = kernel.DEGREE_CAP // 2 + 1
    reducer = eliminating_terms({(1, 0): 1, (0, k): 4})
    with pytest.raises(CapacityError):
        kernel.reduce_full(eliminating_terms({(2, 0): 1}), [reducer],
                           kernel.guard_mask(2), 5, no_deadline)


@st.composite
def factors(draw):
    """Two polynomials in up to 3 variables, each of total degree at most
    MAX_EXPONENT; with near_cap their products may pass it."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(FieldConfig(p), tuple("xyz"[:nvars]))
    edge = MAX_EXPONENT // nvars
    entry = (st.sampled_from([0, 1, edge - 1, edge]) if draw(st.booleans())
             else st.integers(0, 3))

    def poly():
        return Polynomial(ring, draw(st.dictionaries(
            st.tuples(*[entry] * nvars), st.integers(1, p - 1),
            min_size=1, max_size=5)))

    return ring, poly(), poly()


def outcome(compute):
    """compute()'s value, or CapacityError where it raises one."""
    try:
        return compute()
    except CapacityError:
        return CapacityError


@given(factors())
@settings(max_examples=150)
def test_term_list_products_and_lifts_match_polynomial_products(data):
    ring, f, g = data
    p = ring.p
    terms_f, terms_g = kernel.to_terms(f), kernel.to_terms(g)
    assert outcome(lambda: kernel.from_terms(
        kernel.multiply(terms_f, terms_g, p), ring)) == outcome(lambda: f * g)
    assert outcome(lambda: kernel.multiply(terms_f, terms_g, p)) == outcome(
        lambda: kernel.to_terms(f * g))

    # the lift of Ideal.intersection: t * f and (1 - t) * g in (t, x, ...)
    n = ring.nvars
    big = PolyRing(ring.field, ("t",) + ring.variables)
    t = big.variable("t")

    def lifted(h):
        return Polynomial(big, {(0,) + e: c for e, c in h.terms.items()})

    top = 1 << (kernel.SLOT_BITS * n)
    greater = cmp_to_key(lambda a, b: oracles.elimination_greater(a, b, 1)
                         - oracles.elimination_greater(b, a, 1))
    for factor, h in (([(top, top, 1)], f),
                      ([(top, top, p - 1), (0, 0, 1)], g)):
        terms = outcome(lambda: kernel.multiply(factor, kernel.to_terms(h), p))
        expected = outcome(lambda: kernel.from_terms(factor, big) * lifted(h))
        if expected is CapacityError:
            assert terms is CapacityError
            continue
        assert kernel.from_terms(terms, big) == expected
        # descending in the textbook elimination order, with the packed key
        # the elimination layout gives each term
        exps = [kernel.unpack(e, n + 1) for _, e, _ in terms]
        assert exps == sorted(exps, key=greater, reverse=True)
        assert [k for k, _, _ in terms] == [
            kernel.pack(_eliminating_key(e)) for e in exps]
