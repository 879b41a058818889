"""The packed reduction kernel against the tuple kernel in oracles.py, and
the slot capacity at its edge."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from kunz import kernel
from kunz.engine import Budget, div_exact, groebner, normal_form
from kunz.errors import (BudgetExceededError, CapacityError,
                         PreconditionError)
from kunz.field import FieldConfig
from kunz.poly import (ELIMINATION, GREVLEX, LEX, MAX_EXPONENT, MonomialOrder,
                       PolyRing, Polynomial)
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
    kind = draw(st.sampled_from([GREVLEX, LEX, ELIMINATION]))
    order = (MonomialOrder(kind, draw(st.integers(1, nvars)))
             if kind == ELIMINATION else MonomialOrder(kind))

    def poly():
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * nvars), st.integers(1, p - 1),
            min_size=1, max_size=4))
        return sum((ring.monomial(e, c) for e, c in terms.items()),
                   ring.zero())

    gens = [poly() for _ in range(draw(st.integers(1, 3)))]
    return ring, order, gens, [poly() for _ in range(2)]


# Lex and elimination bases of three small generators in four variables can
# take minutes (degree 552 after 800 pairs over F_2), so both kernels run
# under one pair and degree ceiling and must stop at the same point when
# they reach it. About 1 in 100 drawn ideals reaches it.
MAX_PAIRS = 100
MAX_DEGREE = 40


@given(small_ideals())
@settings(max_examples=150)
def test_packed_kernel_matches_the_tuple_kernel(data):
    ring, order, gens, others = data
    p = ring.p
    budget = Budget(max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE)
    expected, pairs, seen = oracles.buchberger(gens, order, p, MAX_PAIRS,
                                               MAX_DEGREE)
    if expected is None:
        with pytest.raises(BudgetExceededError):
            groebner(gens, order, budget)
        basis = gens
    else:
        basis = groebner(gens, order, budget)
        assert basis == [as_polynomial(g, ring) for g in expected]
    assert budget.pairs == pairs
    assert budget.max_degree_seen == seen

    # normal forms by the basis (by the generators where a ceiling
    # stopped it), under its order and under grevlex, where the basis
    # members need scaling to be monic again
    grevlex = ring.default_order()
    guard = kernel.guard_mask(ring.nvars)
    for f in others:
        for o in (order, grevlex):
            reducers = [kernel.make_monic(kernel.to_terms(g, o), p)
                        for g in basis]
            nf, degree = kernel.reduce_full(kernel.to_terms(f, o), reducers,
                                            guard, p, no_deadline)
            old_nf, old_degree = oracles.reduce_full(
                oracles.tuple_terms(f, o),
                [oracles.make_monic(oracles.tuple_terms(g, o), p)
                 for g in basis], p)
            assert kernel.from_terms(nf, ring) == as_polynomial(old_nf, ring)
            assert degree == old_degree
        # old_nf and old_degree are the grevlex ones, as normal_form uses
        nf_budget = Budget()
        assert normal_form(f, basis, nf_budget) == as_polynomial(old_nf, ring)
        assert nf_budget.max_degree_seen == old_degree

    # exact quotients, and the same refusal of a remainder
    f, g = others
    for dividend in (f * g, f * g + f):
        old = oracles.divide_exact(oracles.tuple_terms(dividend, grevlex),
                                   oracles.tuple_terms(g, grevlex), p)
        if old is None:
            with pytest.raises(PreconditionError):
                div_exact(dividend, g)
        else:
            assert div_exact(dividend, g) == as_polynomial(old, ring)


EDGE = MAX_EXPONENT
near_edge = st.one_of(st.integers(0, 3), st.integers(EDGE - 3, EDGE))


@given(st.integers(1, 5), st.lists(near_edge, min_size=5, max_size=5))
def test_vectors_at_the_exponent_cap_round_trip(block, vector):
    order = MonomialOrder(ELIMINATION, block)
    exps = tuple(vector)
    assert kernel.unpack(kernel.pack(exps), 5) == exps
    key = order.key(exps)  # block 5 appends the empty block's key (0,)
    assert kernel.unpack(kernel.pack(key), len(key)) == key
    assert kernel.pack(exps) % (2**64 - 1) == sum(exps)
    ring = PolyRing(FieldConfig(7), tuple("abcde"))
    f = ring.monomial(exps, 3) + ring.monomial((EDGE,) * 5, 2)
    assert kernel.from_terms(kernel.to_terms(f, order), ring) == f


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


def test_degrees_past_the_kernel_cap_are_refused():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    lex = MonomialOrder(LEX)
    with pytest.raises(CapacityError):
        kernel.to_terms(ring.monomial((0, kernel.DEGREE_CAP + 1)), lex)
    # under lex, reducing x^2 by x - y^k gives y^(2k): past the cap, though
    # each input is below it
    k = kernel.DEGREE_CAP // 2 + 1
    reducer = kernel.to_terms(ring.monomial((1, 0)) - ring.monomial((0, k)), lex)
    with pytest.raises(CapacityError):
        kernel.reduce_full(kernel.to_terms(ring.monomial((2, 0)), lex),
                           [reducer], kernel.guard_mask(2), 5, no_deadline)
