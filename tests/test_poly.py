from functools import cmp_to_key, partial

from hypothesis import given
from hypothesis import strategies as st
import pytest

from kunz.errors import CapacityError, ParseError
from kunz.field import FieldConfig
from kunz.kernel import from_terms, pack, to_terms, unpack
from kunz.poly import (ELIMINATION, GREVLEX, LEX, MAX_EXPONENT, MonomialOrder,
                       PolyRing)
from oracles import elimination_greater, grevlex_greater, lex_greater

primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def ring_and_polys(draw, count=2, max_vars=3):
    p = draw(primes)
    nvars = draw(st.integers(1, max_vars))
    ring = PolyRing(FieldConfig(p), tuple("xyz"[:nvars]))
    polys = []
    for _ in range(count):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * nvars),
            st.integers(1, p - 1),
            max_size=5))
        poly = ring.zero()
        for exps, coeff in terms.items():
            poly = poly + ring.monomial(exps, coeff)
        polys.append(poly)
    return ring, polys


@given(ring_and_polys(count=3))
def test_distributivity(data):
    ring, (f, g, h) = data
    assert (f + g) * h == f * h + g * h


@given(ring_and_polys(count=2))
def test_product_commutes_and_zero_absorbs(data):
    ring, (f, g) = data
    assert f * g == g * f
    assert (f * ring.zero()).is_zero()
    assert f - f == ring.zero()


@given(ring_and_polys(count=1))
def test_parse_format_round_trip(data):
    ring, (f,) = data
    assert ring.parse(str(f)) == f


@given(ring_and_polys(count=1), st.integers(0, 5))
def test_pow_matches_repeated_product(data, n):
    ring, (f,) = data
    expected = ring.one()
    for _ in range(n):
        expected = expected * f
    assert f**n == expected


@given(ring_and_polys(count=1), st.integers(1, 2))
def test_frobenius_power_is_qth_power(data, e):
    """(sum c m)^q = sum c m^q in characteristic p, by Fermat and freshman
    exponentiation, so the exponent-scaling shortcut must agree with pow."""
    ring, (f,) = data
    q = ring.p**e
    assert f.frobenius_power(q) == f**q


@given(ring_and_polys(count=2))
def test_derivative_product_rule(data):
    ring, (f, g) = data
    for i in range(ring.nvars):
        assert (f * g).derivative(i) == f.derivative(i) * g + f * g.derivative(i)


@given(ring_and_polys(count=2))
def test_evaluate_is_a_homomorphism(data):
    ring, (f, g) = data
    point = tuple(i % ring.p for i in range(ring.nvars))
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point) % ring.p
    assert (f + g).evaluate(point) == (f.evaluate(point) + g.evaluate(point)) % ring.p


@given(ring_and_polys(count=1))
def test_shift_recenters_evaluation(data):
    ring, (f,) = data
    point = tuple((i + 1) % ring.p for i in range(ring.nvars))
    shifted = f.substitute_shift(point)
    assert shifted.evaluate((0,) * ring.nvars) == f.evaluate(point)
    assert shifted.constant_coefficient() == f.evaluate(point)


@given(ring_and_polys(count=2))
def test_vanishing_order_adds_on_products(data):
    ring, (f, g) = data
    if f.is_zero() or g.is_zero():
        return
    assert (f * g).order_of_vanishing() == (
        f.order_of_vanishing() + g.order_of_vanishing())


def test_exponent_capacity():
    ring = PolyRing(FieldConfig(5), ("x",))
    ring.monomial({0: MAX_EXPONENT})
    with pytest.raises(CapacityError):
        ring.monomial({0: MAX_EXPONENT + 1})


def test_parse_errors_carry_positions():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    with pytest.raises(ParseError) as err:
        ring.parse("x + w")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        ring.parse("x +")
    with pytest.raises(ParseError):
        ring.parse("x ** 2")


def test_parse_accepts_the_documented_surface():
    ring = PolyRing(FieldConfig(7), ("x", "y"))
    f = ring.parse("x^2 - 3*y + 2")
    assert f == ring.monomial({0: 2}) + ring.monomial({1: 1}, 4) + ring.constant(2)
    assert ring.parse("-x") == ring.monomial({0: 1}, 6)
    assert ring.parse("0").is_zero()


def test_total_degree():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    assert ring.parse("x^3*y + y^2").total_degree() == 4
    assert ring.zero().total_degree() == -1


@st.composite
def order_and_exponents(draw):
    nvars = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([GREVLEX, LEX, ELIMINATION]))
    if kind == ELIMINATION:
        k = draw(st.integers(1, nvars))
        order = MonomialOrder(kind, k)
        greater = partial(elimination_greater, k=k)
    else:
        order = MonomialOrder(kind)
        greater = grevlex_greater if kind == GREVLEX else lex_greater
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars),
                            min_size=1, max_size=12, unique=True))
    return order, greater, vectors


@given(order_and_exponents(), primes)
def test_order_keys_match_the_textbook_orders(data, p):
    order, greater, vectors = data
    by_oracle = sorted(vectors, key=cmp_to_key(
        lambda a, b: greater(a, b) - greater(b, a)), reverse=True)
    assert sorted(vectors, key=order.key, reverse=True) == by_oracle

    n = len(vectors[0])
    ring = PolyRing(FieldConfig(p), tuple("xyzw"[:n]))
    f = ring.zero()
    for i, exps in enumerate(vectors):
        f = f + ring.monomial(exps, 1 + i % (p - 1))
    terms = to_terms(f, order)
    # the terms come in the textbook order, and their packed keys, compared
    # as ints, strictly descend along it
    assert [unpack(e, n) for _, e, _ in terms] == by_oracle
    assert all(a[0] > b[0] for a, b in zip(terms, terms[1:]))
    assert all(k == pack(order.key(unpack(e, n))) for k, e, _ in terms)
    assert from_terms(terms, ring) == f


@st.composite
def order_and_exponent_pair(draw):
    nvars = draw(st.integers(1, 5))
    kind = draw(st.sampled_from([GREVLEX, LEX, ELIMINATION]))
    order = (MonomialOrder(kind, draw(st.integers(1, nvars)))
             if kind == ELIMINATION else MonomialOrder(kind))
    vector = st.tuples(*[st.integers(0, 20)] * nvars)
    return order, draw(vector), draw(vector)


@given(order_and_exponent_pair())
def test_order_keys_are_additive(data):
    # the kernel shifts a term's key by a monomial's key instead of
    # recomputing it, which is sound only because keys are additive
    order, a, b = data
    total = tuple(x + y for x, y in zip(a, b))
    assert order.key(total) == tuple(
        x + y for x, y in zip(order.key(a), order.key(b)))
    # so packed keys and exponents add as ints
    assert pack(order.key(total)) == pack(order.key(a)) + pack(order.key(b))
    assert pack(total) == pack(a) + pack(b)
