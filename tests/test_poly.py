from functools import cmp_to_key

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from kunz.errors import (CapacityError, KunzError, ParseError,
                         PreconditionError)
from kunz.field import FieldConfig
from kunz.kernel import DEGREE_CAP, MAX_EXPONENT, pack, unpack
from kunz.poly import PolyRing, Polynomial, grevlex_key, parse_polynomial
from oracles import (grevlex_greater, naive_polynomial_product,
                     reference_parse)

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
    exponentiation, so the exponent-scaling shortcut must agree with pow.

    The oracle takes e successive p-th powers, (..(f^p)^p..), still plain
    multiplication: multiplying out f^q at once is dense, and took seconds
    on some draws at q = 49."""
    ring, (f,) = data
    q = ring.p**e
    expected = f
    for _ in range(e):
        expected = expected**ring.p
    assert f.frobenius_power(q) == expected
    assert_canonical(f.frobenius_power(q),
                     {tuple(x * q for x in exps): c for exps, c in f})


@pytest.mark.parametrize("q", [2, 0])
def test_frobenius_power_refuses_other_exponents(q):
    """Scaling exponents by q is the q-th power only for q a power of p:
    over F_3, (x + y)^2 is not x^2 + y^2, and q = 0 would merge every
    term into the constant 1 + 1."""
    f = PolyRing(FieldConfig(3), ("x", "y")).parse("x + y")
    with pytest.raises(PreconditionError,
                       match=f"^{q} is not a power of the characteristic 3$"):
        f.frobenius_power(q)


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


@pytest.mark.parametrize("text, message, position", [
    ("x $ y", "unexpected character '$'", 2),
    ("(x y)", "expected ')', found 'y'", 3),
    ("x y", "trailing input 'y'", 2),
    ("x^y", "exponent must be an integer literal", 2),
    ("x^2000000000000", "exponent 2000000000000 exceeds the 2^40 capacity",
     2),
    # past Python's int() limit, a literal or an exponent alike
    pytest.param("x + " + "1" * 4301,
                 "integer literal of 4301 digits exceeds 4300", 4,
                 id="long_literal"),
    pytest.param("x^" + "0" * 4301,
                 "integer literal of 4301 digits exceeds 4300", 2,
                 id="long_exponent"),
    # the 101st open parenthesis, whatever the caller's stack depth
    pytest.param("(" * 101 + "x" + ")" * 101, "parentheses nest past 100",
                 100, id="deep"),
    pytest.param("x*(" + "(y)" * 200 + "(" * 100 + "x",
                 "parentheses nest past 100", 3 + 3 * 200 + 99,
                 id="deep_late"),
])
def test_parse_errors_name_the_fault_and_its_position(text, message,
                                                      position):
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    with pytest.raises(ParseError) as err:
        ring.parse(text)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_the_parser_takes_literals_and_nesting_up_to_its_caps():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    assert ring.parse("1" * 4300) == ring.constant(int("1" * 4300))
    assert ring.parse("(" * 100 + "x" + ")" * 100) == ring.variable("x")


def test_parse_accepts_the_documented_surface():
    ring = PolyRing(FieldConfig(7), ("x", "y"))
    f = ring.parse("x^2 - 3*y + 2")
    assert f == ring.monomial({0: 2}) + ring.monomial({1: 1}, 4) + ring.constant(2)
    assert ring.parse("-x") == ring.monomial({0: 1}, 6)
    assert ring.parse("0").is_zero()


# Pieces of parser input: digits with leading zeros, exponents at and just
# past the 2^40 capacity, names of the ring, unknown names, every operator,
# white space (a no-break space too) and stray characters (a Unicode digit
# too, which \d reads).
NUMBERS = ["0", "00", "7", "007", "12", str(MAX_EXPONENT),
           "0" + str(MAX_EXPONENT), str(MAX_EXPONENT + 1),
           "0" + str(MAX_EXPONENT + 1)]
NAMES = ["x", "y", "x_1", "z", "x_2", "X", "y1"]
SPACES = [" ", "\t", "\n", "\u00a0"]
STRAYS = ["%", ".", "é", "_", "\u0663"]
spaces = st.sampled_from([""] * len(SPACES) + SPACES)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map("".join),
        inner.map(lambda text: f"({text})"),
        inner.map(lambda text: f"-{text}"),
        st.tuples(inner, spaces, st.sampled_from(NUMBERS)).map(
            lambda parts: "{}^{}{}".format(*parts)))


expressions = st.recursive(
    st.tuples(spaces, st.sampled_from(NUMBERS + NAMES), spaces).map("".join),
    _compound, max_leaves=6)
texts = st.lists(st.one_of(expressions, st.sampled_from(
    NUMBERS + NAMES + list("+-*^()") + SPACES + STRAYS)),
    max_size=5).map("".join)


class _OutOfSteps(Exception):
    pass


def _read(parse, text, ring):
    """parse's Polynomial for text, or the type, text and position of its
    error. The deadline check of every product counts steps and ends the
    reading at the 300th, at the same product for both parsers as long as
    they take the same products in the same order."""
    steps = iter(range(300))

    def check():
        if next(steps, None) is None:
            raise _OutOfSteps

    try:
        return parse(text, ring, check)
    except (KunzError, _OutOfSteps) as err:
        return type(err), str(err), getattr(err, "position", None)


@settings(max_examples=2000)
@given(primes, texts)
def test_the_parser_reads_every_text_as_the_reference_did(p, text):
    ring = PolyRing(FieldConfig(p), ("x", "y", "x_1"))
    assert (_read(parse_polynomial, text, ring)
            == _read(reference_parse, text, ring))


def test_total_degree():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    assert ring.parse("x^3*y + y^2").total_degree() == 4
    assert ring.zero().total_degree() == -1


@st.composite
def exponent_vectors(draw):
    nvars = draw(st.integers(1, 4))
    return draw(st.lists(st.tuples(*[st.integers(0, 4)] * nvars),
                         min_size=1, max_size=12, unique=True))


@given(exponent_vectors(), primes)
def test_order_keys_match_the_textbook_orders(vectors, p):
    by_oracle = sorted(vectors, key=cmp_to_key(
        lambda a, b: grevlex_greater(a, b) - grevlex_greater(b, a)),
        reverse=True)
    assert sorted(vectors, key=grevlex_key, reverse=True) == by_oracle

    n = len(vectors[0])
    ring = PolyRing(FieldConfig(p), tuple("xyzw"[:n]))
    f = ring.zero()
    for i, exps in enumerate(vectors):
        f = f + ring.monomial(exps, 1 + i % (p - 1))
    # the terms come in the textbook order, and their packed keys, compared
    # as ints, strictly descend along it
    assert [exps for exps, _ in f] == by_oracle
    assert all(a[0] > b[0] for a, b in zip(f.terms, f.terms[1:]))


@st.composite
def exponent_pair(draw):
    nvars = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(0, 20)] * nvars)
    return draw(vector), draw(vector)


@given(exponent_pair())
def test_order_keys_are_additive(pair):
    # the kernel shifts a term's key by a monomial's key instead of
    # recomputing it, which is sound only because keys are additive
    a, b = pair
    total = tuple(x + y for x, y in zip(a, b))
    assert grevlex_key(total) == tuple(
        x + y for x, y in zip(grevlex_key(a), grevlex_key(b)))
    # so packed keys and exponents add as ints
    assert pack(grevlex_key(total)) == (pack(grevlex_key(a))
                                        + pack(grevlex_key(b)))
    assert pack(total) == pack(a) + pack(b)


def assert_canonical(f, expected):
    """f's term list is the canonical form of the dict expected: keys
    strictly descend and are the packed grevlex keys of the packed
    exponents, every coefficient lies in [1, p), and the terms read back
    as expected with its zero coefficients dropped. The degrees and the
    constant term read from the ends of the list are the dict's."""
    n, p = f.ring.nvars, f.ring.p
    keys = [k for k, _, _ in f.terms]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert all(k == pack(grevlex_key(unpack(e, n))) for k, e, _ in f.terms)
    assert all(0 < c < p for _, _, c in f.terms)
    terms = {e: c % p for e, c in expected.items() if c % p}
    assert dict(f) == terms
    assert f.total_degree() == max(map(sum, terms), default=-1)
    assert f.order_of_vanishing() == min(map(sum, terms), default=-1)
    assert f.constant_coefficient() == terms.get((0,) * n, 0)


@st.composite
def raw_terms(draw):
    """A ring and two {exps: coeff} dicts whose coefficients may be zero,
    negative or at least p."""
    p = draw(primes)
    nvars = draw(st.integers(1, 3))
    ring = PolyRing(FieldConfig(p), tuple("xyz"[:nvars]))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * nvars),
                            st.integers(-2 * p, 2 * p), max_size=6)
    return ring, draw(terms), draw(terms)


@given(raw_terms())
def test_term_lists_are_canonical(data):
    ring, f_terms, g_terms = data
    p = ring.p
    f, g = Polynomial(ring, f_terms), Polynomial(ring, g_terms)
    assert_canonical(f, f_terms)
    # sums, negations, scalings and products keep the canonical form
    total = dict(f_terms)
    for e, c in g_terms.items():
        total[e] = total.get(e, 0) + c
    assert_canonical(f + g, total)
    assert_canonical(-f, {e: -c for e, c in f_terms.items()})
    assert_canonical(f - f, {})
    assert_canonical(f.scale(3), {e: 3 * c for e, c in f_terms.items()})
    assert_canonical(f * g, naive_polynomial_product(dict(f), dict(g), p))


def test_constructor_refusals():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    with pytest.raises(PreconditionError, match="does not match"):
        Polynomial(ring, {(1,): 1})
    with pytest.raises(PreconditionError, match="negative exponent"):
        Polynomial(ring, {(2, -1): 1})
    Polynomial(ring, {(0, DEGREE_CAP): 1})
    with pytest.raises(CapacityError, match="2\\^60"):
        Polynomial(ring, {(1, DEGREE_CAP): 1})


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_products_and_frobenius_powers_past_the_capacity(nvars):
    """Total degree MAX_EXPONENT is the last one a product or a Frobenius
    power may reach."""
    ring = PolyRing(FieldConfig(3), tuple("xyz"[:nvars]))
    x, z = ring.gens()[0], ring.gens()[-1]
    edge = ring.monomial((MAX_EXPONENT - 1,) + (0,) * (nvars - 1))
    assert (edge * z).total_degree() == MAX_EXPONENT
    with pytest.raises(CapacityError, match="total degree .* 2\\^40"):
        edge * z * x
    third = MAX_EXPONENT // 3
    assert (z**third + x).frobenius_power(3).total_degree() == 3 * third
    with pytest.raises(CapacityError, match="total degree .* 2\\^40"):
        (z**third * x + x).frobenius_power(3)
