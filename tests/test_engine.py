from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from kunz.engine import Budget, Ideal, div_exact, maximal_ideal
from kunz.errors import BudgetExceededError, PreconditionError
from kunz.field import FieldConfig
from kunz.poly import PolyRing
from oracles import bracket, monomial_colength

primes = st.sampled_from([2, 3, 5])


def ring_of(p, names="xy"):
    return PolyRing(FieldConfig(p), tuple(names))


@st.composite
def random_ideal(draw, max_vars=3):
    p = draw(primes)
    nvars = draw(st.integers(2, max_vars))
    ring = ring_of(p, "xyz"[:nvars])
    count = draw(st.integers(1, 3))
    gens = []
    for _ in range(count):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * nvars),
            st.integers(1, p - 1), min_size=1, max_size=4))
        poly = ring.zero()
        for exps, coeff in terms.items():
            poly = poly + ring.monomial(exps, coeff)
        if not poly.is_zero():
            gens.append(poly)
    return ring, Ideal(ring, gens or [ring.parse("x")])


@given(random_ideal())
@settings(max_examples=60)
def test_groebner_basis_contains_its_generators(data):
    ring, ideal = data
    basis = ideal.groebner_basis()
    for g in ideal.generators:
        assert ideal.normal_form(g).is_zero()
    for b in basis:
        assert b.ordered_terms(ring.default_order())[0][1] == 1  # monic


@given(random_ideal())
@settings(max_examples=60)
def test_normal_form_is_idempotent_and_linear(data):
    ring, ideal = data
    f = ring.parse("x^2 + x*y + 1")
    g = ring.parse("y^3 + x")
    nf, ng = ideal.normal_form(f), ideal.normal_form(g)
    assert ideal.normal_form(nf) == nf
    assert ideal.normal_form(f + g) == ideal.normal_form(nf + ng)


@st.composite
def monomial_ideal_data(draw):
    p = draw(primes)
    nvars = draw(st.integers(1, 3))
    ring = ring_of(p, "xyz"[:nvars])
    # pure powers on every axis keep the colength finite, plus mixed noise
    vectors = [tuple(draw(st.integers(1, 4)) if i == axis else 0
                     for i in range(nvars)) for axis in range(nvars)]
    for _ in range(draw(st.integers(0, 2))):
        vectors.append(tuple(draw(st.integers(0, 3)) for _ in range(nvars)))
    vectors = [v for v in vectors if any(v)]
    return ring, vectors


@given(monomial_ideal_data(), st.sampled_from([1, 2]))
@settings(max_examples=60)
def test_colength_matches_the_staircase_count(data, e):
    ring, vectors = data
    q = ring.p**e
    scaled = bracket(vectors, q)
    ideal = Ideal(ring, [ring.monomial(v) for v in scaled])
    assert ideal.colength() == monomial_colength(scaled)


def test_colength_names_an_unbounded_variable():
    ring = ring_of(5)
    with pytest.raises(PreconditionError) as err:
        Ideal(ring, [ring.parse("x^2")]).colength()
    assert "y" in str(err.value)


def test_dimension_on_known_quotients():
    ring3 = PolyRing(FieldConfig(5), ("x", "y", "z"))
    assert Ideal(ring3, []).dimension() == 3
    assert Ideal(ring3, [ring3.parse("x*y - z^2")]).dimension() == 2
    ring2 = ring_of(3)
    assert Ideal(ring2, [ring2.parse("x*y")]).dimension() == 1
    assert maximal_ideal(ring2).dimension() == 0


def test_bracket_power_of_maximal_ideal():
    ring = ring_of(5, "xyz")
    m = maximal_ideal(ring)
    assert m.bracket_power(25).colength() == 25**3
    with pytest.raises(PreconditionError):
        m.bracket_power(10)  # not a power of p


@given(random_ideal())
@settings(max_examples=40)
def test_colon_multiplies_back_in(data):
    ring, ideal = data
    u = ring.parse("x + y")
    colon = ideal.colon(Ideal(ring, [u]))
    for g in colon.generators:
        assert ideal.contains(g * u)
    assert colon.contains_ideal(ideal)


@given(random_ideal())
@settings(max_examples=40)
def test_intersection_is_contained_in_both(data):
    ring, ideal = data
    other = Ideal(ring, [ring.parse("x^2"), ring.parse("y^2")])
    meet = ideal.intersection(other)
    for g in meet.generators:
        assert ideal.contains(g) and other.contains(g)


def test_colon_of_monomial_ideal():
    ring = ring_of(5)
    ideal = Ideal(ring, [ring.parse("x^3"), ring.parse("y^2")])
    colon = ideal.colon(Ideal(ring, [ring.parse("x^2*y")]))
    expected = Ideal(ring, [ring.parse("x"), ring.parse("y")])
    assert colon == expected


def test_unit_and_zero_ideals():
    ring = ring_of(5)
    assert Ideal(ring, [ring.parse("x"), ring.parse("x + 1")]).is_unit()
    assert not Ideal(ring, [ring.parse("x")]).is_unit()
    assert Ideal(ring, []).is_zero()


def test_pair_budget_is_enforced():
    ring = ring_of(5, "xyz")
    hard = Ideal(ring, [ring.parse("x*y - z^2"), ring.parse("x^25"),
                        ring.parse("y^25"), ring.parse("z^25")])
    with pytest.raises(BudgetExceededError) as err:
        hard.groebner_basis(budget=Budget(max_pairs=3))
    assert err.value.pairs is not None


def test_colength_calls_on_one_budget_add_up():
    ring = ring_of(5, "xyz")
    cone = Ideal(ring, [ring.parse("x*y - z^2")])
    m = maximal_ideal(ring)

    def level(q):
        return cone.sum_with(m.bracket_power(q))

    alone = [Budget(), Budget()]
    level(5).colength(alone[0])
    level(25).colength(alone[1])
    shared = Budget()
    level(5).colength(shared)
    level(25).colength(shared)
    assert alone[0].pairs > 0 and alone[1].pairs > 0
    assert shared.pairs == alone[0].pairs + alone[1].pairs
    assert shared.max_degree_seen == max(b.max_degree_seen for b in alone)


def test_div_exact_polls_the_deadline():
    ring = ring_of(5, "xyz")
    g = ring.parse("x*y - z^2")
    quotient = ring.parse("(x + y + z + 1)^12")
    assert len(quotient.terms) == 100
    f = quotient * g
    with pytest.raises(BudgetExceededError):
        div_exact(f, g, Budget(deadline_seconds=0))
    assert div_exact(f, g) == quotient


def test_degree_budget_is_enforced():
    ring = ring_of(5)
    ideal = maximal_ideal(ring).bracket_power(5)
    with pytest.raises(BudgetExceededError):
        ideal.colength(budget=Budget(max_degree=2))
