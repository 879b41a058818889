import functools
import itertools
import math

from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
import pytest

from kunz import engine
from kunz.engine import (Budget, Ideal, _update, div_exact, groebner,
                         maximal_ideal, normal_form)
from kunz.engine import monomial_colength as engine_monomial_colength
from kunz.errors import BudgetExceededError, PreconditionError
from kunz.field import FieldConfig
from kunz.kernel import pack, unpack
from kunz.poly import PolyRing, grevlex_key
import oracles
from oracles import (box_bounds, bracket, monomial_colength,
                     pairwise_update, peeling_colength)

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
        assert next(iter(b))[1] == 1  # monic


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
    nvars = draw(st.integers(1, 4))
    ring = ring_of(p, "xyzw"[:nvars])
    # pure powers on every axis keep the colength finite, plus mixed noise
    vectors = [tuple(draw(st.integers(1, 4)) if i == axis else 0
                     for i in range(nvars)) for axis in range(nvars)]
    for _ in range(draw(st.integers(0, 2))):
        vectors.append(tuple(draw(st.integers(0, 3)) for _ in range(nvars)))
    vectors = [v for v in vectors if any(v)]
    # duplicates and multiples of a generator are redundant
    for v in draw(st.lists(st.sampled_from(vectors), max_size=3)):
        vectors.append(tuple(k + draw(st.integers(0, 2)) for k in v))
    return ring, vectors


SMALL_BOX = 4096


@given(monomial_ideal_data(), st.sampled_from([0, 1, 2]),
       st.lists(st.tuples(*[st.integers(0, 4)] * 4), max_size=3))
@settings(max_examples=80)
def test_colength_matches_the_staircase_count(data, e, loose):
    ring, vectors = data
    n = ring.nvars
    # q = 1 leaves the generators as drawn; four variables keep the
    # brute-force box small
    q = ring.p**min(e, 1 if n == 4 else 2)
    gens = bracket(vectors, q) + [v[:n] for v in loose if any(v[:n])]
    # the brute-force count walks the box; past SMALL_BOX monomials the
    # peeling count, which walks none, is the oracle
    small = math.prod(box_bounds(gens)) <= SMALL_BOX
    expected = (monomial_colength if small else peeling_colength)(gens)
    assert engine_monomial_colength(gens, ring) == expected
    ideal = Ideal(ring, [ring.monomial(v) for v in gens])
    assert ideal.colength() == expected


@functools.cache
def leading_staircase(p, names, equation, e):
    ring = ring_of(p, names)
    total = Ideal(ring, [ring.parse(equation)]).sum_with(
        maximal_ideal(ring).bracket_power(p**e))
    return ring, total


# Fermat cubic at q = 49 and the quadric at q = 27: boxes of 49^3 and 27^4
# monomials, beyond the brute-force count
LARGE_STAIRCASES = [(7, "xyz", "x^3 + y^3 + z^3", 2),
                    (3, "xyzw", "x*y - z*w", 3)]


@pytest.mark.parametrize("case", LARGE_STAIRCASES)
def test_colength_matches_peeling_on_large_staircases(case):
    _, total = leading_staircase(*case)
    assert total.colength() == peeling_colength(total.leading_term_ideal())


@given(st.sampled_from(LARGE_STAIRCASES), st.data())
@settings(max_examples=30)
def test_slice_count_matches_peeling_on_sub_staircases(case, data):
    ring, total = leading_staircase(*case)
    leads = total.leading_term_ideal()
    pure = [e for e in leads if sum(1 for k in e if k) == 1]
    mixed = [e for e in leads if e not in pure]
    kept = data.draw(st.lists(st.sampled_from(mixed), unique=True))
    # redundant generators: duplicates and shifted copies of kept ones
    extra = data.draw(st.lists(st.sampled_from(kept), max_size=4)) if kept else []
    shifted = [tuple(k + data.draw(st.integers(0, 3)) for k in e) for e in extra]
    gens = pure + kept + extra + shifted
    assert engine_monomial_colength(gens, ring) == peeling_colength(gens)


def test_colength_count_polls_the_deadline():
    ring = ring_of(5, "xyz")
    budget = Budget(deadline_seconds=0)
    with pytest.raises(BudgetExceededError) as err:
        engine_monomial_colength([(2, 0, 0), (0, 3, 0), (0, 0, 4)], ring, budget)
    assert err.value.pairs == 0
    assert err.value.max_degree_seen == 0


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


@st.composite
def two_small_ideals(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 3))
    ring = ring_of(p, "xyz"[:nvars])

    def poly():
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * nvars), st.integers(1, p - 1),
            min_size=1, max_size=3))
        return sum((ring.monomial(e, c) for e, c in terms.items()),
                   ring.zero())

    def gens():
        return [poly() for _ in range(draw(st.integers(1, 2)))]

    return ring, gens(), gens(), poly()


# As in test_kernel.py: an elimination basis of small generators can take
# minutes, so every basis here runs under one pair and degree ceiling, and
# the engine must stop where the oracle does.
MAX_PAIRS = 100
MAX_DEGREE = 40


def ceiling():
    return Budget(max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE)


@given(two_small_ideals())
@settings(max_examples=80)
def test_ideal_queries_match_the_reduced_basis(data):
    ring, first, second, f = data
    ideal = Ideal(ring, first)
    try:
        basis = groebner(first, ceiling())
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            ideal.leading_term_ideal(ceiling())
    else:
        # a minimal basis has the reduced basis's leads, each once
        assert sorted(ideal.leading_term_ideal(ceiling())) == sorted(
            next(iter(g))[0] for g in basis)
        assert ideal.normal_form(f) == normal_form(f, basis)

    expected, pairs, seen = oracles.elimination_intersection(
        first, second, ring, MAX_PAIRS, MAX_DEGREE)
    budget = ceiling()
    if expected is None:
        with pytest.raises(BudgetExceededError):
            Ideal(ring, first).intersection(Ideal(ring, second), budget)
    else:
        meet = Ideal(ring, first).intersection(Ideal(ring, second), budget)
        assert list(meet.generators) == expected
    assert budget.pairs == pairs
    assert budget.max_degree_seen == seen


def homogeneous(draw, ring, degree, max_terms):
    """A homogeneous polynomial of the given degree with 1 to max_terms
    terms."""
    monomials = [e for e in itertools.product(range(degree + 1),
                                              repeat=ring.nvars)
                 if sum(e) == degree]
    terms = draw(st.dictionaries(st.sampled_from(monomials),
                                 st.integers(1, ring.p - 1),
                                 min_size=1, max_size=max_terms))
    return sum((ring.monomial(e, c) for e, c in terms.items()), ring.zero())


@st.composite
def colon_by_several(draw):
    """J = I^[q] + (f) and the divisor ideal I, with 2 or 3 generators of
    degree at most 2 in 2 or 3 variables, at q = p. Half the draws make
    every generator homogeneous, which sends Ideal.colon down its
    successive restriction route."""
    p = draw(st.sampled_from([2, 3]))
    nvars = draw(st.integers(2, 3))
    ring = ring_of(p, "xyz"[:nvars])
    homogeneous_only = draw(st.booleans())

    def poly():
        if homogeneous_only:
            return homogeneous(draw, ring, draw(st.integers(1, 2)), 3)
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * nvars).filter(any),
            st.integers(1, p - 1), min_size=1, max_size=3))
        return sum((ring.monomial(e, c) for e, c in terms.items()),
                   ring.zero())

    divisors = [poly() for _ in range(draw(st.integers(2, 3)))]
    outer = Ideal(ring, divisors).bracket_power(p).sum_with(
        Ideal(ring, [poly()]))
    return ring, outer, divisors


def parsed(ring, *texts):
    return [ring.parse(text) for text in texts]


# Successive restriction returns the quotients of the last meet without
# tail reduction, so its generators depend on which divisor comes last; on
# this case they differ unless the divisors are taken in a fixed order.
ORDER_CASE = ring_of(2)


@given(colon_by_several())
@example((ORDER_CASE, Ideal(ORDER_CASE, parsed(ORDER_CASE, "y^2",
                                               "x^2 + y^2", "y")),
          parsed(ORDER_CASE, "y", "x + y")))
@settings(max_examples=40)
def test_colon_does_not_depend_on_the_divisor_order(data):
    """Ideal.colon either intersects its single-divisor colons smallest
    first, whose result is a reduced basis, or restricts by the divisors in
    a fixed order; either way no order of the divisor's generators can
    change the generators returned. Each permutation runs under its own
    ceiling, and a draw is rejected when one reaches it."""
    ring, outer, divisors = data
    results = []
    try:
        for order in itertools.permutations(divisors):
            results.append(outer.colon(Ideal(ring, list(order)), ceiling())
                           .generators)
    except BudgetExceededError:
        reject()
    assert all(gens == results[0] for gens in results)
    for c in results[0]:
        for g in divisors:
            assert outer.contains(c * g)


@st.composite
def homogeneous_twist_colon(draw):
    """The divisors of a twist colon (I^[p] : I): 2 or 3 homogeneous
    generators of degree 2 or 3, each with 1 to 3 terms, in 3 or 4
    variables."""
    ring = ring_of(draw(st.sampled_from([2, 3])),
                   "xyzw"[:draw(st.integers(3, 4))])
    return ring, [homogeneous(draw, ring, draw(st.integers(2, 3)), 3)
                  for _ in range(draw(st.integers(2, 3)))]


# a ceiling on all the pairs of one colon, both routes' meets together
COLON_PAIRS = 200


@given(homogeneous_twist_colon())
@settings(max_examples=40)
def test_homogeneous_colon_matches_the_meets_of_single_divisor_colons(data):
    """Successive restriction gives the colon that the meets of
    single-divisor colons give, and its generators, the quotients of the
    last meet's reduced basis, are a minimal Groebner basis: their leading
    monomials are those of the oracle's reduced basis, each once."""
    ring, divisors = data
    outer = Ideal(ring, divisors).bracket_power(ring.p)
    try:
        colon = outer.colon(Ideal(ring, divisors),
                            Budget(max_pairs=COLON_PAIRS, max_degree=MAX_DEGREE))
    except BudgetExceededError:
        reject()
    expected = oracles.colon_by_meets(list(outer.generators), divisors, ring,
                                      COLON_PAIRS, MAX_DEGREE)
    if expected is None:
        reject()
    assert colon.groebner_basis() == expected
    def leads(polys):
        return sorted(next(iter(f))[0] for f in polys)

    assert leads(colon.generators) == leads(expected)


def test_lengths_and_membership_skip_tail_reduction(monkeypatch):
    ring = ring_of(5, "xyz")
    gens = [ring.parse(text) for text in ("x*y - z^2", "x^5", "y^5", "z^5")]
    leads = [next(iter(g))[0] for g in groebner(gens)]
    calls = []
    reduce_basis = engine._reduce_basis

    def counting(basis, *rest):
        calls.append(len(basis))
        return reduce_basis(basis, *rest)

    monkeypatch.setattr(engine, "_reduce_basis", counting)
    assert Ideal(ring, gens).colength() == peeling_colength(leads)
    assert Ideal(ring, gens[:1]).dimension() == 2
    assert Ideal(ring, gens).contains(ring.parse("x^2*y^2 - x*y*z^2"))
    assert not Ideal(ring, gens).contains(ring.parse("z^4"))
    assert calls == []


def test_colon_of_monomial_ideal():
    ring = ring_of(5)
    ideal = Ideal(ring, [ring.parse("x^3"), ring.parse("y^2")])
    colon = ideal.colon(Ideal(ring, [ring.parse("x^2*y")]))
    expected = Ideal(ring, [ring.parse("x"), ring.parse("y")])
    budget = Budget()
    assert colon.groebner_basis(budget) == expected.groebner_basis(budget)


def test_unit_and_zero_ideals():
    ring = ring_of(5)
    unit = Ideal(ring, [ring.parse("x"), ring.parse("x + 1")])
    assert unit.groebner_basis() == [ring.one()]
    assert Ideal(ring, [ring.parse("x")]).groebner_basis() != [ring.one()]
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


class PollCounter(Budget):
    """A budget that counts its deadline polls."""

    def __init__(self):
        super().__init__()
        self.polls = 0

    def check_deadline(self):
        self.polls += 1
        super().check_deadline()


def test_div_exact_polls_the_deadline():
    ring = ring_of(5, "xyz")
    g = ring.parse("x*y - z^2")
    quotient = ring.parse("(x + y + z + 1)^12")
    assert len(quotient.terms) == 100
    f = quotient * g
    with pytest.raises(BudgetExceededError):
        div_exact(f, g, Budget(deadline_seconds=0))
    assert div_exact(f, g) == quotient
    # one poll every 64 quotient terms
    big = ring.parse("(x + y + z + 1)^13")
    assert len(big.terms) == 200
    counter = PollCounter()
    assert div_exact(big * g, g, counter) == big
    assert counter.polls == 3


def test_normal_form_polls_the_deadline():
    ring = ring_of(5)
    f = ring.parse("x^200")
    basis = [ring.parse("x - y")]
    # x^200 -> x^199*y -> ... -> y^200 takes 200 head reductions.
    with pytest.raises(BudgetExceededError):
        normal_form(f, basis, Budget(deadline_seconds=0))
    assert normal_form(f, basis) == ring.parse("y^200")


@st.composite
def division_data(draw):
    p = draw(primes)
    nvars = draw(st.integers(1, 3))
    ring = ring_of(p, "xyz"[:nvars])

    def poly(min_size):
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * nvars),
            st.integers(1, p - 1), min_size=min_size, max_size=5))
        return sum((ring.monomial(e, c) for e, c in terms.items()), ring.zero())

    return ring, poly(0), poly(1), poly(1)


@given(division_data())
@settings(max_examples=80)
def test_div_exact_inverts_multiplication(data):
    ring, f, g, noise = data
    assert div_exact(f * g, g) == f
    # r keeps the terms of noise that lm(g) does not divide, so lm(r) is
    # not a multiple of lm(g), g cannot divide r, and so not f*g + r
    lm_g = next(iter(g))[0]
    r = ring.zero()
    for exps, c in noise:
        if not all(a <= b for a, b in zip(lm_g, exps)):
            r = r + ring.monomial(exps, c)
    assume(not r.is_zero())
    with pytest.raises(PreconditionError,
                       match="^exact division failed: remainder is nonzero$"):
        div_exact(f * g + r, g)


@st.composite
def leading_monomial_sequence(draw):
    nvars = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, 3)] * nvars)
    pool = draw(st.lists(vector, min_size=1, max_size=6))
    # drawing from a small pool repeats leading monomials; unit vectors on
    # distinct axes are coprime to each other
    axes = [tuple(int(i == k) * draw(st.integers(1, 3)) for i in range(nvars))
            for k in range(nvars)]
    return draw(st.lists(st.sampled_from(pool + axes), min_size=1,
                         max_size=14))


@given(leading_monomial_sequence())
@settings(max_examples=150)
def test_update_matches_the_pairwise_filter(sequence):
    key = grevlex_key
    basis, pairs, seq = [], [], [0]
    old_basis, old_pairs, old_seq = [], [], 0
    # each packed term list h fed to _update has a tuple twin fed to the
    # oracle; holding both keeps every id below unique
    twin = {}
    for exps in sequence:
        h = [(pack(key(exps)), pack(exps), 1)]
        twin[id(h)] = [(key(exps), exps, 1)]
        basis, pairs = _update(basis, pairs, (h, exps, sum(exps)), key, seq)
        old_basis, old_pairs, old_seq = pairwise_update(
            old_basis, old_pairs, twin[id(h)], old_seq)
        assert [id(twin[id(g)]) for g, _, _ in basis] == [
            id(g) for g in old_basis]
        assert all(lead == unpack(g[0][1], len(exps)) for g, lead, _ in basis)
        assert [(id(twin[id(pr.f[0])]), id(twin[id(pr.g[0])]), pr.lcm, pr.seq)
                for pr in pairs] == [(id(f), id(g), lcm, s)
                                     for f, g, lcm, s in old_pairs]
        assert all(pr.key == pack(key(pr.lcm)) for pr in pairs)
        # members of sugar equal to their degree give pairs the lcm's
        assert all(pr.rank == (sum(pr.lcm), pr.key, pr.seq) for pr in pairs)
        assert seq[0] == old_seq


def test_degree_budget_is_enforced():
    ring = ring_of(5)
    ideal = maximal_ideal(ring).bracket_power(5)
    with pytest.raises(BudgetExceededError):
        ideal.colength(budget=Budget(max_degree=2))


# (A, B, operation, generators of A operation B, pairs charged) over
# F_3[x, y]: I is homogeneous and N is not, so the colons take both routes.
# A zero ideal on either side, the colon by zero and the colon of the unit
# ideal charge no pair; (I : (1)) and (N : (x)) run their eliminations.
ZERO_AND_UNIT_CASES = [
    ("0", "I", "colon", [], 0),
    ("0", "N", "colon", [], 0),
    ("I", "0", "colon", ["1"], 0),
    ("I", "0", "intersection", [], 0),
    ("0", "I", "intersection", [], 0),
    ("I", "1", "colon", ["x^2", "x*y"], 3),
    ("N", "x", "colon", ["1"], 5),
    ("1", "I", "colon", ["1"], 0),
]


@pytest.mark.parametrize("a, b, operation, generators, pairs",
                         ZERO_AND_UNIT_CASES)
def test_zero_and_unit_cases_of_meets_and_colons(a, b, operation, generators,
                                                 pairs):
    ring = ring_of(3)
    texts = {"0": [], "1": ["1"], "x": ["x"], "I": ["x*y", "x^2"],
             "N": ["x*y + x", "y^2"]}

    def ideal(name):
        return Ideal(ring, parsed(ring, *texts[name]))

    budget = Budget()
    result = getattr(ideal(a), operation)(ideal(b), budget)
    assert result.generators == tuple(parsed(ring, *generators))
    assert budget.pairs == pairs
