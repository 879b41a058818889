import traceback
from fractions import Fraction

from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
import pytest

from kunz.engine import Budget, Ideal, maximal_ideal
from kunz.errors import BudgetExceededError, PreconditionError
from kunz.field import FieldConfig
from kunz.fsplit import (_in_box, fedder_test, fpurity_exponent,
                         fsplit_report, is_complete_intersection,
                         splitting_number, twist_colon_ideal, twist_levels)
from kunz.localring import LocalRingPresentation
from kunz.poly import PolyRing, Polynomial
from oracles import box_colength, node_splitting


def present(p, variables, gens, point=None):
    return LocalRingPresentation.from_texts(p, variables, gens, point)


def two_colon_colength(presentation, e, budget=None):
    """colength((m^[q] : (I^[q] : I)) + I), the splitting ideal route.

    This is the definition the duality route in `splitting_number` replaces;
    it takes two colons and a sum with I.
    """
    q = presentation.p ** e
    ideal = presentation.ideal
    twist = ideal.bracket_power(q).colon(ideal, budget)
    m_bracket = maximal_ideal(presentation.ring).bracket_power(q)
    return m_bracket.colon(twist, budget).sum_with(ideal).colength(budget)


DUALITY_RINGS = {
    "regular": (3, ["x", "y"], [], None),
    "node": (3, ["x", "y"], ["x*y"], None),
    "cusp": (5, ["x", "y"], ["y^2 - x^3"], None),
    "cusp_at_1_1": (5, ["x", "y"], ["y^2 - x^3"], (1, 1)),
    "double_line": (2, ["x", "y"], ["x^2"], None),
    "cone": (5, ["x", "y", "z"], ["x*y - z^2"], None),
    "quadric": (3, ["x", "y", "z", "w"], ["x*y - z*w"], None),
    "complete_intersection": (3, ["x", "y", "z", "w"],
                              ["x*y - z^2", "z*w - x^2"], None),
    "twisted_cubic": (3, ["x", "y", "z", "w"],
                      ["x*z - y^2", "x*w - y*z", "y*w - z^2"], None),
    "coordinate_axes": (3, ["x", "y", "z"], ["x*y", "x*z", "y*z"], None),
}


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("name", sorted(DUALITY_RINGS))
def test_duality_route_matches_the_two_colon_route(name, e):
    pres = present(*DUALITY_RINGS[name])
    assert splitting_number(pres, e).colength == two_colon_colength(pres, e)


@st.composite
def principal_ideal(draw):
    p = draw(st.sampled_from([2, 3]))
    ring = PolyRing(FieldConfig(p), ("x", "y"))
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
        st.integers(1, p - 1), max_size=3))
    f = ring.zero()
    for exps, coeff in terms.items():
        f = f + ring.monomial(exps, coeff)
    return LocalRingPresentation(ring, Ideal(ring, [f]))


@given(principal_ideal(), st.sampled_from([1, 2]))
@settings(max_examples=30)
def test_duality_route_matches_on_principal_ideals(pres, e):
    assert splitting_number(pres, e).colength == two_colon_colength(pres, e)


def general_purity_exponent(presentation, c, e_cap, budget=None):
    """The purity exponent from the general colon (I^[q] : I), by
    membership of c times each of its basis elements in m^[q]."""
    ideal = presentation.ideal
    for e in range(1, e_cap + 1):
        q = presentation.p ** e
        colon = ideal.bracket_power(q).colon(ideal, budget)
        m_bracket = maximal_ideal(presentation.ring).bracket_power(q)
        if any(not m_bracket.contains(c * g, budget)
               for g in colon.groebner_basis(budget)):
            return e
    return None


@pytest.mark.parametrize("name", ["coordinate_axes", "twisted_cubic"])
def test_box_membership_matches_the_normal_form_route(name):
    """Neither ring is a complete intersection. m^[q] is a monomial ideal,
    so the box test on the colon's generators decides what the normal
    forms of c times its reduced basis against m^[q] decide."""
    pres = present(*DUALITY_RINGS[name])
    assert not is_complete_intersection(pres)
    for text in ["1", "x", "x*y", "y^2", "x^2*y^2*z^2"]:
        c = pres.ring.parse(text)
        assert (fpurity_exponent(pres, c, 2)
                == general_purity_exponent(pres, c, 2))
    m_bracket = maximal_ideal(pres.ring).bracket_power(pres.p)
    basis = twist_colon_ideal(pres, 1).groebner_basis()
    witness = next((g for g in basis if not m_bracket.contains(g)), None)
    assert fedder_test(pres).witness == witness


@st.composite
def complete_intersection_level(draw):
    """A principal ideal or two generators in 3 or 4 variables, with terms
    of degree 1 or 2, kept only when it is a complete intersection, and a
    level e.

    e is 1 or 2 for p = 2, 3, and 1 for p = 5: at q = 25 the general
    colons of the reference take from seconds to minutes.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([3, 4]))
    ring = PolyRing(FieldConfig(p), ("x", "y", "z", "w")[:n])
    exponents = st.tuples(*[st.integers(0, 2)] * n).filter(
        lambda exps: 1 <= sum(exps) <= 2)
    gens = []
    for _ in range(draw(st.sampled_from([1, 2]))):
        terms = draw(st.dictionaries(exponents, st.integers(1, p - 1),
                                     min_size=1, max_size=3))
        gens.append(Polynomial(ring, terms))
    pres = LocalRingPresentation(ring, Ideal(ring, gens))
    assume(is_complete_intersection(pres))
    e = draw(st.sampled_from([1] if p == 5 else [1, 2]))
    return pres, e


# The general colons of the reference have a long tail: most draws need
# under 250 pairs in a few milliseconds, and one took 1849 pairs and 37 s.
# So the reference runs under one pair ceiling, and a draw is rejected only
# when the reference reaches it (about 1 in 20 draws).
REFERENCE_PAIRS = 250


@given(complete_intersection_level(), st.data())
@settings(max_examples=25)
def test_fedder_route_matches_the_general_colon(drawn, data):
    pres, e = drawn
    c = Polynomial(pres.ring, data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * pres.ring.nvars),
        st.integers(1, pres.p - 1), min_size=1, max_size=2)))
    fedder = (splitting_number(pres, e).colength, fpurity_exponent(pres, c, e),
              twist_colon_ideal(pres, 1).groebner_basis())
    budget = Budget(max_pairs=REFERENCE_PAIRS)
    ideal = pres.ideal
    try:
        general = (two_colon_colength(pres, e, budget),
                   general_purity_exponent(pres, c, e, budget),
                   ideal.bracket_power(pres.p).colon(ideal, budget)
                   .groebner_basis(budget))
    except BudgetExceededError:
        reject()
    assert fedder == general


@st.composite
def general_route_ideal(draw):
    """Two or three generators in 2 or 3 variables, with terms of degree 1
    or 2, kept only when they are not a complete intersection, so that
    splitting_number takes the general colon."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([2, 3]))
    ring = PolyRing(FieldConfig(p), ("x", "y", "z")[:n])
    exponents = st.tuples(*[st.integers(0, 2)] * n).filter(
        lambda exps: 1 <= sum(exps) <= 2)
    gens = [Polynomial(ring, draw(st.dictionaries(
                exponents, st.integers(1, p - 1), min_size=1, max_size=3)))
            for _ in range(draw(st.sampled_from([2, 3])))]
    pres = LocalRingPresentation(ring, Ideal(ring, gens))
    assume(not is_complete_intersection(pres))
    return pres


@given(general_route_ideal())
@settings(max_examples=30)
def test_general_route_matches_the_macaulay_matrix(pres):
    """At e = 1 the splitting colength q^n - l(S/(J + m^[q])), J the twist
    colon, matches q^n minus the rank-based length of the box oracle."""
    budget = Budget(max_pairs=REFERENCE_PAIRS)
    try:
        sample = splitting_number(pres, 1, budget)
    except BudgetExceededError:
        reject()
    q, n = pres.p, pres.ring.nvars
    twist = twist_colon_ideal(pres, 1)
    assert sample.colength == q**n - box_colength(
        list(twist.generators), q, pres.p)


def test_twisted_cubic_levels_are_the_colon_generators():
    """Off the complete intersections a level is the general colon's
    generators; with m^[q] they give the pinned colengths 3, 27, 243."""
    pres = present(*DUALITY_RINGS["twisted_cubic"])
    levels = twist_levels(pres, 3)
    for e, (level, expected) in enumerate(zip(levels, [3, 27, 243]), start=1):
        q = 3**e
        assert level == twist_colon_ideal(pres, e).generators
        m_bracket = maximal_ideal(pres.ring).bracket_power(q)
        total = Ideal(pres.ring, list(level)).sum_with(m_bracket)
        assert q**4 - total.colength() == expected


def test_twisted_cubic_matches_the_macaulay_matrix():
    pres = present(*DUALITY_RINGS["twisted_cubic"])
    for e, expected in [(1, 3), (2, 27), (3, 243)]:
        q = 3**e
        twist = twist_colon_ideal(pres, e)
        assert q**4 - box_colength(list(twist.generators), q, 3) == expected
        assert splitting_number(pres, e).colength == expected


@pytest.mark.parametrize("p, variables, gens, expected", [
    (3, ["x", "y"], ["x*y"], True),
    (5, ["x", "y", "z"], ["x*y - z^2"], True),
    (3, ["x", "y", "z", "w"], ["x*y - z*w", "x*z - y*w"], True),
    (3, ["x", "y", "z"], ["x*y", "x*z"], False),
    (3, ["x", "y", "z", "w"], ["x*z - y^2", "x*w - y*z", "y*w - z^2"], False),
    (3, ["x", "y"], [], False),
])
def test_complete_intersections_are_detected(p, variables, gens, expected):
    """(xy, xz) has two generators but height 1, and the twisted cubic three
    generators but height 2, so both take the general colon."""
    assert is_complete_intersection(present(p, variables, gens)) == expected


def count_colons(monkeypatch):
    calls = []
    colon = Ideal.colon

    def counted(self, other, *args, **kwargs):
        calls.append(other)
        return colon(self, other, *args, **kwargs)

    monkeypatch.setattr(Ideal, "colon", counted)
    return calls


def test_fsplit_report_takes_one_twist_colon_per_level(monkeypatch):
    calls = count_colons(monkeypatch)
    fsplit_report(present(3, ["x", "y", "z"], ["x*y", "x*z", "y*z"]), 2)
    assert len(calls) == 2


def test_complete_intersections_take_no_colon(monkeypatch):
    calls = count_colons(monkeypatch)
    node = present(3, ["x", "y"], ["x*y"])
    fsplit_report(node, 2)
    assert fpurity_exponent(node, node.ring.one()) == 1
    assert calls == []


def test_box_power_polls_the_deadline():
    pres = present(3, ["x", "y", "z", "w"], ["x*y - z*w", "x*z - y*w"])
    pres.dimension()
    with pytest.raises(BudgetExceededError) as caught:
        splitting_number(pres, 2, Budget(deadline_seconds=0))
    frames = [frame.name for frame in traceback.extract_tb(caught.tb)]
    assert "twist_levels" in frames


def test_box_powers_are_truncated_powers():
    """h^(q-1) modulo m^[q] term by term, for h the product of the
    generators, against the power taken in S and then truncated."""
    pres = present(3, ["x", "y", "z", "w"], ["x*y - z^2", "z*w - x^2"])
    h = pres.ideal.generators[0] * pres.ideal.generators[1]
    for e, (box,) in enumerate(twist_levels(pres, 3), start=1):
        q = 3**e
        full = h ** (q - 1)
        assert dict(box) == {exps: c for exps, c in full if max(exps) < q}


@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.data())
def test_box_keeps_the_terms_below_q(p, n, data):
    """_in_box against the filter max(exps) < q, at exponents on both sides
    of q - 1."""
    q = p ** data.draw(st.integers(1, 3))
    ring = PolyRing(FieldConfig(p), tuple("xyz"[:n]))
    exponent = st.sampled_from([0, 1, q - 2, q - 1, q, q + 1, 3 * q])
    terms = data.draw(st.dictionaries(st.tuples(*[exponent] * n),
                                      st.integers(1, p - 1), max_size=8))
    f = Polynomial(ring, terms)
    budget = Budget()
    box = _in_box(f, q, budget)
    assert dict(box) == {e: c for e, c in f if max(e) < q}
    assert budget.max_degree_seen == max(box.total_degree(), 0)


def test_an_empty_box_yields_no_generator(cusp5):
    """(y^2 - x^3)^(q-1) has no term below q in both exponents, so the cusp
    is not F-pure at any level and every level is empty."""
    assert list(twist_levels(cusp5, 2)) == [(), ()]
    assert splitting_number(cusp5, 2).colength == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_node_splitting_numbers(p):
    pres = present(p, ["x", "y"], ["x*y"])
    for e in (1, 2, 3):
        assert splitting_number(pres, e).s == node_splitting(p, e)


def test_regular_rings_split_completely():
    for p, variables in [(2, ["x"]), (3, ["x", "y"]), (5, ["x", "y", "z"])]:
        pres = present(p, variables, [])
        for e in (1, 2):
            assert splitting_number(pres, e).s == 1


def test_cone_splitting_numbers(cone5):
    assert splitting_number(cone5, 1).s == Fraction(13, 25)
    assert splitting_number(cone5, 2).s == Fraction(313, 625)


def test_sample_fields_are_consistent(node3):
    sample = splitting_number(node3, 2)
    assert sample.e == 2 and sample.q == 9
    assert sample.s == Fraction(sample.colength, 9)
    assert 0 <= sample.s <= 1


def test_fedder_on_fermat_cubics():
    pure = fedder_test(present(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"]))
    assert pure.is_F_pure
    assert pure.witness is not None
    impure = fedder_test(present(5, ["x", "y", "z"], ["x^3 + y^3 + z^3"]))
    assert not impure.is_F_pure
    assert impure.witness is None
    assert "exhausted" in impure.detail or "basis" in impure.detail


# (p, top e, splitting colength): 1 where p = 1 mod 3, 0 where p = 2 mod 3
FERMAT_SPLITTING = [(7, 5, 1), (13, 3, 1), (5, 4, 0), (11, 3, 0)]


@pytest.mark.parametrize("p, e_top, expected", FERMAT_SPLITTING)
def test_fermat_cubic_splitting_colength(p, e_top, expected):
    """The splitting colength of f = x^3 + y^3 + z^3 is 0 or 1.

    With I = (f), (I^[q] : I) = (f^(q-1)), so the splitting colength
    q^3 - colength(m^[q] + (f^(q-1))) is the length of the submodule of
    S/m^[q] that f^(q-1) generates. f^(q-1) is homogeneous of degree
    3(q-1), the socle degree of S/m^[q], whose top degree is spanned by
    (xyz)^(q-1) alone and is killed by every variable. So the colength is 1
    exactly when the coefficient of (xyz)^(q-1) in f^(q-1) is nonzero, and
    0 otherwise. That is Fedder's criterion: the cubic is F-pure exactly
    when p = 1 mod 3, and then at every level e.
    """
    pres = present(p, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    for e in range(1, e_top + 1):
        assert splitting_number(pres, e).colength == expected


# splitting colength as a function of q, checked for 1 <= e <= top e; the
# limits q^-d * colength are s = 2/3, 1/2 and 1/3 (Watanabe-Yoshida,
# Huneke-Leuschke)
SPLITTING_CLOSED_FORMS = {
    "quadric": (3, ["x", "y", "z", "w"], ["x*y - z*w"], 4,
                lambda q: (2 * q**3 + q) // 3),
    "cone": (5, ["x", "y", "z"], ["x*y - z^2"], 3, lambda q: (q**2 + 1) // 2),
    "twisted_cubic": (3, ["x", "y", "z", "w"],
                      ["x*z - y^2", "x*w - y*z", "y*w - z^2"], 2,
                      lambda q: q**2 // 3),
}


@pytest.mark.parametrize("name", sorted(SPLITTING_CLOSED_FORMS))
def test_splitting_colength_closed_forms(name):
    p, variables, gens, e_top, closed_form = SPLITTING_CLOSED_FORMS[name]
    pres = present(p, variables, gens)
    for e in range(1, e_top + 1):
        assert splitting_number(pres, e).colength == closed_form(p**e)


@pytest.mark.parametrize("name", ["cone", "quadric"])
def test_splitting_colength_closed_forms_on_the_engine(name, engine_only):
    """The cone and the quadric take Han's route above; here the engine
    confirms the closed forms at e <= 3."""
    p, variables, gens, e_top, closed_form = SPLITTING_CLOSED_FORMS[name]
    pres = present(p, variables, gens)
    for e in range(1, min(e_top, 3) + 1):
        assert splitting_number(pres, e).colength == closed_form(p**e)


def test_fedder_on_non_reduced_rings():
    for p in (2, 3, 5):
        verdict = fedder_test(present(p, ["x", "y"], ["x^2"]))
        assert not verdict.is_F_pure


def test_fedder_agrees_with_positive_splitting():
    cases = [
        (7, ["x", "y", "z"], ["x^3 + y^3 + z^3"]),
        (5, ["x", "y", "z"], ["x^3 + y^3 + z^3"]),
        (3, ["x", "y"], ["x*y"]),
        (5, ["x", "y"], ["y^2 - x^3"]),
        (2, ["x", "y"], ["x^2"]),
        (5, ["x", "y", "z"], ["x*y - z^2"]),
    ]
    for p, variables, gens in cases:
        pres = present(p, variables, gens)
        verdict = fedder_test(pres)
        assert verdict.is_F_pure == (splitting_number(pres, 1).s > 0)


def test_purity_exponent_on_split_rings():
    node = present(3, ["x", "y"], ["x*y"])
    # a unit multiplier reduces to the plain Fedder membership at e = 1
    assert fpurity_exponent(node, node.ring.one()) == 1
    # x times the colon generator x^(q-1) y^(q-1) hits x^q at every level
    assert fpurity_exponent(node, node.ring.parse("x"), e_cap=3) is None
    deep = present(7, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    assert fpurity_exponent(deep, deep.ring.parse("x*y*z"), e_cap=2) is None


def test_purity_exponent_stays_none_on_impure_rings(cusp5):
    assert fpurity_exponent(cusp5, cusp5.ring.one(), e_cap=3) is None


def test_purity_exponent_rejects_bad_caps(node3):
    with pytest.raises(PreconditionError):
        fpurity_exponent(node3, node3.ring.one(), e_cap=0)


def test_fsplit_report_bundles_the_verdict(node3):
    report = fsplit_report(node3, 2)
    assert [s.s for s in report.samples] == [Fraction(1, 3), Fraction(1, 9)]
    assert report.verdict.is_F_pure
    assert report.interval.low <= 0 <= report.interval.high or \
        report.interval.low >= 0
