from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from kunz.engine import Ideal, maximal_ideal
from kunz.errors import PreconditionError
from kunz.field import FieldConfig
from kunz.fsplit import (fedder_test, fpurity_exponent, fsplit_report,
                         splitting_number)
from kunz.localring import LocalRingPresentation
from kunz.poly import PolyRing
from oracles import node_splitting


def present(p, variables, gens, point=None):
    return LocalRingPresentation.from_texts(p, variables, gens, point)


def two_colon_colength(presentation, e):
    """colength((m^[q] : (I^[q] : I)) + I), the splitting ideal route.

    This is the definition the duality route in `splitting_number` replaces;
    it takes two colons and a sum with I.
    """
    q = presentation.p ** e
    ideal = presentation.ideal
    twist = ideal.bracket_power(q).colon(ideal)
    m_bracket = maximal_ideal(presentation.ring).bracket_power(q)
    return m_bracket.colon(twist).sum_with(ideal).colength()


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


def test_fsplit_report_takes_one_twist_colon_per_level(monkeypatch):
    calls = []
    colon = Ideal.colon

    def counted(self, other, *args, **kwargs):
        calls.append(other)
        return colon(self, other, *args, **kwargs)

    monkeypatch.setattr(Ideal, "colon", counted)
    fsplit_report(present(3, ["x", "y"], ["x*y"]), 2)
    assert len(calls) == 2


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
FERMAT_SPLITTING = [(7, 3, 1), (13, 2, 1), (5, 2, 0), (11, 2, 0)]


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
