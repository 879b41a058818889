from fractions import Fraction

from hypothesis import given, reject, settings
from hypothesis import strategies as st
import pytest

from kunz import diagonal, fsplit, localring
from kunz.engine import Budget, Ideal, maximal_ideal
from kunz.errors import BudgetExceededError, PreconditionError
from kunz.field import FieldConfig, frobenius_levels
from kunz.fsplit import fsplit_report, splitting_number, twist_levels
from kunz.localring import (LocalRingPresentation, bracket_colength,
                            closed_form, linear_parts, matrix_rank_mod_p,
                            regular_counter, translate_to_origin)
from kunz.poly import PolyRing, Polynomial
from kunz.scan import scan_points
from kunz.textio import SubvarietySpec
from oracles import jacobian_at_origin, krull_dimension


def test_from_texts_accepts_points_on_the_zero_set():
    pres = LocalRingPresentation.from_texts(
        5, ["x", "y"], ["y^2 - x^3"], point=(1, 1))
    assert pres.p == 5
    # after translation the origin is on the curve
    for g in pres.ideal.generators:
        assert g.constant_coefficient() == 0


def test_from_texts_rejects_points_off_the_zero_set():
    with pytest.raises(PreconditionError):
        LocalRingPresentation.from_texts(
            5, ["x", "y"], ["y^2 - x^3"], point=(1, 2))
    with pytest.raises(PreconditionError):
        LocalRingPresentation.from_texts(
            5, ["x", "y"], ["y^2 - x^3"], point=(1,))


def test_from_texts_rejects_generators_off_the_origin():
    with pytest.raises(PreconditionError, match="does not vanish at the origin"):
        LocalRingPresentation.from_texts(5, ["x", "y"], ["x + 1"])


def test_translation_matches_direct_shift():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    f = ring.parse("y^2 - x^3")
    shifted = translate_to_origin([f], (1, 1))
    assert shifted[0] == f.substitute_shift((1, 1))
    # the zero shift is the identity
    assert translate_to_origin([f], (0, 0)) == [f]


def test_smooth_point_localization_is_regular():
    # the cusp is smooth away from the origin, so lambda collapses to 1
    pres = LocalRingPresentation.from_texts(
        5, ["x", "y"], ["y^2 - x^3"], point=(1, 1))
    assert pres.lambda_value(1) == Fraction(1)
    assert pres.lambda_value(2) == Fraction(1)


def test_lambda_of_the_full_ring_is_one():
    pres = LocalRingPresentation.from_texts(3, ["x", "y", "z"], [])
    assert pres.dimension() == 3
    for e in (1, 2):
        assert pres.lambda_value(e) == Fraction(1)
        assert pres.sample(e).colength == 3 ** (3 * e)


def test_sample_of_the_cone(cone5):
    first = cone5.sample(1)
    assert first.colength == 37
    assert first.normalized == Fraction(37, 25)


def test_smoothness_report_flags_singular_origins(cone5):
    report = cone5.smoothness_report()
    assert report.dimension == 2
    assert report.codimension == 1
    assert report.jacobian_rank == 0
    assert not report.smooth


def test_smoothness_report_at_a_smooth_point():
    pres = LocalRingPresentation.from_texts(
        3, ["x", "y", "z"], ["x*y"], point=(1, 0, 0))
    report = pres.smoothness_report()
    assert report.jacobian_rank == 1
    assert report.smooth


@st.composite
def vanishing_generators(draw):
    """Up to three generators with no constant term in up to 3 variables,
    their exponents drawn from 0, 1, 2, p and p + 1, so x^p terms, whose
    derivative vanishes, occur."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    ring = PolyRing(FieldConfig(p), tuple("xyz"[:n]))
    exponent = st.sampled_from([0, 1, 2, p, p + 1])
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        terms = draw(st.dictionaries(st.tuples(*[exponent] * n),
                                     st.integers(0, 2 * p), max_size=6))
        terms.pop((0,) * n, None)
        gens.append(Polynomial(ring, terms))
    return ring, tuple(gens)


@st.composite
def hypersurfaces(draw):
    """A nonzero f with no constant term, in 1 to 3 variables over F_2, F_3
    or F_5, with one to three terms of degree 1 to 3."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    ring = PolyRing(FieldConfig(p), tuple("xyz"[:n]))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(
        lambda exps: 1 <= sum(exps) <= 3)
    return Polynomial(ring, draw(st.dictionaries(
        exponents, st.integers(1, p - 1), min_size=1, max_size=3)))


@given(hypersurfaces())
def test_a_hypersurface_has_dimension_n_minus_1(f):
    """Krull's principal ideal theorem, which LocalRingPresentation reads
    with no basis, against the engine's basis and the tuple kernel's."""
    ring = f.ring
    assert (LocalRingPresentation(ring, [f]).dimension()
            == Ideal(ring, [f]).dimension()
            == krull_dimension([f], ring)
            == ring.nvars - 1)


def test_a_presentation_builds_its_ideal_on_first_use():
    ring = PolyRing(FieldConfig(3), ("x", "y"))
    pres = LocalRingPresentation(ring, [ring.parse("x*y")])
    assert pres.dimension() == 1 and pres.sample(1).colength == 5
    assert pres._ideal is None
    assert pres.ideal.generators == pres.generators
    given = Ideal(ring, [ring.parse("x*y"), ring.parse("x^2")])
    assert LocalRingPresentation(ring, given.generators, given).ideal is given
    with pytest.raises(PreconditionError, match="other generators"):
        LocalRingPresentation(ring, [ring.parse("x*y")], given)


@given(vanishing_generators(), st.integers(1, 4))
def test_linear_parts_match_the_jacobian_at_the_origin(data, constant):
    ring, gens = data
    n, p = ring.nvars, ring.p
    assert linear_parts(ring, gens) == [jacobian_at_origin(dict(g), n, p)
                                        for g in gens]
    if gens and constant % p:
        moved = gens[:-1] + (gens[-1] + ring.constant(constant),)
        assert linear_parts(ring, moved) is None


def test_matrix_rank_mod_p():
    assert matrix_rank_mod_p([[1, 2], [2, 4]], 5) == 1
    assert matrix_rank_mod_p([[1, 2], [2, 4]], 3) == 1
    assert matrix_rank_mod_p([[1, 0], [0, 1]], 2) == 2
    assert matrix_rank_mod_p([], 5) == 0
    # rank can drop mod p even when the integer matrix is invertible
    assert matrix_rank_mod_p([[1, 1], [1, 3]], 2) == 1


# levels the engine confirms in a few seconds; Han's route takes them all
# and the higher ones
FERMAT_LEVELS = [(5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (11, 2), (13, 1),
                 (13, 2), (7, 3)]


def fermat_cubic_colength(p, e):
    pres = LocalRingPresentation.from_texts(
        p, ["x", "y", "z"], ["x^3 + y^3 + z^3"])
    return pres.sample(e).colength


@pytest.mark.parametrize("p, e", FERMAT_LEVELS + [(5, 4), (7, 4), (13, 3)])
def test_fermat_cubic_hilbert_kunz_function(p, e):
    # Buchweitz & Chen, J. Algebra 197 (1997): the Fermat cubic has
    # Hilbert-Kunz function (9q^2 - 5)/4 for p != 2, 3; at p = 2 the count
    # is 36 at q = 4, not 34.75
    q = p**e
    assert 4 * fermat_cubic_colength(p, e) == 9 * q**2 - 5


@pytest.mark.parametrize("p, e", FERMAT_LEVELS)
def test_fermat_cubic_hilbert_kunz_function_on_the_engine(p, e, engine_only):
    q = p**e
    assert 4 * fermat_cubic_colength(p, e) == 9 * q**2 - 5


def engine_colength(ring, generators, q, budget=None):
    m_bracket = maximal_ideal(ring).bracket_power(q)
    return Ideal(ring, list(generators)).sum_with(m_bracket).colength(budget)


@pytest.mark.parametrize("p, gens, q", [
    (5, ["x*y - z^2"], 25),  # Han's count
    (7, ["x^3 + y^3 + z^3"], 7),  # Han's count
    (3, ["x*y - z^2", "z*w - x^2"], 9),  # the engine
    (5, ["x^3 + y^3 + z^3 + x*y*z"], 5),  # the engine
    (3, ["0"], 9),  # no generator: the colength of m^[q] alone
    (5, ["x + y^2", "z - x*w"], 25),  # Kunz's count
])
def test_bracket_colength_matches_the_engine(p, gens, q):
    ring = PolyRing(FieldConfig(p), ("x", "y", "z", "w"))
    generators = tuple(ring.parse(g) for g in gens)
    assert (bracket_colength(ring, generators, q)
            == engine_colength(ring, generators, q))


@st.composite
def regular_point(draw):
    """r <= n generators vanishing at the origin whose linear parts are an
    echelon matrix of rank r, rows scaled by units, plus up to three terms
    of degree 2 or 3 each; and a level e <= 2."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    r = draw(st.integers(1, n))
    ring = PolyRing(FieldConfig(p), ("x", "y", "z")[:n])
    pivots = draw(st.permutations(range(n)))[:r]
    units = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
    higher = st.tuples(*[st.integers(0, 3)] * n).filter(
        lambda exps: 2 <= sum(exps) <= 3)
    gens = []
    for pivot in pivots:
        terms = draw(st.dictionaries(higher, st.integers(1, p - 1),
                                     max_size=3))
        for j in range(n):
            if j not in pivots:
                terms[units[j]] = draw(st.integers(0, p - 1))
        terms[units[pivot]] = 1
        scale = draw(st.integers(1, p - 1))
        gens.append(Polynomial(ring, terms).scale(scale))
    return ring, tuple(gens), draw(st.integers(1, 2))


# the engine and the twist colon at q = 25 have a long tail on drawn
# non-homogeneous ideals; a draw is rejected when they reach the ceilings
ORACLE_PAIRS = 400
ORACLE_SECONDS = 3


@given(regular_point())
@settings(max_examples=100)
def test_regular_route_matches_the_engine_and_the_twist_route(drawn):
    ring, gens, e = drawn
    q = ring.p**e
    expected = q ** (ring.nvars - len(gens))
    assert regular_counter(ring, gens)(q, Budget()) == (expected, expected)
    assert closed_form(ring, gens)(q, Budget()) == (expected, expected)
    assert bracket_colength(ring, gens, q) == expected
    pres = LocalRingPresentation(ring, gens)
    assert splitting_number(pres, e).colength == expected
    # the routes splitting_number takes with Han's and Kunz's counts off
    budget = Budget(max_pairs=ORACLE_PAIRS, deadline_seconds=ORACLE_SECONDS)
    try:
        engine = engine_colength(ring, gens, q, budget)
        *_, level = twist_levels(pres, frobenius_levels(ring.p, e), budget)
        twist = q**ring.nvars - engine_colength(ring, level, q, budget)
    except BudgetExceededError:
        reject()
    assert (engine, twist) == (expected, expected)


def fat_point_generators():
    # V(x^3 - 2x^2 + x, xy) over F_5 is the line x = 0 and a double point
    # at (1, 0), whose local ring is k[x]/(x^2)
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    gens = [ring.parse("x^3 - 2*x^2 + x"), ring.parse("x*y")]
    return ring, tuple(translate_to_origin(gens, (1, 0)))


def parsed(p, variables, texts):
    ring = PolyRing(FieldConfig(p), variables)
    return ring, tuple(ring.parse(t) for t in texts)


@pytest.mark.parametrize("ring, gens, q", [
    (*parsed(5, ("x", "y"), ["x + 1", "y"]), 5),  # a nonzero constant
    (*parsed(3, ("x", "y"), ["x", "0"]), 9),  # a zero generator
    (*parsed(3, ("x", "y", "z"), ["x + y^2", "2*x + z^2"]), 3),  # dependent
    (*fat_point_generators(), 5),  # no linear part in x^3 + x^2
    (*fat_point_generators(), 25),
], ids=["constant", "zero", "dependent", "fat_point_q5", "fat_point_q25"])
def test_irregular_generators_fall_through_to_the_engine(ring, gens, q):
    assert closed_form(ring, gens) is None
    assert bracket_colength(ring, gens, q) == engine_colength(ring, gens, q)


def fsig_twisted_cubic():
    pres = LocalRingPresentation.from_texts(
        3, ["x", "y", "z", "w"], ["x*z - y^2", "x*w - y*z", "y*w - z^2"])
    fsplit_report(pres, 3)


def scan_node():
    sub = SubvarietySpec(("x", "y"), ((0, 0, 0), (0, 0, 1)), ("z",))
    scan_points(3, ("x", "y", "z"), ["x*y"], e_max=2, subvarieties=(sub,))


@pytest.mark.parametrize("job", [fsig_twisted_cubic, scan_node])
def test_each_ring_is_recognized_once(job, monkeypatch):
    """diagonal_degrees runs once when a presentation is built and once for
    each twist level handed to bracket_colength, never once per level q."""
    calls = {"recognized": 0, "presentations": 0, "levels": 0}

    def counting(key, function):
        def counted(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return counted

    recognize = counting("recognized", diagonal.diagonal_degrees)
    for module in (diagonal, localring):
        monkeypatch.setattr(module, "diagonal_degrees", recognize)
    monkeypatch.setattr(LocalRingPresentation, "__init__", counting(
        "presentations", LocalRingPresentation.__init__))
    monkeypatch.setattr(fsplit, "bracket_colength", counting(
        "levels", fsplit.bracket_colength))
    job()
    assert calls["presentations"] > 0
    assert calls["recognized"] <= calls["presentations"] + calls["levels"]
