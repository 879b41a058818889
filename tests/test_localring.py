from fractions import Fraction

import pytest

from kunz.engine import Ideal, maximal_ideal
from kunz.errors import PreconditionError
from kunz.field import FieldConfig
from kunz.localring import (LocalRingPresentation, bracket_colength,
                            matrix_rank_mod_p, translate_to_origin)
from kunz.poly import PolyRing


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


def test_sample_is_cached(cone5):
    first = cone5.sample(1)
    assert cone5.sample(1) is first
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


def test_jacobian_matrix_shape(node3):
    rows = node3.jacobian_matrix()
    assert len(rows) == 1 and len(rows[0]) == 2
    assert node3.jacobian_rank_at_origin() == 0


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


@pytest.mark.parametrize("p, gens, q", [
    (5, ["x*y - z^2"], 25),  # Han's count
    (7, ["x^3 + y^3 + z^3"], 7),  # Han's count
    (3, ["x*y - z^2", "z*w - x^2"], 9),  # the engine
    (5, ["x^3 + y^3 + z^3 + x*y*z"], 5),  # the engine
    (3, ["0"], 9),  # no generator: the colength of m^[q] alone
])
def test_bracket_colength_matches_the_engine(p, gens, q):
    ring = PolyRing(FieldConfig(p), ("x", "y", "z", "w"))
    generators = tuple(ring.parse(g) for g in gens)
    m_bracket = maximal_ideal(ring).bracket_power(q)
    total = Ideal(ring, list(generators)).sum_with(m_bracket)
    assert bracket_colength(ring, generators, q) == total.colength()
