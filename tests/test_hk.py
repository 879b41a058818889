import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from kunz import engine, hk
from kunz.diagonal import diagonal_degrees
from kunz.engine import Budget, Ideal, maximal_ideal
from kunz.errors import PreconditionError
from kunz.field import FieldConfig
from kunz.hk import (BoundConstants, PairBoundEntry, check_socle_condition,
                     empirical_gap_constant, hk_sequence,
                     relative_bracket_colength, verify_pair_bounds)
from kunz.localring import LocalRingPresentation
from kunz.poly import PolyRing
from lemmas import hypersurface_bound, verify_basic_lengths
from oracles import (cusp_colength, monomial_colength, node_lambda,
                     socle_by_colon)
from test_acceptance import hypersurface_draws, length_identity_draws

# -- frozen sequences --------------------------------------------------------


def test_cone_sequence_frozen_values(cone5):
    report = hk_sequence(cone5, 3)
    values = [s.normalized for s in report.samples]
    assert values == [Fraction(37, 25), Fraction(937, 625),
                      Fraction(23437, 15625)]
    assert report.empirical_C == Fraction(12, 125)
    assert report.dimension == 2
    # the cone has multiplicity 3/2; the tail interval must trap it
    assert report.interval.low <= Fraction(3, 2) <= report.interval.high


def test_node_sequence_frozen_values(node3):
    report = hk_sequence(node3, 3)
    values = [s.normalized for s in report.samples]
    assert values == [Fraction(5, 3), Fraction(17, 9), Fraction(53, 27)]
    assert report.empirical_C == Fraction(2, 3)
    assert report.interval.low == Fraction(52, 27)
    assert report.interval.high == Fraction(2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_node_matches_the_staircase_oracle(p):
    pres = LocalRingPresentation.from_texts(p, ["x", "y"], ["x*y"])
    for e in (1, 2, 3):
        assert pres.lambda_value(e) == node_lambda(p, e)


def test_cusp_is_constant_two(cusp5):
    for e in (1, 2, 3):
        sample = cusp5.sample(e)
        assert sample.colength == cusp_colength(5**e)
        assert sample.normalized == 2


def test_empirical_gap_constant_by_hand():
    values = [(1, Fraction(5, 3)), (2, Fraction(17, 9)), (3, Fraction(53, 27))]
    # gaps are 2/9 and 2/27, scaled by 3 and 9 give 2/3 both times
    assert empirical_gap_constant(3, values) == Fraction(2, 3)
    assert empirical_gap_constant(3, values[:1]) == 0


def test_reports_flag_truncated_lists():
    pres = LocalRingPresentation.from_texts(2, ["x"], [])
    report = hk_sequence(pres, 2)
    assert not report.truncated
    assert report.stabilization_index == 1  # constant from the start


# -- pair bounds -------------------------------------------------------------


def test_pair_bounds_on_the_cusp(cusp5):
    m = maximal_ideal(cusp5.ring)
    u = cusp5.ring.one()
    check = verify_pair_bounds(cusp5, m, u, 3, BoundConstants(m=2, Delta=9))
    assert len(check.entries) == 6
    assert check.all_passed
    first = check.entries[0]
    assert first.lhs == 0  # the cusp sequence is constant
    assert first.rhs == Fraction(18, 5)


def test_pair_bound_rejects_bad_exponents(cusp5):
    m = maximal_ideal(cusp5.ring)
    with pytest.raises(PreconditionError):
        verify_pair_bounds(cusp5, m, cusp5.ring.one(), 0,
                           BoundConstants(m=2, Delta=9))


def test_socle_condition_is_checked(cusp5):
    ring = cusp5.ring
    # (x) : 1 does not contain y; m : x is the unit ideal, not inside m
    for gens, u in ((["x"], "1"), (["x", "y"], "x")):
        inner = Ideal(ring, [ring.parse(g) for g in gens])
        with pytest.raises(PreconditionError):
            verify_pair_bounds(cusp5, inner, ring.parse(u), 2,
                               BoundConstants(m=2, Delta=9))


# (p, presentation ideal, inner ideal, u): (J : u) = m holds for the first
# three, for J = I + inner; u lies in J for the next two; u lies outside J
# but some x*u does too for the last three
SOCLE_CASES = [
    (5, ["y^2 - x^3"], ["x", "y"], "1"),
    (5, ["y^2 - x^3"], ["x^2", "y"], "x"),
    (3, ["x*y"], ["x + y"], "x"),
    (3, [], ["x^2", "y^3"], "x^2*y"),
    (3, [], ["x", "y"], "x + y"),
    (3, ["x*y"], ["x + y"], "1"),
    (3, [], ["x^2", "y^3"], "x*y"),
    (5, ["y^2 - x^3"], ["x"], "1"),
]


def socle_draws():
    """(presentation, inner, u): criterion 6's 50 draws, SOCLE_CASES, and
    40 seeded draws of inner = (x^a, y^b, g) for a random binomial g, with
    u a random monomial of the box plus, half the time, a second one."""
    for _, pres, inner, u in length_identity_draws():
        yield pres, inner, u
    for p, ideal, inner, u in SOCLE_CASES:
        pres = LocalRingPresentation.from_texts(p, ["x", "y"], ideal)
        ring = pres.ring
        yield pres, Ideal(ring, [ring.parse(g) for g in inner]), ring.parse(u)
    for trial in range(40):
        rng = random.Random(f"socle:{trial}")
        p = rng.choice([2, 3, 5])
        ring = PolyRing(FieldConfig(p), ("x", "y"))
        a, b = rng.randint(1, 4), rng.randint(1, 4)

        def monomial():
            return ring.monomial((rng.randrange(a), rng.randrange(b)),
                                 rng.randint(1, p - 1))

        g = monomial() + monomial()
        u = monomial() + (monomial() if rng.random() < 0.5 else ring.zero())
        if u.is_zero():
            u = monomial()
        inner = Ideal(ring, [ring.parse(f"x^{a}"), ring.parse(f"y^{b}"), g])
        yield LocalRingPresentation(ring, []), inner, u


def test_socle_condition_matches_the_colon_route():
    verdicts = []
    for pres, inner, u in socle_draws():
        try:
            check_socle_condition(pres, inner, u)
            held = True
        except PreconditionError:
            held = False
        generators = list(pres.ideal.generators + inner.generators)
        assert held == socle_by_colon(generators, u, pres.ring), (
            pres.ideal, inner, u)
        verdicts.append(held)
    assert verdicts.count(True) >= 50 + 3 and False in verdicts


def pair_by_pair(presentation, inner, u, e_max, constants):
    """The per-pair route: both levels of every pair computed afresh."""
    p = presentation.p
    d = presentation.dimension()
    entries = []
    for e in range(1, e_max + 1):
        for e_prime in range(e, e_max + 1):
            lengths = {}
            for ee in {e, e_prime}:
                q = p**ee
                lengths[ee] = Fraction(
                    relative_bracket_colength(presentation, inner, u, q),
                    q**d)
            entries.append(PairBoundEntry(
                e=e, e_prime=e_prime, lhs=abs(lengths[e] - lengths[e_prime]),
                rhs=constants.m * constants.Delta * Fraction(1, p**e)))
    return entries


@pytest.mark.parametrize("p, names, equation", [
    (5, "xy", "y^2 - x^3"), (3, "xy", "x*y"), (3, "xyz", "x*y - z^2")])
def test_pair_bounds_match_the_pair_by_pair_route(p, names, equation):
    pres = LocalRingPresentation.from_texts(p, list(names), [equation])
    m, one = maximal_ideal(pres.ring), pres.ring.one()
    constants = BoundConstants(m=2, Delta=9)
    check = verify_pair_bounds(pres, m, one, 4, constants)
    assert list(check.entries) == pair_by_pair(pres, m, one, 4, constants)


def test_pair_bounds_compute_each_level_once(cusp5, monkeypatch):
    levels = []

    def counting(presentation, inner, u, q, budget=None):
        levels.append(q)
        return relative_bracket_colength(presentation, inner, u, q, budget)

    monkeypatch.setattr(hk, "relative_bracket_colength", counting)
    verify_pair_bounds(cusp5, maximal_ideal(cusp5.ring), cusp5.ring.one(),
                       3, BoundConstants(m=2, Delta=9))
    assert levels == [5, 25, 125]


@pytest.mark.parametrize("inner, u", [(["x", "y"], "1"),
                                      (["x^2", "y^3"], "x*y^2")])
def test_socle_condition_charges_the_given_budget(monkeypatch, inner, u):
    ring = PolyRing(FieldConfig(3), ("x", "y"))
    pres = LocalRingPresentation(ring, [])
    budgets = []

    def recording(name):
        original = getattr(engine, name)

        def record(*args):
            budgets.append(args[-1])  # the budget comes last
            return original(*args)

        monkeypatch.setattr(engine, name, record)

    # every Buchberger run and every tail reduction goes through these two
    recording("_minimal_basis")
    recording("_reduce_basis")
    budget = Budget()
    check_socle_condition(pres, Ideal(ring, [ring.parse(g) for g in inner]),
                          ring.parse(u), budget)
    assert budgets and all(b is budget for b in budgets)


def test_relative_colength_against_the_staircase():
    # I = (x^2, y^3), u = x y^2: both bracket colengths are staircase counts
    ring = PolyRing(FieldConfig(3), ("x", "y"))
    pres = LocalRingPresentation(ring, [])
    inner = Ideal(ring, [ring.parse("x^2"), ring.parse("y^3")])
    u = ring.parse("x*y^2")
    for q in (3, 9):
        inner_q = [(2 * q, 0), (0, 3 * q)]
        outer_q = inner_q + [(q, 2 * q)]
        expected = monomial_colength(inner_q) - monomial_colength(outer_q)
        assert relative_bracket_colength(pres, inner, u, q) == expected


@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20)
def test_basic_length_identity_for_monomial_data(p, a, b):
    ring = PolyRing(FieldConfig(p), ("x", "y"))
    pres = LocalRingPresentation(ring, [])
    inner = Ideal(ring, [ring.parse(f"x^{a}"), ring.parse(f"y^{b}")])
    u = ring.monomial({0: a - 1, 1: b - 1}) if a + b > 2 else ring.one()
    check = verify_basic_lengths(pres, inner, u, p)
    assert check.passed


# -- hypersurface bound ------------------------------------------------------


def test_pure_power_attains_the_bound():
    ring = PolyRing(FieldConfig(5), ("x", "y", "z"))
    for n in (1, 2, 3):
        check = hypersurface_bound(ring.parse(f"x^{n}"), n, 1)
        assert check.colength == check.bound == n * 25


def test_generic_hypersurfaces_stay_below_the_bound():
    ring = PolyRing(FieldConfig(3), ("x", "y"))
    check = hypersurface_bound(ring.parse("y^2 - x^3"), 2, 2)
    assert check.passed
    assert check.colength == cusp_colength(9)


def test_hypersurface_bound_route_matches_the_engine():
    """hypersurface_bound takes Han's route on the pure powers and on 4 of
    the 25 draws of acceptance criterion 7 (6x, yz, 2y^2 and 3xy); the
    engine must agree on each."""
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    cases = [(f, n, e) for _, f, n, e in hypersurface_draws()]
    cases += [(ring.parse(f"x^{n}"), n, e) for n in (1, 2, 3, 4)
              for e in (1, 2)]
    routed = 0
    for f, n, e in cases:
        if diagonal_degrees((f,)) is None:
            continue
        routed += 1
        q = f.ring.p**e
        m_bracket = maximal_ideal(f.ring).bracket_power(q)
        engine = Ideal(f.ring, [f]).sum_with(m_bracket).colength()
        assert hypersurface_bound(f, n, e).colength == engine, (str(f), e)
    assert routed == 12


def test_hypersurface_bound_preconditions():
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    with pytest.raises(PreconditionError):
        hypersurface_bound(ring.zero(), 1, 1)
    with pytest.raises(PreconditionError):
        hypersurface_bound(ring.parse("x^3"), 2, 1)  # vanishes to order 3 > 2
    unit_check = hypersurface_bound(ring.parse("1 + x"), 0, 1)
    assert unit_check.colength == 0 and unit_check.bound == 0
