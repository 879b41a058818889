import re
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
import pytest

from kunz.engine import Budget
from kunz.errors import BudgetExceededError, PreconditionError
from kunz.field import FieldConfig
from kunz.localring import LocalRingPresentation
from kunz.poly import PolyRing
from kunz.scan import (PointRecord, ScanVerdicts, SubvarietyRecord,
                       WitnessValues, enumerate_points, generic_value,
                       scan_points, semicontinuity_verdict)
from kunz.textio import SubvarietySpec
from oracles import all_pairs_verdict, factorized_generic_value


def ring3():
    return PolyRing(FieldConfig(3), ("x", "y", "z"))


def test_enumerate_points_counts_the_zero_set():
    ring = ring3()
    points = enumerate_points(ring, [ring.parse("x*y")])
    # the surface xy = 0 is two planes sharing a line: 2*9 - 3 points
    assert len(points) == 15
    assert all(p[0] * p[1] % 3 == 0 for p in points)
    everything = enumerate_points(ring, [])
    assert len(everything) == 27


def test_enumeration_polls_the_deadline():
    """p^2 = 10^12 candidates for p = 1000003; a spent deadline stops the
    scan at the enumeration's first check."""
    with pytest.raises(BudgetExceededError, match="deadline"):
        scan_points(1000003, ("x", "y"), ["x"],
                    budget=Budget(deadline_seconds=0))


def test_enumeration_is_capped():
    ring = PolyRing(FieldConfig(2), ("a", "b", "c", "d", "e"))
    with pytest.raises(PreconditionError):
        enumerate_points(ring, [])


def test_generic_value_factorizes_the_node_line():
    ring = ring3()
    ideal = [ring.parse("x*y")]
    sub = [ring.parse("x"), ring.parse("y")]
    params = [ring.parse("z")]
    for witness in [(0, 0, 0), (0, 0, 2)]:
        assert generic_value(ring, ideal, sub, witness, params, 1) == \
            Fraction(5, 3)
        assert generic_value(ring, ideal, sub, witness, params, 2) == \
            Fraction(17, 9)


def test_generic_value_matches_the_two_variable_model():
    # the generic point of the singular line sees exactly the plane node
    ring = ring3()
    node = LocalRingPresentation.from_texts(3, ["x", "y"], ["x*y"])
    value = generic_value(ring3(), [ring.parse("x*y")],
                          [ring.parse("x"), ring.parse("y")],
                          (0, 0, 1), [ring.parse("z")], 1)
    assert value == node.lambda_value(1)


def test_generic_value_rejects_bad_witnesses():
    ring = ring3()
    ideal = [ring.parse("x*y")]
    sub = [ring.parse("x"), ring.parse("y")]
    params = [ring.parse("z")]
    with pytest.raises(PreconditionError):
        generic_value(ring, ideal, sub, (1, 0, 0), params, 1)  # off the line
    with pytest.raises(PreconditionError):
        # the subvariety must contain the zero set cut by the ideal
        generic_value(ring, ideal, [ring.parse("z")], (0, 0, 0),
                      [ring.parse("x")], 1)
    with pytest.raises(PreconditionError):
        # the parameter count must match the subvariety dimension
        generic_value(ring, ideal, sub, (0, 0, 0),
                      [ring.parse("z"), ring.parse("y")], 1)


def test_generic_value_rejects_singular_witnesses():
    # the whole surface as its own subvariety is singular at the origin
    ring = ring3()
    with pytest.raises(PreconditionError):
        generic_value(ring, [ring.parse("x*y")], [ring.parse("x*y")],
                      (0, 0, 0), [ring.parse("y + x"), ring.parse("z")], 1)


# (p, variables, ideal, subvariety, parameters, witnesses), each witness
# accepted: the node line, the cusp cylinder, the z-axis of xyz, a plane
# through the vertex of xy - zw, a ruling of the twisted cubic cone, and
# the line and the plane of (xy, xz), each at a singular and another point
GENERIC_CASES = [
    (3, "xyz", ["x*y"], ["x", "y"], ["z"], [(0, 0, 0), (0, 0, 2)]),
    (3, "xyz", ["y^2 - x^3"], ["x", "y"], ["z"], [(0, 0, 0), (0, 0, 1)]),
    (2, "xyz", ["x*y*z"], ["x", "y"], ["z"], [(0, 0, 1), (0, 0, 0)]),
    (3, "xyzw", ["x*y - z*w"], ["x", "z"], ["y", "w"],
     [(0, 1, 0, 0), (0, 0, 0, 0)]),
    (3, "xyzw", ["y^2 - x*z", "y*z - x*w", "z^2 - y*w"], ["y", "z", "w"],
     ["x"], [(1, 0, 0, 0), (0, 0, 0, 0)]),
    (3, "xyz", ["x*y", "x*z"], ["y", "z"], ["x"], [(1, 0, 0), (0, 0, 0)]),
    (3, "xyz", ["x*y", "x*z"], ["x"], ["y", "z"], [(0, 1, 0), (0, 0, 0)]),
]


@pytest.mark.parametrize(
    "p, names, ideal, sub, params, witnesses", GENERIC_CASES,
    ids=["node_line", "cusp_cylinder", "xyz_axis", "quadric_plane",
         "cubic_cone_ruling", "cross_line", "cross_plane"])
def test_generic_value_is_the_factorized_colength(p, names, ideal, sub,
                                                  params, witnesses):
    ring = PolyRing(FieldConfig(p), tuple(names))
    ideal, sub, params = ([ring.parse(t) for t in texts]
                          for texts in (ideal, sub, params))
    for witness in witnesses:
        for e in (1, 2, 3):
            assert generic_value(ring, ideal, sub, witness, params, e) == \
                factorized_generic_value(ideal, sub, params, witness, e), (
                    witness, e)


# a parameter that cuts the node line to a scheme of length 2, and one that
# leaves the whole line
@pytest.mark.parametrize("param, witness", [("z^2 + z", (0, 0, 0)),
                                            ("x", (0, 0, 1))],
                         ids=["length_2", "one_dimensional"])
def test_generic_value_rejects_a_cut_that_is_not_the_point(param, witness):
    ring = ring3()
    message = ("witness rejected: the parameters do not cut the subvariety "
               f"to its point at {witness}")
    with pytest.raises(PreconditionError, match=re.escape(message)):
        generic_value(ring, [ring.parse("x*y")],
                      [ring.parse("x"), ring.parse("y")], witness,
                      [ring.parse(param)], 1)


def test_scan_report_on_the_node_surface():
    report = scan_points(
        3, ("x", "y", "z"), ["x*y"], e_max=2,
        subvarieties=(SubvarietySpec(("x", "y"), ((0, 0, 0), (0, 0, 1)),
                                     ("z",)),))
    assert len(report.points) == 15
    by_point = {record.point: record for record in report.points}
    origin = by_point[(0, 0, 0)]
    assert origin.lambda_values == (Fraction(5, 3), Fraction(17, 9))
    assert origin.s_values == (Fraction(1, 3), Fraction(1, 9))
    assert not origin.smooth
    smooth_point = by_point[(1, 0, 0)]
    assert smooth_point.smooth
    assert smooth_point.lambda_values == (Fraction(1), Fraction(1))
    sub = report.subvarieties[0]
    assert sub.height == 1 and sub.parameter_count == 1
    assert sub.agreement
    assert len(sub.witness_values) == 2
    verdicts = report.verdicts
    assert verdicts.upper_semicontinuous_lambda
    assert verdicts.lower_semicontinuous_s
    assert verdicts.generic_constancy
    assert verdicts.violations == ()


def test_scan_accepts_explicit_points():
    report = scan_points(3, ("x", "y"), ["x*y"],
                         points=[(0, 0), (1, 0)], e_max=1)
    assert len(report.points) == 2
    assert report.points[0].lambda_values == (Fraction(5, 3),)
    assert report.points[1].lambda_values == (Fraction(1),)


def test_scan_rejects_points_off_the_zero_set():
    with pytest.raises(PreconditionError):
        scan_points(3, ("x", "y"), ["x*y"], points=[(1, 1)], e_max=1)


def test_subvariety_requires_witnesses():
    with pytest.raises(PreconditionError):
        SubvarietySpec(("x",), (), ("y",))


# hand-built records for semicontinuity_verdict's failure branches, over
# F_5[x, y] at e = 1: a smooth reference with lambda = s = 1, and a
# subvariety V(x) with its generic value taken at the witness (0, 1)
ONE = Fraction(1)
REFERENCE = PointRecord((1, 0), 1, True, (ONE,), (ONE,))
X_AXIS = PolyRing(FieldConfig(5), ("x", "y")).parse("x")


def special(lam, s):
    return PointRecord((0, 0), 1, False, (Fraction(lam),), (Fraction(s),))


def sub_record(*witness_values):
    values = [WitnessValues((0, 1 + i), (Fraction(v),))
              for i, v in enumerate(witness_values)]
    return SubvarietyRecord(("x",), 1, 1, tuple(values),
                            len(set(witness_values)) == 1)


@pytest.mark.parametrize("records, subs, verdicts", [
    ([REFERENCE, special("1/2", "1/2")], [],
     ScanVerdicts(False, True, True, (
         "lambda_1 drops from reference (1, 0) to (0, 0)",))),
    ([REFERENCE, special(2, "3/2")], [],
     ScanVerdicts(True, False, True, (
         "s_1 rises from reference (1, 0) to (0, 0)",))),
    ([special("3/2", "1/2")], [sub_record(2)],
     ScanVerdicts(False, True, True, (
         "lambda_1 at (0, 0) is below the generic value of ('x',)",))),
    ([], [sub_record(2, 3)],
     ScanVerdicts(True, True, False, (
         "generic values along ('x',) disagree across witnesses: some "
         "witness lies outside the constructible neighborhood",))),
], ids=["lambda_drops", "s_rises", "below_generic", "witnesses_disagree"])
def test_semicontinuity_verdict_lists_each_violation(records, subs,
                                                     verdicts):
    assert semicontinuity_verdict(
        (1,), records, subs, [[X_AXIS]] * len(subs)) == verdicts


# few values, so that ties between points are common
VALUES = st.sampled_from([Fraction(n, 4) for n in range(5)])
SUBVARIETY_TEXTS = ["x", "y", "x - y", "x*y - 1"]


@st.composite
def verdict_inputs(draw):
    """semicontinuity_verdict's arguments over F_5[x, y]: distinct points,
    each smooth or not, with drawn values at one to three e, and up to two
    subvarieties, each with one or two witnesses."""
    e_values = tuple(range(1, draw(st.integers(1, 3)) + 1))
    values = st.tuples(*[VALUES] * len(e_values))
    points = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           unique=True, max_size=8))
    records = [PointRecord(point, 1, draw(st.booleans()), draw(values),
                           draw(values)) for point in points]
    texts = draw(st.lists(st.sampled_from(SUBVARIETY_TEXTS), max_size=2))
    subs = []
    for text in texts:
        witness_values = tuple(WitnessValues((0, i), draw(values))
                               for i in range(draw(st.integers(1, 2))))
        agreement = len({wv.values for wv in witness_values}) == 1
        subs.append(SubvarietyRecord((text,), 1, 1, witness_values,
                                     agreement))
    ring = X_AXIS.ring
    return e_values, records, subs, [[ring.parse(t)] for t in texts]


@given(verdict_inputs())
def test_semicontinuity_verdict_is_the_all_pairs_verdict(inputs):
    assert semicontinuity_verdict(*inputs) == all_pairs_verdict(*inputs)


def test_a_spent_budget_stops_the_verdict():
    with pytest.raises(BudgetExceededError, match="deadline"):
        semicontinuity_verdict((1,), [REFERENCE, special(1, 1)], [], [],
                               Budget(deadline_seconds=0))
