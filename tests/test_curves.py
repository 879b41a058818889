import math

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import kunz.curves
from kunz.curves import (MAX_DOUBLINGS, Branch, BranchCurve, _series_row,
                         _trace_block, branch_piece_membership,
                         default_precision, discriminant_valuation,
                         extension_degree, generator_bound_check,
                         piece_generators, realize_curve, root_closure_check,
                         semigroup_conductor, semigroup_membership,
                         split_reduction_check, tame_invariants, tame_report,
                         tame_trial_valuation)
from kunz.errors import PrecisionLossError, PreconditionError
from kunz.field import RowSpace
from kunz.series import TruncatedSeries, determinant_valuation
from oracles import semigroup_conductor_brute, semigroup_elements

CUSP = Branch((2, 3))
SMOOTH = Branch((1,))


def cusp_curve(p=5):
    return BranchCurve(p, (CUSP,))


def node_curve(p=5):
    return BranchCurve(p, (Branch((1,), cross_valuations=(1,)),
                           Branch((1,), cross_valuations=(1,))))


# -- branch and semigroup data -----------------------------------------------


def test_branch_normalizes_and_validates():
    branch = Branch((3, 2, 3))
    assert branch.semigroup_generators == (2, 3)
    assert branch.conductor == 2
    with pytest.raises(PreconditionError):
        Branch((2, 4))  # gcd 2
    with pytest.raises(PreconditionError):
        Branch(())
    with pytest.raises(PreconditionError):
        Branch((2, 3), cross_valuations=(0,))


def test_declared_conductor_is_checked():
    assert Branch((6, 10, 15), conductor=30).conductor == 30
    with pytest.raises(PreconditionError):
        Branch((6, 10, 15), conductor=29)


def test_conductor_known_values():
    assert semigroup_conductor((1,)) == 0
    assert semigroup_conductor((2, 3)) == 2
    assert semigroup_conductor((2, 5)) == 4
    assert semigroup_conductor((3, 4)) == 6
    assert semigroup_conductor((3, 5)) == 8
    assert semigroup_conductor((6, 10, 15)) == 30


@given(st.lists(st.integers(1, 12), min_size=1, max_size=3))
@settings(max_examples=80)
def test_conductor_matches_brute_force(raw):
    from math import gcd
    from functools import reduce
    if reduce(gcd, raw) != 1:
        raw.append(raw[-1] + 1)  # adjacent integers are coprime
    gens = tuple(sorted(set(raw)))
    assert semigroup_conductor(gens) == semigroup_conductor_brute(gens)


@given(st.sampled_from([(2, 3), (2, 5), (3, 4), (3, 5, 7)]), st.integers(5, 25))
def test_membership_sieve_matches_saturation(gens, bound):
    sieve = semigroup_membership(gens, bound)
    elements = semigroup_elements(gens, bound)
    assert [v in elements for v in range(bound)] == sieve


def test_curve_shape_validation():
    with pytest.raises(PreconditionError):
        BranchCurve(4, (CUSP,))  # characteristic must be prime
    with pytest.raises(PreconditionError):
        BranchCurve(5, ())
    with pytest.raises(PreconditionError):
        BranchCurve(5, (CUSP,) * 5)  # more branches than supported
    with pytest.raises(PreconditionError):
        BranchCurve(5, (CUSP, CUSP))  # multi-branch needs cross data
    with pytest.raises(PreconditionError):
        BranchCurve(5, (Branch((2, 3), cross_valuations=(1,)),))


# 151 * 751 * 28351, a strong pseudoprime to the bases 2, 3, 5 and 7, and
# above the field range [2, 2^31)
PSEUDOPRIME = 3215031751


def test_characteristic_must_lie_in_the_field_range():
    with pytest.raises(PreconditionError):
        BranchCurve(PSEUDOPRIME, (CUSP,))
    with pytest.raises(PreconditionError):
        BranchCurve(2147483659, (CUSP,))  # prime, but at least 2^31
    with pytest.raises(PreconditionError):
        tame_trial_valuation(PSEUDOPRIME, 2, 3)
    with pytest.raises(PreconditionError):
        split_reduction_check(PSEUDOPRIME)


# -- invariants ---------------------------------------------------------------


def test_invariants_of_the_cusp():
    inv = tame_invariants(cusp_curve(5))
    branch = inv.per_branch[0]
    assert (branch.gamma0, branch.beta, branch.gamma) == (2, 0, 2)
    assert inv.delta == 2
    assert inv.Delta == 9
    assert default_precision(cusp_curve(5)) == 20


def test_invariants_avoid_wild_gamma():
    # at p = 2 the candidate gamma = 2 is a multiple of p and must move up
    inv = tame_invariants(cusp_curve(2))
    assert inv.per_branch[0].gamma == 3
    assert inv.Delta == 16


def test_invariants_of_node_and_smooth_curves():
    inv = tame_invariants(node_curve(5))
    for branch in inv.per_branch:
        assert (branch.gamma0, branch.beta, branch.gamma) == (0, 1, 1)
    assert inv.delta == 2 and inv.Delta == 8
    smooth = tame_invariants(BranchCurve(5, (SMOOTH,)))
    assert smooth.delta == 1 and smooth.Delta == 4


def test_piece_generator_count_equals_gamma():
    # the piece needs exactly gamma generators over the shift action
    for gens, p in [((2, 3), 5), ((2, 5), 3), ((1,), 5), ((3, 4), 5)]:
        curve = BranchCurve(p, (Branch(gens),))
        gamma = tame_invariants(curve).per_branch[0].gamma
        found = piece_generators(curve, 0, gamma, bound=4 * gamma + 8)
        assert len(found) == gamma


def test_branch_piece_of_a_node_includes_the_cross():
    curve = node_curve(5)
    member = branch_piece_membership(curve, 0, 6)
    assert member == [False, True, True, True, True, True]


# -- realizations -------------------------------------------------------------


def test_discriminant_valuations_frozen():
    assert discriminant_valuation(cusp_curve(5)) == 9
    assert discriminant_valuation(cusp_curve(2)) == 16
    assert discriminant_valuation(node_curve(5)) == 8
    assert discriminant_valuation(BranchCurve(5, (SMOOTH,))) == 4


def test_discriminant_is_unit_independent():
    # different seeds draw different units; the valuation must not move
    values = {discriminant_valuation(cusp_curve(5), seed=s) for s in range(4)}
    assert values == {9}


def test_explicit_precision_must_cover_the_default():
    with pytest.raises(PreconditionError):
        discriminant_valuation(cusp_curve(5), precision=6)


def test_degree_and_generator_counts():
    assert extension_degree(cusp_curve(5)) == 2
    # one generator per sheet: the piece of the node is t k[[t]] x t k[[t]]
    assert extension_degree(node_curve(5)) == 2
    assert extension_degree(BranchCurve(5, (SMOOTH,))) == 1


# -- the realized rank drop, kept as an oracle for extension_degree ----------


def realized_rank_drop(curve, branches, bound):
    """dim of (piece module)/(T * piece module) row-reduced at the bound.

    The piece module of branch b is spanned by s^v for v in the branch
    piece; T acts as s^gamma. Both spans are row-reduced on t-coefficient
    vectors and the difference of their ranks is returned.
    """
    width = len(branches) * bound
    full = RowSpace(curve.p)
    shifted = RowSpace(curve.p)
    drop = 0
    for b_index, br in enumerate(branches):
        member = branch_piece_membership(curve, b_index, bound)
        offset = b_index * bound
        s_power = TruncatedSeries.one(curve.p).truncate(bound)
        for v in range(bound):
            if member[v]:
                row = _series_row(s_power, offset, width, bound)
                drop += full.add(row)
                if v >= br.gamma and member[v - br.gamma]:
                    drop -= shifted.add(row)
            s_power = (s_power * br.s).truncate(bound)
    return drop


def rank_threshold(curve):
    """Largest c_P + gamma over the branches, c_P the piece conductor."""
    threshold = 0
    for b_index, binv in enumerate(tame_invariants(curve).per_branch):
        # c_P <= gamma, so the membership up to 2 gamma + 2 shows it
        member = branch_piece_membership(curve, b_index, 2 * binv.gamma + 2)
        c_piece = max(v + 1 for v, inside in enumerate(member) if not inside)
        assert c_piece <= binv.gamma
        threshold = max(threshold, c_piece + binv.gamma)
    return threshold


def assert_oracle_agrees(curve, seed):
    """The realized rank drop is delta from the threshold on, and below it
    never more than delta."""
    delta = extension_degree(curve)
    assert delta == tame_invariants(curve).delta
    threshold = rank_threshold(curve)
    top = threshold + 8
    branches = realize_curve(curve, top, seed)
    for bound in range(1, top + 1):
        drop = realized_rank_drop(curve, branches, bound)
        if bound >= threshold:
            assert drop == delta, (bound, drop)
        else:
            assert drop <= delta, (bound, drop)


BENCH_CURVES = [
    BranchCurve(11, (Branch((4, 5)),)),
    BranchCurve(13, (Branch((3, 5)),)),
    cusp_curve(5),
    BranchCurve(7, (Branch((2, 3), cross_valuations=(4,)),
                    Branch((2, 3), cross_valuations=(4,)))),
]


@pytest.mark.parametrize("curve", BENCH_CURVES)
def test_realized_rank_drop_reaches_delta(curve):
    assert_oracle_agrees(curve, seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(("curve", "Delta"),
                         list(zip(BENCH_CURVES, [169, 81, 9, 98])))
def test_discriminant_valuation_is_Delta_on_bench_curves(curve, Delta, seed):
    assert tame_invariants(curve).Delta == Delta
    assert discriminant_valuation(curve, seed=seed) == Delta


def test_realized_rank_drop_stalls_below_the_threshold():
    # the (4, 5) branch at p = 11: two adjacent truncations agree on 9 at
    # 16 and 17, where a rank drop certified by agreement would stop
    curve = BENCH_CURVES[0]
    branches = realize_curve(curve, 25)
    assert [realized_rank_drop(curve, branches, n)
            for n in (16, 17)] == [9, 9]
    assert rank_threshold(curve) == 24
    assert (realized_rank_drop(curve, branches, 24)
            == extension_degree(curve) == 12)


def _semigroup(raw):
    if math.gcd(*raw) != 1:
        raw = raw + [raw[-1] + 1]  # adjacent integers are coprime
    return tuple(sorted(set(raw)))


semigroups = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(
    _semigroup)
crosses = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)


@st.composite
def small_curves(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        return BranchCurve(p, (Branch(draw(semigroups)),))
    return BranchCurve(p, tuple(
        Branch(draw(semigroups), cross_valuations=draw(crosses))
        for _ in range(2)))


@given(small_curves(), st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_extension_degree_matches_the_realized_rank_drop(curve, seed):
    assert_oracle_agrees(curve, seed)


# -- the full trace matrix, kept as an oracle for discriminant_valuation ----


def trace_matrix(curve, branches):
    """Block-diagonal matrix of traces down to F_p[[T]].

    Block b has entries Tr(x^i * x^j) for the branch family x, ..., x^gamma;
    products across branches vanish identically, giving exact zero entries.
    """
    size = sum(br.gamma for br in branches)
    zero = TruncatedSeries.zero(curve.p)
    matrix = [[zero] * size for _ in range(size)]
    offset = 0
    for br in branches:
        block = _trace_block(br.basis_element, br.gamma)
        for i, row in enumerate(block):
            matrix[offset + i][offset:offset + br.gamma] = row
        offset += br.gamma
    return matrix


coprime_semigroups = st.lists(st.integers(1, 6), min_size=1, max_size=3).filter(
    lambda gens: math.gcd(*gens) == 1)


@st.composite
def tame_curves(draw):
    """1 to 3 branches, generators up to 6, cross valuations up to 4."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    count = draw(st.integers(1, 3))
    if count == 1:
        return BranchCurve(p, (Branch(draw(coprime_semigroups)),))
    return BranchCurve(p, tuple(
        Branch(draw(coprime_semigroups), cross_valuations=draw(crosses))
        for _ in range(count)))


@given(tame_curves(), st.integers(0, 9))
@settings(max_examples=15, deadline=None)
def test_discriminant_is_the_sum_of_the_block_valuations(curve, seed):
    """The per-branch sum equals the determinant valuation of the full
    block-diagonal matrix, at the same realization, and Delta."""
    branches = realize_curve(curve, default_precision(curve), seed)
    full = determinant_valuation(trace_matrix(curve, branches))
    Delta = tame_invariants(curve).Delta
    assert discriminant_valuation(curve, seed=seed) == full == Delta


@given(tame_curves(), st.integers(0, 9))
@settings(max_examples=15, deadline=None)
def test_parameter_valuations_are_the_gammas(curve, seed):
    """gamma lies in every branch piece; a precision of at most max gamma
    cannot keep t^gamma, and one more can, so a refused precision is retried
    at least past max gamma."""
    gammas = tuple(b.gamma for b in tame_invariants(curve).per_branch)
    for b, gamma in enumerate(gammas):
        assert branch_piece_membership(curve, b, gamma + 1)[gamma]
    with pytest.raises(PreconditionError, match="precision must be positive"):
        tame_report(curve, precision=0, seed=seed)
    for n in range(1, max(gammas) + 1):
        with pytest.raises(PrecisionLossError) as err:
            tame_report(curve, precision=n, seed=seed)
        required = max(2 * n, max(gammas) + 1)
        assert err.value.required == required
        assert str(err.value) == (
            f"valuation not certified below precision {n} "
            f"(retry with precision >= {required})")
    report = tame_report(curve, precision=max(gammas) + 1, seed=seed)
    assert report.parameter_valuations == gammas


@pytest.mark.parametrize("precision", [3, 6, 12])
def test_one_retry_at_the_required_precision_succeeds(precision):
    """Branch (5, 6) at p = 7 has gamma 20: doubling 3 would take three
    retries (6, 12, 24), and the advised precision passes at once."""
    curve = BranchCurve(7, (Branch((5, 6)),))
    with pytest.raises(PrecisionLossError) as err:
        tame_report(curve, precision=precision)
    assert err.value.required == max(2 * precision, 21)
    report = tame_report(curve, precision=err.value.required)
    assert report.parameter_valuations == (20,)
    assert report.precision == err.value.required


def test_generator_bound_check_fields():
    check = generator_bound_check(cusp_curve(5), 2)
    assert (check.count, check.delta, check.mu, check.bound) == (2, 2, 1, 2)
    assert check.passed
    assert not generator_bound_check(cusp_curve(5), 3).passed
    assert generator_bound_check(cusp_curve(5), 3, mu=2).bound == 4
    with pytest.raises(PreconditionError):
        generator_bound_check(cusp_curve(5), 2, mu=0)


def _record_precisions(monkeypatch):
    seen = []
    realize = kunz.curves.realize_curve

    def recording(curve, precision=None, seed=0):
        seen.append(precision)
        return realize(curve, precision, seed)

    monkeypatch.setattr(kunz.curves, "realize_curve", recording)
    return seen


def test_precision_doubles_on_precision_errors(monkeypatch):
    seen = _record_precisions(monkeypatch)
    determinant = kunz.curves.determinant_valuation
    failures = []

    def flaky(matrix):
        if len(failures) < 2:
            failures.append(1)
            raise PrecisionLossError("forced", required=0)
        return determinant(matrix)

    monkeypatch.setattr(kunz.curves, "determinant_valuation", flaky)
    n = default_precision(cusp_curve(5))
    assert discriminant_valuation(cusp_curve(5)) == 9
    assert seen == [n, 2 * n, 4 * n]


def test_precision_doublings_are_capped(monkeypatch):
    seen = _record_precisions(monkeypatch)

    def failing(matrix):
        raise PrecisionLossError("forced", required=0)

    monkeypatch.setattr(kunz.curves, "determinant_valuation", failing)
    n = default_precision(cusp_curve(5))
    with pytest.raises(PrecisionLossError) as err:
        discriminant_valuation(cusp_curve(5))
    assert err.value.required == n * 2 ** MAX_DOUBLINGS
    assert seen == [n * 2 ** k for k in range(MAX_DOUBLINGS)]


# -- randomized trials and closure checks --------------------------------------


def test_trial_valuation_known_case():
    # degree 2 with v(x) = 3: determinant valuation (2 + 1) * 3
    assert tame_trial_valuation(5, 2, 3) == 9
    assert tame_trial_valuation(7, 3, 4, seed=11) == 16


def test_trial_valuation_is_seed_independent():
    values = {tame_trial_valuation(5, 3, 2, seed=s) for s in range(5)}
    assert values == {8}


def test_trial_preconditions():
    with pytest.raises(PreconditionError):
        tame_trial_valuation(5, 5, 2)  # p divides the degree
    with pytest.raises(PreconditionError):
        tame_trial_valuation(5, 4, 2)  # gcd(v(x), degree) != 1


def test_root_closure_on_the_cusp():
    check = root_closure_check(cusp_curve(5))
    assert check.passed
    assert check.m == 1
    assert check.tested > 0


def test_root_closure_is_single_branch_only():
    with pytest.raises(PreconditionError):
        root_closure_check(node_curve(5))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_split_reduction_commutes(p):
    check = split_reduction_check(p)
    assert check.passed
    assert check.discriminant_reduction == check.reduced_discriminant


# -- the bundled report ---------------------------------------------------------


def test_tame_report_of_the_cusp():
    report = tame_report(cusp_curve(5))
    assert report.semigroups == ((0, 2, 3, 4),) or report.semigroups == ((2, 3),)
    inv = report.invariants
    assert (inv.per_branch[0].gamma0, inv.per_branch[0].beta,
            inv.per_branch[0].gamma) == (2, 0, 2)
    assert (inv.delta, inv.Delta) == (2, 9)
    assert report.discriminant_valuation == 9
    assert report.extension_degree == 2
    assert report.generator_count == 2
    assert report.generator_bound.passed


def test_tame_report_of_the_node():
    report = tame_report(node_curve(5))
    assert report.invariants.delta == 2
    assert report.invariants.Delta == 8
    assert report.discriminant_valuation == 8
    assert report.extension_degree == 2


def test_tame_report_realizes_the_curve_once(monkeypatch):
    seen = _record_precisions(monkeypatch)
    report = tame_report(cusp_curve(5))
    assert report.generator_count == report.extension_degree == 2
    # only the discriminant needs a realization
    assert seen == [default_precision(cusp_curve(5))]


def test_reports_are_deterministic_per_seed():
    a = tame_report(cusp_curve(5), seed=3)
    b = tame_report(cusp_curve(5), seed=3)
    assert a == b
