from hypothesis import given
from hypothesis import strategies as st
import pytest

from kunz.errors import PreconditionError, PrecisionLossError
from kunz.series import (TruncatedSeries, determinant_valuation, divide,
                         reseries, tame_trace, trace_in_parameter)
from oracles import naive_series_product

primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def series_pair(draw):
    p = draw(primes)
    prec = draw(st.integers(3, 12))

    def one_series():
        coeffs = draw(st.dictionaries(st.integers(0, prec - 1),
                                      st.integers(1, p - 1), max_size=6))
        return TruncatedSeries.make(p, coeffs, prec)

    return p, prec, one_series(), one_series()


@given(series_pair())
def test_product_matches_naive_convolution(data):
    p, prec, a, b = data
    result = a * b
    expected = naive_series_product(dict(a.coeffs), dict(b.coeffs), p,
                                    result.prec)
    for m in range(result.prec):
        assert result.coefficient(m) == expected.get(m, 0)


@given(series_pair())
def test_ring_axioms_to_shared_precision(data):
    p, prec, a, b = data
    assert (a + b) - b == a.truncate((a + b).prec)
    assert a * b == b * a
    one = TruncatedSeries.one(p)
    assert a * one == a


def test_precision_tracking_through_products():
    # multiplying by a series of valuation v extends the reliable window by v
    a = TruncatedSeries.make(5, {0: 1, 1: 2}, prec=4)
    b = TruncatedSeries.make(5, {2: 3}, prec=6)
    product = a * b
    assert product.prec == 6  # min(4 + 2, 6 + 0)
    assert product.coefficient(3) == 2 * 3 % 5
    assert product.coefficient(5) == 0  # certified zero inside the window
    with pytest.raises(PrecisionLossError):
        product.coefficient(6)


def test_exact_series_stay_exact():
    a = TruncatedSeries.make(5, {0: 1, 3: 4})
    assert a.is_exact()
    assert (a * a).is_exact()
    assert (a + a).prec is None


def test_valuation_certification():
    a = TruncatedSeries.make(5, {7: 2}, prec=9)
    assert a.valuation() == 7
    assert TruncatedSeries.zero(5).valuation() is None
    truncated_zero = TruncatedSeries.make(5, {}, prec=4)
    with pytest.raises(PrecisionLossError) as err:
        truncated_zero.valuation()
    assert err.value.required == 8


def test_shift_refuses_poles():
    a = TruncatedSeries.make(5, {2: 1}, prec=6)
    assert a.shift(-2).coefficient(0) == 1
    with pytest.raises(PreconditionError):
        a.shift(-3)


@given(series_pair())
def test_inverse_multiplies_to_one(data):
    p, prec, a, _ = data
    unit = a + TruncatedSeries.one(p) if a.coefficient(0) == 0 else a
    if unit.coefficient(0) == 0:  # a had constant term p - 1
        unit = a + a
        if unit.coefficient(0) == 0:
            return
    inv = unit.inverse()
    product = unit * inv
    for m in range(product.prec):
        assert product.coefficient(m) == (1 if m == 0 else 0)


@given(primes, st.integers(2, 6), st.integers(2, 10))
def test_kth_root_inverts_kth_power(p, k, prec):
    if k % p == 0:
        with pytest.raises(PreconditionError):
            TruncatedSeries.one(p).kth_root_of_unit(k, prec)
        return
    unit = TruncatedSeries.make(p, {0: 1, 1: 1, 3: p - 1}, prec + k)
    root = unit.kth_root_of_unit(k, prec)
    power = root**k
    for m in range(min(power.prec, prec)):
        assert power.coefficient(m) == unit.coefficient(m)


def test_kth_root_requires_residue_one():
    with pytest.raises(PreconditionError):
        TruncatedSeries.make(5, {0: 2}).kth_root_of_unit(3, 8)


def test_divide_shifts_out_the_valuation():
    f = TruncatedSeries.make(5, {3: 2, 4: 1}, prec=8)
    g = TruncatedSeries.make(5, {1: 1, 2: 1}, prec=8)
    quotient = divide(f, g)
    assert quotient.valuation() == 2
    assert (quotient * g - f).valuation_lower_bound() >= quotient.prec


def test_reseries_recovers_composed_coefficients():
    # xi = s^2 + 2 s^5 written in t, where s = t + t^2
    p = 7
    s = TruncatedSeries.make(p, {1: 1, 2: 1}, prec=10)
    xi = s**2 + (s**5).scale(2)
    coeffs = reseries(xi, s)
    expected = {2: 1, 5: 2}
    assert coeffs == [expected.get(m, 0) for m in range(len(coeffs))]


def test_tame_trace_collects_multiples():
    # trace of sum c_m s^m with T = s^3 keeps m = 0, 3, 6 scaled by 3
    xi = TruncatedSeries.make(5, {0: 1, 2: 4, 3: 2, 6: 1}, prec=7)
    traced = tame_trace(xi, 3)
    assert dict(traced.coeffs) == {0: 3, 1: 6 % 5, 2: 3}
    assert traced.prec == 3
    with pytest.raises(PreconditionError):
        tame_trace(xi, 5)  # gamma divisible by p is wild, not tame


def test_trace_in_parameter_matches_direct_trace():
    p = 5
    s = TruncatedSeries.make(p, {1: 1, 3: 2}, prec=12)
    xi = s**2 + s**4
    direct = tame_trace(TruncatedSeries.make(p, {2: 1, 4: 1}, 12), 2)
    via_t = trace_in_parameter(xi, s, 2)
    for m in range(min(direct.prec, via_t.prec)):
        assert via_t.coefficient(m) == direct.coefficient(m)


def test_determinant_valuation_diagonal_and_swap():
    p = 5

    def mono(v):
        return TruncatedSeries.make(p, {v: 2}, prec=v + 6)

    zero = TruncatedSeries.make(p, {}, prec=10)
    assert determinant_valuation([[mono(1), zero], [zero, mono(4)]]) == 5
    # antidiagonal: swap contributes the same total valuation
    assert determinant_valuation([[zero, mono(1)], [mono(4), zero]]) == 5


def test_determinant_valuation_detects_singularity():
    p = 5
    a = TruncatedSeries.make(p, {1: 1})  # exact
    with pytest.raises(PreconditionError):
        determinant_valuation([[a, a], [a, a]])


def test_determinant_valuation_reports_needed_precision():
    p = 5
    short = TruncatedSeries.make(p, {}, prec=2)
    tall = TruncatedSeries.make(p, {0: 1}, prec=2)
    with pytest.raises(PrecisionLossError) as err:
        determinant_valuation([[short, short], [tall, short]])
    assert err.value.required is not None
