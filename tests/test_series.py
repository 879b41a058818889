from hypothesis import example, given
from hypothesis import strategies as st
import pytest

from kunz.errors import PreconditionError, PrecisionLossError
from kunz.field import MAX_PRIME
from kunz.series import TruncatedSeries, determinant_valuation, tame_trace
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


@st.composite
def product_operands(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 65521, MAX_PRIME - 1]))

    def operand():
        valuation = draw(st.integers(0, 50))
        coeffs = draw(st.dictionaries(st.integers(valuation, valuation + 120),
                                      st.integers(1, p - 1), max_size=60))
        return TruncatedSeries.make(p, coeffs,
                                    draw(st.none() | st.integers(0, 200)))

    return p, operand(), operand()


@given(product_operands())
@example((7, TruncatedSeries.make(7, {}, 5),
          TruncatedSeries.make(7, {2: 3, 9: 1}, 12)))
@example((MAX_PRIME - 1, TruncatedSeries.make(MAX_PRIME - 1, {0: 2, 40: 5}),
          TruncatedSeries.make(MAX_PRIME - 1, {}, 30)))
def test_product_matches_naive_convolution(data):
    p, a, b = data
    if a.is_exactly_zero() or b.is_exactly_zero():
        assert a * b == TruncatedSeries.zero(p)
        return
    # prec(a) + v(b) and prec(b) + v(a), with a truncated zero's v at least
    # its precision
    prec = min((x.prec + y.valuation_lower_bound()
                for x, y in ((a, b), (b, a)) if x.prec is not None),
               default=None)
    cutoff = float("inf") if prec is None else prec
    expected = naive_series_product(dict(a.coeffs), dict(b.coeffs), p, cutoff)
    assert a * b == TruncatedSeries.make(p, expected, prec)


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
    assert a.prec is None
    assert (a * a).prec is None
    assert (a + a).prec is None


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


def test_tame_trace_collects_multiples():
    # trace of sum c_m s^m with T = s^3 keeps m = 0, 3, 6 scaled by 3
    xi = TruncatedSeries.make(5, {0: 1, 2: 4, 3: 2, 6: 1}, prec=7)
    traced = tame_trace(xi, 3)
    assert dict(traced.coeffs) == {0: 3, 1: 6 % 5, 2: 3}
    assert traced.prec == 3
    with pytest.raises(PreconditionError):
        tame_trace(xi, 5)  # gamma divisible by p is wild, not tame


def test_determinant_valuation_diagonal_and_swap():
    p = 5

    def mono(v):
        return TruncatedSeries.make(p, {v: 2}, prec=v + 6)

    zero = TruncatedSeries.make(p, {}, prec=10)
    assert determinant_valuation([[mono(1), zero], [zero, mono(4)]]) == 5
    # antidiagonal: swap contributes the same total valuation
    assert determinant_valuation([[zero, mono(1)], [mono(4), zero]]) == 5
    # exact pivots with nothing to eliminate below them need no inverse
    exact = TruncatedSeries.make(p, {2: 1})
    none = TruncatedSeries.zero(p)
    assert determinant_valuation([[exact, none], [none, exact]]) == 4


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
