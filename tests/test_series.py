from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from occ132 import PowerSeries, catalan_series

from helpers import sqrt_one_minus_4x

small_series = st.builds(
    PowerSeries.from_coeffs,
    st.lists(st.integers(-20, 20), min_size=1, max_size=8),
)


def test_product_example():
    one_plus = PowerSeries.from_coeffs([1, 1], order=4)
    one_minus = PowerSeries.from_coeffs([1, -1], order=4)
    assert one_plus * one_minus == PowerSeries.from_coeffs([1, 0, -1], order=4)


def test_catalan_quadratic_identity():
    c = catalan_series(12)
    one = PowerSeries.one(12)
    assert c - one == (c * c).shifted(1)


def test_multiply_by_zero():
    a = catalan_series(6)
    assert a * PowerSeries.from_coeffs([0], 6) == PowerSeries.from_coeffs([0], 6)


def test_geometric_division():
    one = PowerSeries.one(8)
    denom = PowerSeries.from_coeffs([1, -1], order=8)
    assert one / denom == PowerSeries.from_coeffs([1] * 9)


def test_shifted_quotient_identity():
    # (C - 1)/x divided by C gives C back
    c = catalan_series(10)
    shifted_down = PowerSeries((c - PowerSeries.one(10)).coeffs[1:])
    assert shifted_down / PowerSeries(c.coeffs[:10]) == PowerSeries(c.coeffs[:10])


def test_self_division():
    a = PowerSeries.from_coeffs([3, 1, 4, 1, 5], order=6)
    assert a / a == PowerSeries.one(4)


def test_zero_constant_division_rejected():
    with pytest.raises(ZeroDivisionError):
        PowerSeries.one(4) / PowerSeries.from_coeffs([0, 1], order=4)


def test_inexact_division_rejected():
    # 1/(2 + x) = 1/2 - x/4 + ...
    with pytest.raises(ArithmeticError, match=r"x\^0"):
        PowerSeries.one(4) / PowerSeries.from_coeffs([2, 1])


def test_sqrt_values():
    assert sqrt_one_minus_4x(4).coeffs == (1, -2, -2, -4, -10)


def test_sqrt_square_is_radicand():
    for order in (4, 16, 64):
        s = sqrt_one_minus_4x(order)
        assert s * s == PowerSeries.from_coeffs([1, -4], order=order)


def test_sqrt_agrees_with_catalan_identity():
    order = 24
    c = catalan_series(order)
    assert PowerSeries.one(order) - 2 * c.shifted(1) == sqrt_one_minus_4x(order)


def test_equality_up_to_shared_order():
    a = PowerSeries.from_coeffs([1, 2, 3])
    b = PowerSeries.from_coeffs([1, 2, 3, 999])
    assert a == b
    assert PowerSeries.from_coeffs([1, 2]) != PowerSeries.from_coeffs([1, 3])


def test_result_order_is_min_of_operands():
    a = PowerSeries.from_coeffs([1] * 9)  # order 8
    b = PowerSeries.from_coeffs([1] * 5)  # order 4
    assert (a + b).order == 4
    assert (a * b).order == 4


def test_integer_coeffs_guard():
    for coeff in (Fraction(1, 2), Fraction(2, 1), 0.5, 1.0):
        with pytest.raises(TypeError, match="int"):
            PowerSeries.from_coeffs([1, coeff])


def test_negative_shift_rejected():
    with pytest.raises(ValueError, match="negative"):
        PowerSeries.from_coeffs([1, 2, 3]).shifted(-1)


@pytest.mark.parametrize("k", [5, 6, 7, 13])
def test_shift_past_the_order_keeps_it(k):
    a = PowerSeries.from_coeffs([1, 2, 3, 4, 5, 6])  # order 5
    shifted = a.shifted(k)
    assert shifted.order == 5
    assert shifted.coeffs == ((0,) * k + a.coeffs)[:6]


@given(small_series, small_series, small_series)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c


@given(small_series, small_series)
def test_division_inverts_multiplication(a, b):
    if b.coeffs[0] == 0:
        return
    assert (a * b) / b == a
