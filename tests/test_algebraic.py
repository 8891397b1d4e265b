from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from occ132 import (
    AlgebraicFunction,
    PowerSeries,
    PQForm,
    Solver,
    catalan_series,
    extract_pq,
)
from occ132.algebraic import _trim, poly_mul

from helpers import PoleAtOriginError, af_to_series, reassemble_pq, sqrt_one_minus_4x

CATALAN = AlgebraicFunction((1,), (-1,), (0, 2))  # (1 - y) / 2x
ONE = AlgebraicFunction.from_poly((1,))
X = AlgebraicFunction.from_poly((0, 1))
Y = AlgebraicFunction.y()

small_poly = st.lists(st.integers(-6, 6), max_size=4).map(tuple)
small_af = st.builds(
    lambda p, q, d: AlgebraicFunction(p, q, d if any(d) else (1,)),
    small_poly,
    small_poly,
    small_poly,
)


def test_catalan_satisfies_quadratic():
    assert X * CATALAN * CATALAN - CATALAN + ONE == AlgebraicFunction((), (), (1,))


def test_one_minus_2x_catalan_is_sqrt():
    assert ONE - 2 * X * CATALAN == Y


def test_y_squared():
    assert Y * Y == AlgebraicFunction.from_poly((1, -4))


def test_subtraction_gives_zero():
    a = AlgebraicFunction((1, 2), (3,), (5, 1))
    assert (a - a).is_zero()


def test_normalization_content_and_sign():
    assert AlgebraicFunction((2, 4), (6,), (-2,)) == AlgebraicFunction((-1, -2), (-3,), (1,))
    a = AlgebraicFunction((2, 4), (6,), (-2,))
    assert a.d[-1] > 0


def test_normalization_cancels_shared_factors():
    base = AlgebraicFunction((1, 1), (2,), (3, 1))
    inflated = AlgebraicFunction(
        poly_mul((0, 1), poly_mul((1, -4), base.p)),
        poly_mul((0, 1), poly_mul((1, -4), base.q)),
        poly_mul((0, 1), poly_mul((1, -4), base.d)),
    )
    assert inflated == base
    assert (inflated.p, inflated.q, inflated.d) == (base.p, base.q, base.d)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        AlgebraicFunction((1,), (), ())


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        AlgebraicFunction((), (), (1,)).inverse()


def test_negative_shift_rejected():
    with pytest.raises(ValueError, match="negative"):
        X.shifted(-1)


def test_division_by_y_exact():
    assert (Y * CATALAN) / Y == CATALAN


def test_af_to_series_catalan():
    assert af_to_series(CATALAN, 6) == catalan_series(6)


def test_af_to_series_constant():
    assert af_to_series(ONE, 4) == PowerSeries.one(4)


def test_af_to_series_pole():
    with pytest.raises(PoleAtOriginError):
        af_to_series(AlgebraicFunction((), (1,), (0, 1)), 4)  # y / x


def test_extract_pq_catalan_not_polynomial():
    # P = 1/x and Q = -1/x
    with pytest.raises(ValueError, match=r"level 0 .* 2p = \[2\], .* d = \[0, 2\]"):
        extract_pq(CATALAN, 0)


@pytest.mark.parametrize("a", [
    (ONE - Y) * (ONE + 2 * X * Y) / (ONE + X),  # 1/(1+x) in P and Q
    AlgebraicFunction((1, 3), (), (6,)),  # 2P = 1/3 + x
])
def test_extract_pq_refuses_a_split_that_is_not_an_integer_polynomial(a):
    for r in range(4):
        with pytest.raises(ValueError, match="not an integer polynomial"):
            extract_pq(a, r)


@given(small_poly, small_poly, st.integers(0, 3))
def test_extract_reassemble_roundtrip(two_p, two_q, r):
    form = PQForm(r, _trim(two_p), _trim(two_q))
    assert extract_pq(reassemble_pq(form), r) == form


def test_solver_splits_reassemble(catalog6):
    solver = Solver(catalog6)
    for r in range(1, 7):
        cf = solver.occurrence_closed_form(r)
        assert reassemble_pq(extract_pq(cf, r)) == cf


@given(small_af, small_af)
def test_field_addition_multiplication_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(small_af, small_af, small_af)
def test_distributivity(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(small_af, small_af)
def test_division_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert (a / b) * b == a


def _rational_expansion(a, order):
    """Taylor coefficients of `a` to `order` as Fractions, by long division."""
    vd = next(i for i, c in enumerate(a.d) if c)
    work = order + vd
    num = PowerSeries.from_coeffs(a.p, work) + PowerSeries.from_coeffs(a.q, work) * sqrt_one_minus_4x(work)
    den = a.d[vd:]
    quot = []
    for n in range(order + 1):
        rest = num[vd + n] - sum(quot[i] * den[n - i] for i in range(max(n - len(den) + 1, 0), n))
        quot.append(Fraction(rest, den[0]))
    return quot


@given(small_af)
def test_series_backend_agrees(a):
    # expanding p, q, d separately must match the field expansion
    order = 10
    try:
        direct = af_to_series(a, order)
    except PoleAtOriginError:
        return
    except ArithmeticError:
        # refused only when the expansion really leaves the integers
        assert any(c.denominator != 1 for c in _rational_expansion(a, order))
        return
    num = (PowerSeries.from_coeffs(a.p, order)
           + PowerSeries.from_coeffs(a.q, order) * sqrt_one_minus_4x(order))
    assert direct * PowerSeries.from_coeffs(a.d, order) == num
    assert list(direct.coeffs) == _rational_expansion(a, order)
