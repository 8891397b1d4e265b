"""Truncated formal power series with exact rational coefficients.

A series stores the coefficients of x^0..x^order as plain ``int``s
wherever they are integral and as ``Fraction``s only where a
denominator appears, so integer series never leave integer arithmetic.
Arithmetic truncates to the smaller operand order, and equality
compares coefficients up to the shared order.  All operations are pure;
nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence


class PoleAtOriginError(ArithmeticError):
    """A Laurent expansion kept negative powers of x."""


def _coeff(value) -> int | Fraction:
    """The coefficient as an ``int`` when integral, else as a ``Fraction``."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class PowerSeries:
    """Coefficients of x^0..x^order, exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int | Fraction, ...]):
        if not coeffs:
            raise ValueError("a series carries at least the constant coefficient")
        if not all(type(c) is int for c in coeffs):
            coeffs = tuple(_coeff(c) for c in coeffs)
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int | Fraction], order: int | None = None) -> PowerSeries:
        """Build a series, zero-padding or truncating to `order` if given."""
        cs = list(coeffs)
        if order is not None:
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order: int) -> PowerSeries:
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls.from_coeffs([1], order)

    @classmethod
    def monomial(cls, degree: int, order: int) -> PowerSeries:
        return cls.from_coeffs([0] * degree + [1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int | Fraction:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        shared = min(self.order, other.order)
        return self.coeffs[: shared + 1] == other.coeffs[: shared + 1]

    def __neg__(self) -> PowerSeries:
        return PowerSeries(tuple(-c for c in self.coeffs))

    def __add__(self, other: PowerSeries) -> PowerSeries:
        shared = min(self.order, other.order)
        return PowerSeries(
            tuple(a + b for a, b in zip(self.coeffs[: shared + 1], other.coeffs[: shared + 1]))
        )

    def __sub__(self, other: PowerSeries) -> PowerSeries:
        return self + (-other)

    def __mul__(self, other) -> PowerSeries:
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return PowerSeries(tuple(a * c for a in self.coeffs))
        shared = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (shared + 1)
        for i in range(min(len(a), shared + 1)):
            ai = a[i]
            if not ai:
                continue
            for j in range(min(len(b), shared + 1 - i)):
                if b[j]:
                    out[i + j] += ai * b[j]
        return PowerSeries(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other: PowerSeries) -> PowerSeries:
        """Series division; the divisor needs a nonzero constant term."""
        b0 = other.coeffs[0]
        if b0 == 0:
            raise ZeroDivisionError("division by a series with zero constant term")
        shared = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        q = [0] * (shared + 1)
        for n in range(shared + 1):
            acc = a[n]
            for i in range(n):
                if q[i] and n - i < len(b):
                    acc -= q[i] * b[n - i]
            q[n] = acc if b0 == 1 else _coeff(Fraction(acc) / b0)  # int / int would be a float
        return PowerSeries(tuple(q))

    def __pow__(self, exponent: int) -> PowerSeries:
        if exponent < 0:
            raise ValueError("negative powers are not truncated series")
        result = PowerSeries.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def shifted(self, k: int) -> PowerSeries:
        """Multiply by x^k, keeping the order (high coefficients drop off)."""
        if k == 0:
            return self
        return PowerSeries((0,) * k + self.coeffs[: self.order + 1 - k])

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

    def integer_coeffs(self) -> list[int]:
        if not self.is_integral():
            raise ValueError(f"series has non-integer coefficients: {self}")
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries({[str(c) for c in self.coeffs]})"


def sqrt_one_minus_4x(order: int) -> PowerSeries:
    """Binomial expansion of (1-4x)^(1/2): 1 - 2x - 2x^2 - 4x^3 - 10x^4 - ...

    The n-th coefficient is -2*C(2n-2, n-1)/n for n >= 1, an integer.
    """
    coeffs = [1]
    for n in range(1, order + 1):
        coeffs.append(-2 * comb(2 * n - 2, n - 1) // n)
    return PowerSeries(tuple(coeffs))


def catalan_series(order: int) -> PowerSeries:
    """1 + x + 2x^2 + 5x^3 + 14x^4 + ...: the fixed point of S = 1 + x*S^2."""
    return PowerSeries(tuple(comb(2 * n, n) // (n + 1) for n in range(order + 1)))


def poly_series(poly: Sequence[int | Fraction], order: int) -> PowerSeries:
    """View a polynomial (ascending coefficients) as a truncated series."""
    return PowerSeries.from_coeffs(poly, order)
