"""Truncated formal power series with plain integer coefficients.

Every series the package forms counts permutations, so a series
refuses any coefficient that is not an ``int``, and division raises
ArithmeticError rather than leave the integers.  Arithmetic truncates
to the smaller operand order, and equality compares coefficients up to
the shared order.  Nothing here ever touches floating point.
"""

from __future__ import annotations

from math import comb
from typing import Iterable


class PowerSeries:
    """Coefficients of x^0..x^order, plain integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if not coeffs:
            raise ValueError("a series carries at least the constant coefficient")
        if not all(type(c) is int for c in coeffs):
            bad = next(c for c in coeffs if type(c) is not int)
            raise TypeError(f"series coefficients are int, got {type(bad).__name__}")
        self.coeffs = coeffs

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int], order: int | None = None) -> PowerSeries:
        """Build a series, zero-padding or truncating to `order` if given."""
        cs = list(coeffs)
        if order is not None:
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        return cls(tuple(cs))

    @classmethod
    def one(cls, order: int) -> PowerSeries:
        return cls.from_coeffs([1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
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
        if isinstance(other, int):
            return PowerSeries(tuple(a * other for a in self.coeffs))
        shared = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (shared + 1)
        for i in range(shared + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(shared + 1 - i):
                if b[j]:
                    out[i + j] += ai * b[j]
        return PowerSeries(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other: PowerSeries) -> PowerSeries:
        """Exact series division; the divisor needs a nonzero constant term,
        and each quotient coefficient must be an integer."""
        b0 = other.coeffs[0]
        if b0 == 0:
            raise ZeroDivisionError("division by a series with zero constant term")
        shared = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        q = [0] * (shared + 1)
        for n in range(shared + 1):
            acc = a[n]
            for i in range(n):
                if q[i]:
                    acc -= q[i] * b[n - i]
            if b0 != 1:
                acc, rem = divmod(acc, b0)
                if rem:
                    raise ArithmeticError(f"the quotient's coefficient of x^{n} is not an integer")
            q[n] = acc
        return PowerSeries(tuple(q))

    def shifted(self, k: int) -> PowerSeries:
        """Multiply by x^k, keeping the order (high coefficients drop off)."""
        if k < 0:
            raise ValueError(f"cannot shift by a negative power: x^{k}")
        if k == 0:
            return self
        k = min(k, self.order + 1)
        return PowerSeries((0,) * k + self.coeffs[: self.order + 1 - k])

    def integer_coeffs(self) -> list[int]:
        return list(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries({list(self.coeffs)})"


def catalan_series(order: int) -> PowerSeries:
    """1 + x + 2x^2 + 5x^3 + 14x^4 + ...: the fixed point of S = 1 + x*S^2."""
    return PowerSeries(tuple(comb(2 * n, n) // (n + 1) for n in range(order + 1)))
