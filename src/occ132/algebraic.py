"""Closed forms over the quadratic extension Q(x)[y] with y^2 = 1 - 4x.

An :class:`AlgebraicFunction` is (p(x) + q(x)*y) / d(x) with integer
polynomials p, q, d.  The representation is normalized by stripping the
common integer content, cancelling shared powers of x and of (1 - 4x),
and making d's leading coefficient positive; equality is then decided
by cross-multiplication, so no canonical-form argument is needed.

Polynomials are ascending coefficient tuples; the zero polynomial is
the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .series import PoleAtOriginError, PowerSeries, poly_series, sqrt_one_minus_4x

IntPoly = tuple[int, ...]
FracPoly = tuple[Fraction, ...]

ONE_MINUS_4X: IntPoly = (1, -4)


def _trim(c: Sequence) -> tuple:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_add(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def poly_neg(a: Sequence[int]) -> IntPoly:
    return tuple(-c for c in a)


def poly_sub(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    return poly_add(a, poly_neg(b))


def poly_mul(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _trim(out)


def poly_pow(a: Sequence[int], e: int) -> IntPoly:
    out: IntPoly = (1,)
    for _ in range(e):
        out = poly_mul(out, a)
    return out


def poly_eval(a: Sequence, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _x_valuation(a: Sequence[int]) -> int | None:
    for i, c in enumerate(a):
        if c:
            return i
    return None


def _shift_down(a: Sequence[int], k: int) -> IntPoly:
    return tuple(a[k:])


def _div_one_minus_4x(a: IntPoly) -> IntPoly | None:
    """Exact quotient a / (1 - 4x), or None if a remainder is left.

    With a = (1-4x)*h the coefficients satisfy h_i = a_i + 4*h_{i-1},
    and the top coefficient of a must close the recurrence.
    """
    if not a:
        return ()
    h = []
    carry = 0
    for c in a[:-1]:
        carry = c + 4 * carry
        h.append(carry)
    if a[-1] + (4 * h[-1] if h else 0) != 0:
        return None
    return _trim(h)


def _content(*polys: Sequence[int]) -> int:
    g = 0
    for p in polys:
        for c in p:
            g = gcd(g, c)
    return g


class AlgebraicFunction:
    """(p + q*y)/d with y = sqrt(1-4x), normalized on construction."""

    __slots__ = ("p", "q", "d")

    def __init__(self, p: Sequence[int], q: Sequence[int], d: Sequence[int]):
        p, q, d = _trim(p), _trim(q), _trim(d)
        if not d:
            raise ZeroDivisionError("denominator polynomial is zero")
        if not p and not q:
            self.p, self.q, self.d = (), (), (1,)
            return
        # Shared power of x.
        vals = [v for v in (_x_valuation(p), _x_valuation(q), _x_valuation(d)) if v is not None]
        shift = min(vals)
        if shift:
            p, q, d = _shift_down(p, shift), _shift_down(q, shift), _shift_down(d, shift)
        # Shared powers of (1 - 4x).
        while True:
            dp, dq, dd = _div_one_minus_4x(p), _div_one_minus_4x(q), _div_one_minus_4x(d)
            if dp is None or dq is None or dd is None:
                break
            p, q, d = dp, dq, dd
        g = _content(p, q, d)
        if g > 1:
            p = tuple(c // g for c in p)
            q = tuple(c // g for c in q)
            d = tuple(c // g for c in d)
        if d[-1] < 0:
            p, q, d = poly_neg(p), poly_neg(q), poly_neg(d)
        self.p, self.q, self.d = p, q, d

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_poly(cls, p: Sequence[int]) -> AlgebraicFunction:
        return cls(p, (), (1,))

    @classmethod
    def constant(cls, c: int | Fraction) -> AlgebraicFunction:
        c = Fraction(c)
        return cls((c.numerator,), (), (c.denominator,))

    @classmethod
    def x_power(cls, e: int) -> AlgebraicFunction:
        return cls((0,) * e + (1,), (), (1,))

    @classmethod
    def y(cls) -> AlgebraicFunction:
        return cls((), (1,), (1,))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraicFunction):
            return NotImplemented
        return (
            poly_mul(self.p, other.d) == poly_mul(other.p, self.d)
            and poly_mul(self.q, other.d) == poly_mul(other.q, self.d)
        )

    __hash__ = None

    # -- field arithmetic ---------------------------------------------------

    def __neg__(self) -> AlgebraicFunction:
        return AlgebraicFunction(poly_neg(self.p), poly_neg(self.q), self.d)

    def __add__(self, other: AlgebraicFunction) -> AlgebraicFunction:
        return AlgebraicFunction(
            poly_add(poly_mul(self.p, other.d), poly_mul(other.p, self.d)),
            poly_add(poly_mul(self.q, other.d), poly_mul(other.q, self.d)),
            poly_mul(self.d, other.d),
        )

    def __sub__(self, other: AlgebraicFunction) -> AlgebraicFunction:
        return self + (-other)

    def __mul__(self, other) -> AlgebraicFunction:
        if isinstance(other, (int, Fraction)):
            other = AlgebraicFunction.constant(other)
        return AlgebraicFunction(
            poly_add(
                poly_mul(self.p, other.p),
                poly_mul(ONE_MINUS_4X, poly_mul(self.q, other.q)),
            ),
            poly_add(poly_mul(self.p, other.q), poly_mul(self.q, other.p)),
            poly_mul(self.d, other.d),
        )

    __rmul__ = __mul__

    def inverse(self) -> AlgebraicFunction:
        """1/self, rationalized by the conjugate p - q*y.

        The norm (p + qy)(p - qy) = p^2 - q^2(1-4x) cannot vanish for a
        nonzero element because 1-4x is not a square in Q(x).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverting the zero element")
        norm = poly_sub(
            poly_mul(self.p, self.p),
            poly_mul(ONE_MINUS_4X, poly_mul(self.q, self.q)),
        )
        return AlgebraicFunction(
            poly_mul(self.d, self.p), poly_mul(self.d, poly_neg(self.q)), norm
        )

    def __truediv__(self, other: AlgebraicFunction) -> AlgebraicFunction:
        return self * other.inverse()

    def __pow__(self, e: int) -> AlgebraicFunction:
        if e < 0:
            return self.inverse() ** (-e)
        out = AlgebraicFunction.from_poly((1,))
        for _ in range(e):
            out = out * self
        return out

    def shifted(self, k: int) -> AlgebraicFunction:
        """Multiply by x^k."""
        return AlgebraicFunction((0,) * k + self.p, (0,) * k + self.q, self.d)

    def __repr__(self) -> str:
        return f"AlgebraicFunction(p={self.p}, q={self.q}, d={self.d})"


def af_to_series(a: AlgebraicFunction, order: int) -> PowerSeries:
    """Taylor expansion of `a` at the origin, truncated to `order`.

    Powers of x in the denominator must cancel against the numerator's
    valuation; otherwise a :class:`PoleAtOriginError` is raised.
    """
    vd = _x_valuation(a.d)
    assert vd is not None
    work = order + vd
    num = poly_series(a.p, work) + poly_series(a.q, work) * sqrt_one_minus_4x(work)
    if any(num[i] for i in range(vd)):
        raise PoleAtOriginError(f"{a!r} has a pole at the origin")
    shifted = PowerSeries(num.coeffs[vd:])
    den = poly_series(_shift_down(a.d, vd), order)
    return shifted / den


# -- the split form P, Q ---------------------------------------------------


def _frac_divmod(a: FracPoly, b: FracPoly) -> tuple[FracPoly, FracPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(rem) - len(b), -1, -1):
        factor = rem[i + len(b) - 1] / b[-1]
        quot[i] = factor
        if factor:
            for j, bj in enumerate(b):
                rem[i + j] -= factor * bj
    return _trim(quot), _trim(rem)


def _frac_gcd(a: FracPoly, b: FracPoly) -> FracPoly:
    while b:
        _, r = _frac_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


class RationalPoly(NamedTuple):
    """num/den with Fraction coefficients, den monic, gcd-reduced."""

    num: FracPoly
    den: FracPoly

    @property
    def is_polynomial(self) -> bool:
        return self.den == (Fraction(1),)

    def as_polynomial(self) -> FracPoly:
        if not self.is_polynomial:
            raise ValueError(f"{self} is not a polynomial")
        return self.num


def _reduce_rational(num: FracPoly, den: FracPoly) -> RationalPoly:
    if not num:
        return RationalPoly((), (Fraction(1),))
    g = _frac_gcd(num, den)
    if len(g) > 1:
        num, _ = _frac_divmod(num, g)
        den, _ = _frac_divmod(den, g)
    lead = den[-1]
    num = tuple(c / lead for c in num)
    den = tuple(c / lead for c in den)
    return RationalPoly(num, den)


class PQForm(NamedTuple):
    """Split of an algebraic function as (P + Q*(1-4x)^(1/2-r)) / 2.

    P and Q come out as rational functions; ``polynomial`` records
    whether both divisions were exact.
    """

    r: int
    P: RationalPoly
    Q: RationalPoly

    @property
    def polynomial(self) -> bool:
        return self.P.is_polynomial and self.Q.is_polynomial


def extract_pq(a: AlgebraicFunction, r: int) -> PQForm:
    """Write a = (P + Q*(1-4x)^(1/2-r))/2, i.e. P = 2p/d and
    Q = 2q*(1-4x)^r / d, reducing whatever does not divide exactly."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    p2 = tuple(Fraction(2 * c) for c in a.p)
    q2 = tuple(Fraction(2 * c) for c in poly_mul(a.q, poly_pow(ONE_MINUS_4X, r)))
    den = tuple(Fraction(c) for c in a.d)
    return PQForm(r, _reduce_rational(p2, den), _reduce_rational(q2, den))


def _rational_to_af(rp: RationalPoly) -> AlgebraicFunction:
    scale = lcm(*(c.denominator for c in rp.num + rp.den)) if (rp.num or rp.den) else 1
    num = tuple(int(c * scale) for c in rp.num)
    den = tuple(int(c * scale) for c in rp.den)
    return AlgebraicFunction(num, (), den)


def reassemble_pq(form: PQForm) -> AlgebraicFunction:
    """Inverse of :func:`extract_pq`: rebuild (P + Q*y*(1-4x)^-r)/2."""
    p_part = _rational_to_af(form.P)
    q_part = (
        _rational_to_af(form.Q)
        * AlgebraicFunction.y()
        * AlgebraicFunction.from_poly(poly_pow(ONE_MINUS_4X, form.r)).inverse()
    )
    return AlgebraicFunction.constant(Fraction(1, 2)) * (p_part + q_part)
