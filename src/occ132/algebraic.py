"""Closed forms over the quadratic extension Q(x)[y] with y^2 = 1 - 4x.

An :class:`AlgebraicFunction` is (p(x) + q(x)*y) / d(x) with integer
polynomials p, q, d; a rational constant c/e is (c,) over (e,).  The
representation is normalized by stripping the common integer content,
cancelling shared powers of x and of (1 - 4x), and making d's leading
coefficient positive; equality is then decided by cross-multiplication,
so no canonical-form argument is needed.

The paper's split of level r, (P + Q*(1-4x)^(1/2-r)) / 2, is a
:class:`PQForm` holding the integer polynomials 2P and 2Q.
:func:`extract_pq` finds them by exact division in Z[x] and refuses a
level whose split is not an integer polynomial.

Polynomials are ascending coefficient tuples; the zero polynomial is
the empty tuple.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

IntPoly = tuple[int, ...]

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
        if isinstance(other, int):
            other = AlgebraicFunction.from_poly((other,))
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
        if k < 0:
            raise ValueError(f"cannot shift by a negative power: x^{k}")
        return AlgebraicFunction((0,) * k + self.p, (0,) * k + self.q, self.d)

    def __repr__(self) -> str:
        return f"AlgebraicFunction(p={self.p}, q={self.q}, d={self.d})"


# -- the split form P, Q ---------------------------------------------------


def _exact_quotient(num: Sequence[int], den: Sequence[int]) -> IntPoly | None:
    """num / den in Z[x], or None when den does not divide num there.

    Long division from the top.  A step that den's leading coefficient
    does not divide leaves its remainder in place, so the division is
    exact when no remainder is left.  The quotient of two polynomials
    does not depend on how they are written, so no gcd is needed.
    """
    rem = list(num)
    quot = [0] * max(len(num) - len(den) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + len(den) - 1] // den[-1]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    return None if any(rem) else _trim(quot)


class PQForm(NamedTuple):
    """Split of an algebraic function as (P + Q*(1-4x)^(1/2-r)) / 2,
    held as the integer polynomials 2P and 2Q."""

    r: int
    two_P: IntPoly
    two_Q: IntPoly


def extract_pq(a: AlgebraicFunction, r: int) -> PQForm:
    """Write a = (P + Q*(1-4x)^(1/2-r))/2, i.e. 2P = 2p/d and
    2Q = 2q*(1-4x)^r / d.

    Raises ValueError when either quotient is not in Z[x].
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    p2 = tuple(2 * c for c in a.p)
    q2 = tuple(2 * c for c in poly_mul(a.q, poly_pow(ONE_MINUS_4X, r)))
    two_p, two_q = _exact_quotient(p2, a.d), _exact_quotient(q2, a.d)
    if two_p is None or two_q is None:
        raise ValueError(
            f"split of level {r} is not an integer polynomial: 2p = {list(p2)}, "
            f"2q*(1-4x)^{r} = {list(q2)}, d = {list(a.d)}")
    return PQForm(r, two_p, two_q)
