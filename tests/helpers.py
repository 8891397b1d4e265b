"""Independent test oracles: each recomputes by a second route something
the package computes, or parses the strings the tests write permutations in.

None of these is package API; the tests import them from here.
"""

from __future__ import annotations

from math import comb

from occ132.algebraic import (
    ONE_MINUS_4X,
    AlgebraicFunction,
    PQForm,
    _shift_down,
    _x_valuation,
    poly_mul,
    poly_pow,
)
from occ132.kernel import shape_record
from occ132.perms import Permutation, lis_length
from occ132.series import PowerSeries


def perm_from_str(s: str) -> Permutation:
    """Parse either form :func:`occ132.perms.perm_to_str` produces.

    >>> perm_from_str("57614283").n
    8
    >>> perm_from_str("10,11,7,12,4,6,5,8,3,9,2,1").n
    12
    >>> perm_from_str("").n
    0
    """
    s = s.strip()
    if not s:
        return Permutation(())
    if "," in s:
        return Permutation(tuple(int(part) for part in s.split(",")))
    return Permutation(tuple(int(ch) for ch in s))


def avoids_monotone(pi: Permutation, k: int) -> bool:
    """True iff pi avoids the increasing pattern 12...k.

    For k <= 0 this is False for every pi, including the empty one: no
    permutation can avoid a vacuous requirement, mirroring the fact that
    the restricted counting series is identically zero there.

    >>> avoids_monotone(Permutation((2, 1)), 2)
    True
    >>> avoids_monotone(Permutation((1, 2, 3, 4)), 3)
    False
    >>> avoids_monotone(Permutation(()), 0)
    False
    """
    if k <= 0:
        return False
    return lis_length(pi.values) < k


class PoleAtOriginError(ArithmeticError):
    """A Laurent expansion kept negative powers of x."""


def sqrt_one_minus_4x(order: int) -> PowerSeries:
    """Binomial expansion of (1-4x)^(1/2): 1 - 2x - 2x^2 - 4x^3 - 10x^4 - ...

    The n-th coefficient is -2*C(2n-2, n-1)/n for n >= 1, an integer.
    """
    coeffs = [1]
    for n in range(1, order + 1):
        coeffs.append(-2 * comb(2 * n - 2, n - 1) // n)
    return PowerSeries(tuple(coeffs))


def af_to_series(a: AlgebraicFunction, order: int) -> PowerSeries:
    """Taylor expansion of `a` at the origin, truncated to `order`.

    Powers of x in the denominator must cancel against the numerator's
    valuation; otherwise a :class:`PoleAtOriginError` is raised.  An
    expansion that leaves the integers raises ArithmeticError.
    """
    vd = _x_valuation(a.d)
    assert vd is not None
    work = order + vd
    num = (PowerSeries.from_coeffs(a.p, work)
           + PowerSeries.from_coeffs(a.q, work) * sqrt_one_minus_4x(work))
    if any(num[i] for i in range(vd)):
        raise PoleAtOriginError(f"{a!r} has a pole at the origin")
    shifted = PowerSeries(num.coeffs[vd:])
    den = PowerSeries.from_coeffs(_shift_down(a.d, vd), order)
    return shifted / den


def reassemble_pq(form: PQForm) -> AlgebraicFunction:
    """Inverse of :func:`occ132.algebraic.extract_pq`: rebuild
    (2P*(1-4x)^r + 2Q*y) / (2*(1-4x)^r)."""
    scale = poly_pow(ONE_MINUS_4X, form.r)
    return AlgebraicFunction(poly_mul(form.two_P, scale), form.two_Q, poly_mul((2,), scale))


def exceptional_shape(r: int) -> Permutation:
    """The unique kernel permutation of capacity r with maximal size 2r+1.

    Built in closed form as 2r-1, 2r+1, 2r-3, 2r, ..., 1, 4, 2, the
    reference for the shape the search finds; the constructor re-derives
    size, capacity and the feasible cells as a postcondition.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    vals = [2 * r - 1, 2 * r + 1]
    for j in range(r - 1):
        vals += [2 * r - 2 * j - 3, 2 * r - 2 * j]
    vals.append(2)
    rho = Permutation(tuple(vals))
    rec = shape_record(rho)
    expected_cells = {(2 * r - 2 * j + 1, 2 * j + 1) for j in range(r + 1)} | {(1, 2 * r + 2)}
    if (
        rec.size != 2 * r + 1
        or rec.capacity != r
        or set(rec.cells) != expected_cells
        or len(rec.cells) != r + 2
    ):
        raise AssertionError(f"maximal shape postcondition failed for r={r}: {rec}")
    return rho
