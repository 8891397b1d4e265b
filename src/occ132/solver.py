"""Generating functions by the kernel-shape recursion, over any exact ring.

Counting permutations with exactly r occurrences of 132 reduces to a
sum over catalogued kernel shapes: a shape of size s, capacity c and f
feasible cells contributes x^s times the sum, over all ways of
splitting the remaining budget r - c among the f cells, of the product
of the cells' own counting series.  The size-1 shape is the only one of
capacity 0, so the unknown level-r series appears on the right only
through it, with coefficient 2x * (level-0 series); moving that term to
the left turns each level into a division by 1 - 2x*S_0 (which equals
sqrt(1-4x)).

Budget splits are never enumerated: per shape, the family of lower-level
solutions is treated as a polynomial in a formal budget marker, the
f-fold product is taken with truncation, and the wanted coefficient is
read off.  Shapes that contribute identically are folded into classes
once, by ``shapes.fold_catalog``: (size, capacity, shape lis, sorted
northeast runs) with a multiplicity.  A Solver is built from that fold,
read from a catalog's sidecar or made from its records, and keeps the
fold's class table as it is, never the records.  Each level step merges
the classes whose cells see the same budgets and takes one product per
merged key.  Each ring keeps its marker products for the whole Solver,
next to its levels, keyed by the cells' own monotone budgets (None when
unrestricted): every level and every monotone budget reuses them, and a
product grows from the product of its key's prefix.  A product is
extended only to the marker degree a caller reads, which is r - c for a
class of capacity c at level r.

The level step is written once and runs over truncated integer series
and over closed forms in Q(x)[sqrt(1-4x)]; the two rings check each
other.  A series level must have no negative coefficient, and the
maximal shape's cells must give S_0^(r+2), compared before the shift by
x^(2r+1) that would carry a difference past a low order.

The restricted variant counts permutations that additionally avoid the
increasing pattern 12...k.  Increasing runs never cross cells (row and
column dominance forbid it), and kernel entries can extend a cell's
content only by the longest increasing run to the cell's northeast, of
length l_j.  A member therefore avoids 12...k exactly when the kernel
shape's own longest increasing run is shorter than k and each cell
content avoids 12...(k - l_j); that gives the same budget-split
recursion with the series family indexed by the surviving monotone
budget, an all-zero family at budgets <= 0, and a per-shape cutoff at
k <= lis(shape).  The unrestricted recursion is the case with no
monotone budget at all; no permutation up to the truncation order holds
an increasing run longer than it, so every larger k is solved as order + 1.
"""

from __future__ import annotations

from collections import Counter

from .algebraic import AlgebraicFunction
from .series import PowerSeries, catalan_series
from .shapes import CatalogError, ShapeCatalog, ShapeFold, fold_catalog


class SolverError(RuntimeError):
    """An internal consistency check failed while solving."""


class _Ring:
    """One coefficient ring's solved levels and budget-marker products.

    ``levels`` maps (r, k) to a solved level, k being the monotone budget
    or None.  ``products`` maps a tuple of cell budgets to the marker
    coefficients, lowest degree first, of the product of those cells'
    families; a cell of budget b has the family levels[(., b)].  A
    product is extended only as far as some caller has asked.
    ``powers`` lists the powers of the unrestricted level 0, from its
    0-th, each one product on the one before: a chain apart from
    ``products``, which the maximal-shape check compares it with.
    """

    def __init__(self, one, level0):
        self.one = one
        self.zero = one * 0
        self.levels: dict = {(0, None): level0}
        self.products: dict[tuple, list] = {}
        self.powers = [one]

    def power(self, e: int):
        """The unrestricted level 0 to the e-th power."""
        while len(self.powers) <= e:
            self.powers.append(self.powers[-1] * self.levels[(0, None)])
        return self.powers[e]

    def product(self, key: tuple, degree: int) -> list:
        """Marker coefficients 0..degree (the list may run further) of the
        product over the cells of `key`.

        The stored list grows from its current length on the product of
        the key's prefix, extended to the same degree.  Degree d reads
        levels below d + 1 only.
        """
        if not key:
            return [self.one] + [self.zero] * degree
        out = self.products.setdefault(key, [])
        if len(out) <= degree:
            head = self.product(key[:-1], degree)
            budget = key[-1]
            for d in range(len(out), degree + 1):
                term = self.zero
                for i in range(d + 1):
                    # the empty key's zeros, and sums of nothing but them,
                    # are the ring's own zero: no product is formed for them
                    if head[i] is not self.zero:
                        term = term + head[i] * self.levels[(d - i, budget)]
                out.append(term)
        return out


class Solver:
    """Memoized solutions at a fixed truncation order over one catalog's fold.

    Each ring keeps its own levels, seeded with the Catalan level 0, and
    its own marker products, shared by every level and monotone budget.
    """

    def __init__(self, catalog: ShapeFold | ShapeCatalog, order: int = 32):
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        fold = catalog if isinstance(catalog, ShapeFold) else fold_catalog(catalog)
        self.order = order
        self.max_occ = fold.max_occ
        self._series = _Ring(PowerSeries.one(order), catalan_series(order))
        # (1 - y) / 2x: the quadratic x*S^2 - S + 1 = 0 solved for y.
        self._closed = _Ring(
            AlgebraicFunction.from_poly((1,)), AlgebraicFunction((1,), (-1,), (0, 2))
        )
        self._table = fold.classes

    # -- budgets ----------------------------------------------------------------

    def _require(self, r: int) -> None:
        if r < 0:
            raise ValueError(f"r must be >= 0, got {r}")
        if r > self.max_occ:
            raise CatalogError(f"catalog holds shapes for budgets <= {self.max_occ}, requested {r}")

    # -- public levels ----------------------------------------------------------

    def occurrence_series(self, r: int) -> PowerSeries:
        """Series counting permutations of each size with exactly r
        occurrences of 132, to the solver's truncation order."""
        self._require(r)
        return self._level(self._series, r, None)

    def occurrence_closed_form(self, r: int) -> AlgebraicFunction:
        """Closed form of the level-r series in Q(x)[sqrt(1-4x)]."""
        self._require(r)
        return self._level(self._closed, r, None)

    def restricted_series(self, r: int, k: int) -> PowerSeries:
        """Series counting permutations with exactly r occurrences of 132
        that also avoid the increasing pattern of length k."""
        self._require(r)
        return self._level(self._series, r, min(k, self.order + 1))

    # -- the level step ---------------------------------------------------------

    def _level(self, ring: _Ring, r: int, k: int | None):
        """Level (r, k) in `ring`, solving every level it rests on first,
        in an order where each step finds its inputs in ``ring.levels``."""
        for rp in range(r + 1):
            for kp in [None] if k is None else range(1, k + 1):
                if (rp, kp) not in ring.levels:
                    ring.levels[(rp, kp)] = self._step(ring, rp, kp)
        return ring.levels[(r, k)] if k is None or k > 0 else ring.zero

    def _step(self, ring: _Ring, r: int, k: int | None):
        """Solve level (r, k) from the lower levels already in `ring`."""
        levels, one, zero = ring.levels, ring.one, ring.zero

        def level(i: int, drop: int = 0):
            """Known level i, with the monotone budget lowered by `drop`."""
            if k is None:
                return levels[(i, None)]
            return levels[(i, k - drop)] if k - drop > 0 else zero

        total = one if r == 0 else zero  # the empty permutation; unrestricted level 0 is seeded
        # Classes whose cells see the same budgets contribute alike.  The
        # size-1 shape is handled below; the kernel alone holds the forbidden
        # increasing run when lis >= k, and otherwise lis >= every run, so
        # each cell budget k - run is >= 1.
        terms: Counter = Counter()
        for (s, c, lis, runs), mult in self._table.items():
            if s > 1 and c <= r and (k is None or lis < k):
                terms[(s, c, tuple(None if k is None else k - run for run in runs))] += mult
        for (s, c, key), mult in terms.items():
            total = total + (mult * ring.product(key, r - c)[r - c]).shifted(s)
        # Size-1 shape: its cells see budgets k-1 and k and split all of r.
        # A split end that holds the unknown level (r, k) moves into the
        # divisor: the r1 = 0 end always, the r1 = r end only unrestricted.
        ends = {0} if k is not None else {0, r}
        for r1 in range(r + 1):
            if r1 not in ends:
                total = total + (level(r1, 1) * level(r - r1)).shifted(1)
        divisor = one - (len(ends) * level(0, 1)).shifted(1)
        result = total / divisor
        if isinstance(result, PowerSeries) and any(c < 0 for c in result.coeffs):
            raise SolverError(f"level ({r}, {k}) series is not a counting series: {result!r}")
        if isinstance(divisor, AlgebraicFunction) and divisor != AlgebraicFunction.y():
            raise SolverError("1 - 2x*S_0 did not reduce to sqrt(1-4x)")
        if k is None:
            # The maximal shape's term must equal x^(2r+1) * S_0^(r+2).
            cells = next((len(runs) for s, c, _, runs in self._table if (s, c) == (2 * r + 1, r)), None)
            if cells is None:
                raise CatalogError(f"catalog lacks the maximal shape for budget {r}")
            if ring.product((None,) * cells, 0)[0] != ring.power(r + 2):
                raise SolverError(f"maximal-shape contribution mismatch at level {r}")
        return result
