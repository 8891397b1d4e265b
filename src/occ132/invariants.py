"""Exhaustive structural checks over small symmetric groups.

Each check sweeps every permutation up to a size bound and returns a
list of violation descriptions (empty means the property held).  They
back the `check-invariants` CLI command and the acceptance suite.

The count rests on decompose/assemble being a bijection between the
permutations of size <= N and the domain D of pairs (rho, c): a kernel
permutation rho and one permutation c_i per feasible cell of rho, with
assembled size |rho| + sum |c_i| <= N.  ``structure_sweep`` checks both
directions in its one pass over the permutations:

- forward (``roundtrip decompose-assemble``): assemble(decompose(pi)) == pi
  for every pi, so decompose has a left inverse;
- inverse (``assemble/decompose inverse``): every decompose(pi) lies in D,
  and D holds exactly n! pairs of assembled size n, for each n <= N.

Membership in D is read off the pair itself, and the sizes of D are
counted from the kernel permutations and their cell counts: each cell
takes any permutation, so a kernel of size s with f cells holds
[x^e] (sum_j j! x^j)^f pairs of assembled size s + e.  D is neither
listed nor assembled nor decomposed.

Why this proves decompose(assemble(rho, c)) == (rho, c) for every
(rho, c) in D, the property that needed a second analysis of every
permutation when it was checked pair by pair: forward makes decompose
injective, and size-preserving since assemble(rho, c) has size
|rho| + sum |c_i|.  With the inverse check, decompose maps the n!
permutations of size n into the n! pairs of D of that size, so it hits
every one of them.  So (rho, c) = decompose(pi) for some pi, and by
forward decompose(assemble(rho, c)) = decompose(pi) = (rho, c).
Conversely, a pair of D for which the property fails is either the
decomposition of a pi for which forward fails, or the decomposition of
no permutation, and then, if forward holds, D has more than n! pairs of
its size.  Each check isolates one property: forward is the left
inverse, the inverse check is "decompose lands exactly on D".  A
permutation that does not decompose at all is reported by the cell
check only, since the inverse check counts D from the kernels.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations as iter_permutations
from math import factorial
from typing import Sequence

from .kernel import (
    CellOrderError,
    DecompositionError,
    _feasible_cells,
    _shape_cells,
    analyze,
    assemble,
    decompose,
    southwest_dominated_cells,
)
from .perms import Permutation
from .shapes import iter_kernel_permutations

# Each check of structure_sweep, with what its size bound N ranges over.
STRUCTURE_CHECKS = {
    "component size bound": "all sizes",
    "kernel size bound": "all sizes",
    "components inside single cells": "all sizes",
    "row value dominance": "all sizes",
    "column position dominance": "all sizes",
    "roundtrip decompose-assemble": "all sizes",
    "assemble/decompose inverse": "assembled size",
}


def structure_sweep(max_n: int, kernels: Sequence[Permutation] | None = None) -> dict[str, list[str]]:
    """Run all structural checks over S_1..S_max_n, one analysis per permutation.

    - every occurrence-graph component has at most 2t + 1 entries when it
      holds t occurrences;
    - the kernel has at most 2r + 1 entries when pi has r occurrences;
    - every non-kernel component sits inside one feasible cell;
    - within a grid row, cells further left hold strictly larger values;
    - within a grid column, cells further up sit strictly further left;
    - assemble(decompose(pi)) == pi;
    - decompose(pi) lies in the domain D counted from `kernels` (all
      kernel permutations of size <= max_n, searched when not given), and
      D has n! pairs of each assembled size n.
    """
    if kernels is None:
        kernels = iter_kernel_permutations(max_n)
    cell_count = {rho.values: len(_feasible_cells(rho.values)) for rho in kernels}
    # A kernel of size s with f cells holds [x^e] (sum_j j! x^j)^f pairs of
    # assembled size s + e.
    domain_sizes: Counter[int] = Counter()
    for (s, f), kernels_alike in Counter((rho.n, cell_count[rho.values]) for rho in kernels).items():
        pairs = [1] + [0] * (max_n - s)
        for _ in range(f):
            pairs = [sum(pairs[i] * factorial(e - i) for i in range(e + 1)) for e in range(len(pairs))]
        for e, count in enumerate(pairs):
            domain_sizes[s + e] += kernels_alike * count
    violations: dict[str, list[str]] = {name: [] for name in STRUCTURE_CHECKS}
    for n in range(1, max_n + 1):
        for values in iter_permutations(range(1, n + 1)):
            pi = Permutation(values)
            analysis = analyze(pi)
            r = analysis.occurrences
            for comp in analysis.components:
                if len(comp.positions) > 2 * comp.occurrences + 1:
                    violations["component size bound"].append(f"{pi}: component {comp.positions}")
            kernel = analysis.kernel
            if kernel.size > 2 * r + 1:
                violations["kernel size bound"].append(f"{pi}: kernel size {kernel.size}, r={r}")
            try:
                shape, contents = decompose(pi, analysis)
            except (DecompositionError, CellOrderError) as exc:
                violations["components inside single cells"].append(f"{pi}: {exc}")
                continue
            placed = analysis.placed
            for (m1, l1), entries1 in placed.items():
                for (m2, l2), entries2 in placed.items():
                    if m1 == m2 and l1 < l2:
                        if min(v for _, v in entries1) <= max(v for _, v in entries2):
                            violations["row value dominance"].append(f"{pi}: C{m1},{l1} vs C{m2},{l2}")
                    if l1 == l2 and m1 < m2:
                        if min(p for p, _ in entries1) <= max(p for p, _ in entries2):
                            violations["column position dominance"].append(
                                f"{pi}: C{m1},{l1} vs C{m2},{l2}"
                            )
            if assemble(shape, contents) != pi:
                violations["roundtrip decompose-assemble"].append(f"{pi}")
            if (cell_count.get(shape.values) != len(contents)
                    or shape.n + sum(map(len, contents)) > max_n):
                violations["assemble/decompose inverse"].append(
                    f"decompose({pi}) = ({shape}, {[str(a) for a in contents]}) lies outside the domain"
                )
    for n in range(1, max_n + 1):
        if domain_sizes[n] != factorial(n):
            violations["assemble/decompose inverse"].append(
                f"{domain_sizes[n]} pairs of assembled size {n} enumerated for {factorial(n)} permutations"
            )
    return violations


def cell_order_totality(shapes) -> list[str]:
    """Dominance order must be total on the feasible cells of each shape."""
    violations = []
    for rho in shapes:
        try:
            _shape_cells(rho.values)
        except CellOrderError as exc:
            violations.append(str(exc))
    return violations


def one_sided_criterion_subsumed(shapes) -> list[str]:
    """Cells with a kernel entry to the southwest must come out infeasible."""
    violations = []
    for rho in shapes:
        overlap = southwest_dominated_cells(rho).intersection(_shape_cells(rho.values)[1])
        if overlap:
            violations.append(f"{rho}: southwest-dominated cells marked feasible: {sorted(overlap)}")
    return violations
