"""Exhaustive structural checks over small symmetric groups.

``structure_sweep(N)`` runs every check that `check-invariants` prints
and returns each one's list of violation descriptions (empty means the
property held), keyed as in ``STRUCTURE_CHECKS``.  The cell order and
the one-sided criterion are checked once per kernel permutation of size
<= N, the others in one analysis of each permutation of size <= N.
The one-sided criterion is read per feasible cell.  A permutation whose
analysis places no entry outside its kernel is a kernel permutation:
its own shape with every cell empty, which is what ``decompose`` returns
for it and what ``assemble`` turns back into it, so it is checked only
to be one of the kernels the shape search found.  A permutation is
the tuple of its one-line values, which ``analyze``, ``decompose`` and
``assemble``, the functions checked, take and return.

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
check, or by the order check when its shape's cells are not totally
ordered, and not by the inverse check, which counts D from the kernels.

The sweep is split into jobs of (n, first entry), as the brute-force
oracle splits its sweep.  Each job returns its violations in sweep
order, and the lists are joined in (n, first) order, which is the
lexicographic order of the permutations: with a worker pool of any size
every list, and every message's place in it, is the one a serial sweep
gives.  The kernel pass and the domain count run in the calling
process, the kernel pass before the pool starts, so that forked workers
inherit the filled cell cache.  The kernel pass fills that cache through
``kernel._kernel_cells``: the search proved each of its permutations a
kernel, so the union-find that guards ``_shape_cells`` against a
non-kernel shape is not run on them again.  The jobs go to
``jobs.run_jobs``, which hands each worker the cell counts and the size
bound through the pool initializer, so the result does not depend on the
start method.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from itertools import permutations as iter_permutations
from math import factorial
from typing import Iterable

from .kernel import (
    CellOrderError,
    DecompositionError,
    _feasible_cells,
    _kernel_cells,
    analyze,
    assemble,
    decompose,
)
from .jobs import run_jobs
from .perms import perm_to_str
from .shapes import iter_kernel_permutations

# The largest size bound structure_sweep accepts (S_10 has 3.6 M permutations).
SWEEP_GUARD = 10

# With threads > 1, a sweep runs in a worker pool from this size bound on.
# At max_n = 7 a pool of two moved the wall time of check-invariants by -21,
# +40 and -35 ms (from 0.238, 0.259 and 0.318 s in one process) for 38 to
# 73 ms more CPU time, its import included; at 8 it saved 0.49 and 0.99 s
# of 1.64 and 2.45 s (medians of 10-20 alternating fresh runs in each of
# three sets; shared 2-vCPU Xeon hosts, Python 3.11.7).
POOL_FROM_MAX_N = 8

# Each check of structure_sweep in report order, with what its size bound N
# ranges over; None for the two checks made once per kernel permutation.
STRUCTURE_CHECKS = {
    "component size bound": "all sizes",
    "kernel size bound": "all sizes",
    "components inside single cells": "all sizes",
    "row value dominance": "all sizes",
    "column position dominance": "all sizes",
    "roundtrip decompose-assemble": "all sizes",
    "assemble/decompose inverse": "assembled size",
    "feasible-cell order total": None,
    "one-sided infeasibility criterion subsumed": None,
}


def structure_sweep(max_n: int, threads: int = 1) -> dict[str, list[str]]:
    """Run all structural checks up to size max_n, one analysis per permutation.

    - the feasible cells of each kernel permutation of size <= max_n are
      totally ordered by dominance, and none has a kernel entry to its
      southwest;

    - every occurrence-graph component has at most 2t + 1 entries when it
      holds t occurrences;
    - the kernel has at most 2r + 1 entries when pi has r occurrences;
    - every non-kernel component sits inside one feasible cell;
    - within a grid row, cells further left hold strictly larger values;
    - within a grid column, cells further up sit strictly further left;
    - assemble(decompose(pi)) == pi;
    - decompose(pi) lies in the domain D counted from the kernel
      permutations, and D has n! pairs of each assembled size n.

    The permutations are swept as jobs of (n, first entry); with
    threads > 1 and max_n >= POOL_FROM_MAX_N (8) the jobs run in a worker
    pool, and every smaller sweep runs in this process.  Raises
    ValueError before any work when max_n is not in 1..SWEEP_GUARD.
    """
    if not 1 <= max_n <= SWEEP_GUARD:
        raise ValueError(f"max_n must be in 1..{SWEEP_GUARD} (the sweep guard), got {max_n}")
    violations: dict[str, list[str]] = {name: [] for name in STRUCTURE_CHECKS}
    cell_count = {}
    for rho in iter_kernel_permutations(max_n):
        try:
            cells = _kernel_cells(rho)  # the search proved rho a kernel
        except CellOrderError as exc:
            violations["feasible-cell order total"].append(str(exc))
            cells = _feasible_cells(rho)
        cell_count[rho] = len(cells)
        overlap = _southwest_dominated(rho, cells)
        if overlap:
            violations["one-sided infeasibility criterion subsumed"].append(
                f"{perm_to_str(rho)}: southwest-dominated cells marked feasible: {sorted(overlap)}")
    # A kernel of size s with f cells holds [x^e] (sum_j j! x^j)^f pairs of
    # assembled size s + e.
    domain_sizes: Counter[int] = Counter()
    for (s, f), kernels_alike in Counter((len(values), f) for values, f in cell_count.items()).items():
        pairs = [1] + [0] * (max_n - s)
        for _ in range(f):
            pairs = [sum(pairs[i] * factorial(e - i) for i in range(e + 1)) for e in range(len(pairs))]
        for e, count in enumerate(pairs):
            domain_sizes[s + e] += kernels_alike * count
    # (n, first) in lexicographic order, the order of the permutations
    jobs = [(n, first) for n in range(1, max_n + 1) for first in range(1, n + 1)]
    # Largest n first, so the longest jobs start first.
    parts = run_jobs(_sweep_class, jobs[::-1], threads if max_n >= POOL_FROM_MAX_N else 1, (cell_count, max_n))
    for part in reversed(parts):
        for name, message in part:
            violations[name].append(message)
    for n in range(1, max_n + 1):
        if domain_sizes[n] != factorial(n):
            violations["assemble/decompose inverse"].append(
                f"{domain_sizes[n]} pairs of assembled size {n} enumerated for {factorial(n)} permutations"
            )
    return violations


def _southwest_dominated(values: tuple[int, ...], cells: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The cells (m, l) among `cells` with a kernel entry strictly to their
    southwest, that is, with the minimum of entries 1..l-1 below m."""
    lows = [len(values) + 1, *accumulate(values, min)]  # lows[l-1]: minimum of entries 1..l-1
    return [(m, l) for m, l in cells if lows[l - 1] < m]


def _sweep_class(
    n: int, first: int, cell_count: dict[tuple[int, ...], int], max_n: int
) -> list[tuple[str, str]]:
    """The violations, as (check, message) in sweep order, of the
    permutations of S_n that begin with `first`."""
    violations = []
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in iter_permutations(rest):
        pi = (first, *tail)
        analysis = analyze(pi)
        r = analysis.occurrences
        for positions, occurrences in analysis.components:
            if len(positions) > 2 * occurrences + 1:
                violations.append(("component size bound", f"{perm_to_str(pi)}: component {positions}"))
        kernel = analysis.kernel
        if kernel.size > 2 * r + 1:
            violations.append(("kernel size bound", f"{perm_to_str(pi)}: kernel size {kernel.size}, r={r}"))
        placed = analysis.placed
        if not placed:
            # a kernel permutation: its own shape, every cell empty, which
            # decompose would return and assemble turn back into pi
            if pi not in cell_count:
                violations.append(("assemble/decompose inverse",
                                   f"{perm_to_str(pi)}: a kernel permutation the search did not find"))
            continue
        try:
            shape, contents = decompose(pi, analysis)
        except DecompositionError as exc:
            violations.append(("components inside single cells", f"{perm_to_str(pi)}: {exc}"))
            continue
        except CellOrderError as exc:
            violations.append(("feasible-cell order total", f"{perm_to_str(pi)}: {exc}"))
            continue
        # per cell: the extremes of its positions (entries are in position order) and values
        extremes = [(cell, entries[0][0], entries[-1][0], min(v for _, v in entries), max(v for _, v in entries))
                    for cell, entries in placed.items()]
        for (m1, l1), p_low, _, v_low, _ in extremes:
            for (m2, l2), _, p_high, _, v_high in extremes:
                if m1 == m2 and l1 < l2 and v_low <= v_high:
                    violations.append(("row value dominance", f"{perm_to_str(pi)}: C{m1},{l1} vs C{m2},{l2}"))
                if l1 == l2 and m1 < m2 and p_low <= p_high:
                    violations.append(
                        ("column position dominance", f"{perm_to_str(pi)}: C{m1},{l1} vs C{m2},{l2}"))
        if assemble(shape, contents) != pi:
            violations.append(("roundtrip decompose-assemble", perm_to_str(pi)))
        if cell_count.get(shape) != len(contents) or len(shape) + sum(map(len, contents)) > max_n:
            violations.append((
                "assemble/decompose inverse",
                f"decompose({perm_to_str(pi)}) = ({perm_to_str(shape)}, "
                f"{[perm_to_str(a) for a in contents]}) lies outside the domain",
            ))
    return violations
