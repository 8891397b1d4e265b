"""Exhaustive structural checks over small symmetric groups.

Each check sweeps every permutation up to a size bound and returns a
list of violation descriptions (empty means the property held).  They
back the `check-invariants` CLI command and the acceptance suite.
"""

from __future__ import annotations

from itertools import permutations as iter_permutations

from .kernel import (
    CellOrderError,
    DecompositionError,
    _decompose,
    analyze,
    assemble,
    cell_decomposition,
    decompose,
    order_feasible_cells,
    southwest_dominated_cells,
)
from .perms import Permutation
from .shapes import iter_kernel_permutations

STRUCTURE_CHECKS = (
    "component size bound",
    "kernel size bound",
    "components inside single cells",
    "row value dominance",
    "column position dominance",
    "roundtrip decompose-assemble",
)


def structure_sweep(max_n: int) -> dict[str, list[str]]:
    """Run all per-permutation structural checks over S_1..S_max_n.

    - every occurrence-graph component has at most 2*t3 + 1 entries;
    - the kernel has at most 2r + 1 entries when pi has r occurrences;
    - every non-kernel component sits inside one feasible cell;
    - within a grid row, cells further left hold strictly larger values;
    - within a grid column, cells further up sit strictly further left;
    - assemble(decompose(pi)) == pi.
    """
    violations: dict[str, list[str]] = {name: [] for name in STRUCTURE_CHECKS}
    for n in range(1, max_n + 1):
        for values in iter_permutations(range(1, n + 1)):
            pi = Permutation(values)
            analysis = analyze(pi)
            r = len(analysis.occurrences)
            for comp in analysis.components:
                if comp.t1 > 2 * comp.t3 + 1:
                    violations["component size bound"].append(f"{pi}: component {comp.positions}")
            kernel = analysis.kernel
            if kernel.size > 2 * r + 1:
                violations["kernel size bound"].append(f"{pi}: kernel size {kernel.size}, r={r}")
            try:
                shape, contents = _decompose(pi, analysis)
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
    return violations


def _content_tuples(f: int, budget: int):
    """All tuples of f permutations with total size <= budget."""
    if f == 0:
        yield ()
        return
    for size in range(budget + 1):
        for head_values in iter_permutations(range(1, size + 1)):
            head = Permutation(head_values)
            for tail in _content_tuples(f - 1, budget - size):
                yield (head, *tail)


def roundtrip_backward(max_size: int) -> list[str]:
    """decompose(assemble(rho, contents)) must return (rho, contents) for
    every kernel permutation rho and contents with assembled size <= max_size."""
    violations = []
    for rho in iter_kernel_permutations(max_size):
        dec = cell_decomposition(rho)
        f = len(order_feasible_cells(dec))
        for contents in _content_tuples(f, max_size - rho.n):
            pi = assemble(rho, contents)
            if pi.n > max_size:
                violations.append(f"assemble({rho}, ...) overshot size: {pi}")
                continue
            try:
                shape2, contents2 = decompose(pi)
            except (DecompositionError, CellOrderError) as exc:
                violations.append(f"assemble({rho}, {[str(a) for a in contents]}): {exc}")
                continue
            if shape2 != rho or tuple(contents2) != tuple(contents):
                violations.append(
                    f"roundtrip failed: ({rho}, {[str(a) for a in contents]}) -> "
                    f"{pi} -> ({shape2}, {[str(a) for a in contents2]})"
                )
    return violations


def cell_order_totality(shapes) -> list[str]:
    """Dominance order must be total on the feasible cells of each shape."""
    violations = []
    for rho in shapes:
        try:
            order_feasible_cells(cell_decomposition(rho))
        except CellOrderError as exc:
            violations.append(str(exc))
    return violations


def one_sided_criterion_subsumed(shapes) -> list[str]:
    """Cells with a kernel entry to the southwest must come out infeasible."""
    violations = []
    for rho in shapes:
        dec = cell_decomposition(rho)
        overlap = southwest_dominated_cells(rho) & dec.feasible
        if overlap:
            violations.append(f"{rho}: southwest-dominated cells marked feasible: {sorted(overlap)}")
    return violations
