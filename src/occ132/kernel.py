"""Occurrence graph, kernel extraction, cell grid, decompose/assemble.

The occurrence graph of pi joins each entry (a position 1..n) to each
occurrence of 132 it takes part in.  The kernel of pi is the set of
entries in the connected component of the maximal entry n; its shape is
the order-isomorphic reduction of the kernel values.  A permutation rho
is a *kernel permutation* when it is its own kernel shape, that is, when
its occurrence graph is connected.  One union-find, read straight off
the values in O(n^2) steps without listing the occurrences
(``_occurrence_components``), gives the components and their occurrence
counts to ``build_occurrence_graph``, ``is_kernel_permutation`` and the
shape records.

For a kernel permutation rho of size s, the plane splits into an
s x (s+1) grid of open cells: column l (1 <= l <= s+1) sits strictly
between kernel positions i_{l-1} and i_l, and row m (1 <= m <= s) sits
strictly between the (m-1)-th and m-th smallest kernel values, with the
conventions i_0 = 0, i_{s+1} = n+1 and value floor 0.  A cell is
*infeasible* when any entry placed in it would close an occurrence of
132 with two kernel entries; since every kernel entry is strictly
outside the cell's open rectangle, this reduces to three bounds on the
row m per column l, all found in one pass per column
(``_feasible_cells``), so the whole grid costs O(s^2).

Feasible cells are totally ordered by the dominance order
(m, l) < (m', l') iff m >= m' and l <= l'.  ``decompose`` sends a
permutation to its shape plus the content pattern of each feasible cell
in that order; ``assemble`` is the inverse construction.

A shape's capacity and its feasible cells in dominance order are held in
one cache keyed by the values tuple (``_shape_cells``).  ``shape_record``,
``decompose``, ``assemble`` and the cell checks of ``invariants`` all read
it; a non-kernel or an incomparable pair of cells raises again on every
call.

``analyze`` is the single pass over an arbitrary permutation behind this:
one component search, and from it the kernel and the cell of every
non-kernel entry.  ``decompose`` and the structure sweep read its record.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import or_
from typing import NamedTuple, Sequence

from .perms import Permutation, reduce_to_pattern


class CellOrderError(RuntimeError):
    """Two feasible cells were incomparable under the dominance order."""


class DecompositionError(RuntimeError):
    """An entry landed in an infeasible cell, or a non-kernel component
    straddled two cells.  Either signals an implementation bug."""


class GraphComponent(NamedTuple):
    """One connected component: entry positions and occurrence count."""

    positions: tuple[int, ...]
    occurrences: int


@dataclass(frozen=True)
class Kernel:
    """Kernel of a permutation: the component of the maximal entry."""

    positions: tuple[int, ...]
    values: tuple[int, ...]
    shape: Permutation
    size: int
    capacity: int


@dataclass(frozen=True)
class KernelShapeRecord:
    """A catalogued kernel shape with everything the solver needs."""

    shape: Permutation
    size: int
    capacity: int
    cells: tuple[tuple[int, int], ...]  # feasible cells in dominance order
    lis_ne: tuple[int, ...]  # per cell: longest increasing run to its northeast

    @property
    def f(self) -> int:
        return len(self.cells)


def build_occurrence_graph(pi: Permutation) -> tuple[GraphComponent, ...]:
    """Components of the occurrence graph of pi, sorted by smallest position.

    For pi = 57614283 these are (1, 2, 3), holding one occurrence, and
    (4, 5, 6, 7, 8), holding four.
    """
    roots, counts = _occurrence_components(pi.values)
    by_root: dict[int, list[int]] = {}
    for pos, root in enumerate(roots, start=1):
        by_root.setdefault(root, []).append(pos)
    return tuple(GraphComponent(tuple(positions), counts[root]) for root, positions in by_root.items())


@dataclass(frozen=True)
class Analysis:
    """One pass over a permutation: its number of occurrences of 132, the
    components of its occurrence graph, its kernel, and the grid cell of
    every non-kernel entry (cell -> [(position, value), ...] in position
    order)."""

    occurrences: int
    components: tuple[GraphComponent, ...]
    kernel: Kernel
    placed: dict[tuple[int, int], list[tuple[int, int]]]


def analyze(pi: Permutation) -> Analysis:
    """Components, occurrence count, kernel and cell placement of a
    nonempty permutation, each derived once.

    The kernel's capacity is its component's occurrence count: the
    occurrences among kernel entries are exactly those of its shape.
    Each non-kernel entry lands in exactly one open cell (m, l), keyed
    against the kernel's positions and sorted values.
    """
    if pi.n < 1:
        raise ValueError("the empty permutation has no kernel")
    components = build_occurrence_graph(pi)
    pos_of_max = pi.values.index(pi.n) + 1
    comp = next(c for c in components if pos_of_max in c.positions)
    kpos = comp.positions
    values = tuple(pi(p) for p in kpos)
    kernel = Kernel(kpos, values, reduce_to_pattern(values), len(kpos), comp.occurrences)
    kvals = sorted(values)
    placed: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pos, val in enumerate(pi.values, start=1):
        if pos not in kpos:
            cell = (bisect_left(kvals, val) + 1, bisect_left(kpos, pos) + 1)
            placed.setdefault(cell, []).append((pos, val))
    return Analysis(sum(c.occurrences for c in components), components, kernel, placed)


def is_kernel_permutation(rho: Permutation) -> bool:
    """True iff rho is its own kernel shape."""
    return _kernel_capacity(rho.values) is not None


def _kernel_capacity(values: tuple[int, ...]) -> int | None:
    """Occurrence count of `values` if its occurrence graph is connected,
    that is, if every entry lies in the component of the maximal one;
    None otherwise (the empty sequence included).
    """
    roots, counts = _occurrence_components(values)
    return counts[roots[0]] if len(set(roots)) == 1 else None


def _occurrence_components(values: Sequence[int]) -> tuple[list[int], list[int]]:
    """Union-find over the occurrence graph of `values`, read straight off
    the values: the root of each 0-based position, and per position the
    number of occurrences of 132 in its component if it is a root (0
    otherwise).

    Each occurrence (i, j, k) is counted at its "2", j.  A "3" of j is a
    k > j with values[k] < values[j] above the minimum before j, and the
    entries before j below values[k] are its "1"s.  So j joins each of
    its "3"s, and each earlier entry below the largest of them, with
    O(n) finds per j.
    """
    n = len(values)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    at_two = [0] * n
    seen: list[int] = []  # sorted values before j
    low = n + 1  # their minimum
    for j, vj in enumerate(values):
        if low < vj:
            rj = find(j)  # stays a root: only other roots are hung under it
            top = 0
            for k in range(j + 1, n):
                vk = values[k]
                if low < vk < vj:
                    at_two[j] += bisect_left(seen, vk)
                    parent[find(k)] = rj
                    if vk > top:
                        top = vk
            if top:
                for i in range(j):
                    if values[i] < top:
                        parent[find(i)] = rj
        elif vj < low:
            low = vj
        insort(seen, vj)
    roots = [find(p) for p in range(n)]
    counts = [0] * n
    for root, count in zip(roots, at_two):
        counts[root] += count
    return roots, counts


def _feasible_cells(values: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """Feasible cells of the kernel permutation `values`, one pass per column.

    A hypothetical entry z in the open rectangle of cell (m, l) compares
    the same way with every kernel entry regardless of where exactly it
    sits, so z closes an occurrence of 132 with two kernel entries iff
    one of three configurations exists (1-based entry indices a < b,
    rank(a) = values[a-1]):

    - z opens:   a, b >= l and rank(a) > rank(b) >= m.  So m is at most
      the largest suffix rank with a larger earlier entry in the suffix.
    - z on top:  a <= l-1 < l <= b and rank(a) < rank(b) <= m-1.  So m
      is above the smallest suffix rank that exceeds the prefix minimum.
    - z closes:  a < b <= l-1 and rank(a) < m <= rank(b).  So m lies in
      a prefix-rise interval (min of the entries before b, rank(b)].

    A cell is feasible when m clears all three.  The columns are walked
    right to left over a sorted copy of the suffix for the first two
    bounds; the union of the prefix-rise intervals of each column is a
    bit mask of its closed rows.
    """
    s = len(values)
    lows = [s + 1, *accumulate(values, min)]  # lows[l-1]: minimum of entries 1..l-1
    rises = [(1 << (r + 1)) - (1 << (lo + 1)) if r > lo else 0 for lo, r in zip(lows, values)]
    closed = [0, *accumulate(rises, or_)]  # closed[l-1]: rows closed in column l
    cells = []
    suffix: list[int] = []  # sorted ranks of entries l..s
    opens = 0
    for l in range(s + 1, 0, -1):
        if l <= s:
            r = values[l - 1]
            at = bisect_left(suffix, r)
            if at and suffix[at - 1] > opens:
                opens = suffix[at - 1]
            suffix.insert(at, r)
        above = bisect_left(suffix, lows[l - 1])
        top = suffix[above] if above < len(suffix) else s
        if opens < top:
            rows = ((1 << (top + 1)) - (1 << (opens + 1))) & ~closed[l - 1]
            while rows:
                m = rows.bit_length() - 1
                cells.append((m, l))
                rows ^= 1 << m
    return frozenset(cells)


def southwest_dominated_cells(rho: Permutation) -> frozenset[tuple[int, int]]:
    """Cells with some kernel entry strictly to their southwest.

    This one-sided criterion implies infeasibility; it is kept as a
    cross-check on the pairwise procedure and is not used to build the
    grid.
    """
    s = rho.n
    out = set()
    for k in range(1, s + 1):
        rk = rho(k)
        for m in range(rk + 1, s + 1):
            for l in range(k + 1, s + 2):
                out.add((m, l))
    return frozenset(out)


def _ordered_cells(values: tuple[int, ...], feasible: frozenset[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The cells `feasible` of `values` sorted by dominance, (m, l) before
    (m', l') when m >= m' and l <= l'.

    Raises :class:`CellOrderError` if two of them are incomparable, which
    would contradict the grid construction.
    """
    cells = sorted(feasible, key=lambda ml: (ml[1], -ml[0]))
    for (m1, l1), (m2, l2) in zip(cells, cells[1:]):
        if not (m1 >= m2 and l1 <= l2):
            raise CellOrderError(
                f"feasible cells of {values} are not totally ordered: "
                f"C_{m1},{l1} vs C_{m2},{l2}"
            )
    return tuple(cells)


@lru_cache(maxsize=None)
def _shape_cells(values: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Capacity of the kernel permutation `values` and its feasible cells
    in dominance order: the one per-shape cache.

    For 1423 this is capacity 2 and cells C_41, C_13, C_14, C_15.  A
    ``ValueError`` (not a kernel) or :class:`CellOrderError` is raised
    again on every call: ``lru_cache`` keeps only results.
    """
    capacity = _kernel_capacity(values)
    if capacity is None:
        raise ValueError(f"not a kernel permutation: {values}")
    return capacity, _ordered_cells(values, _feasible_cells(values))


def shape_record(rho: Permutation) -> KernelShapeRecord:
    """Full catalog record of a kernel permutation.

    The entries northeast of a feasible cell increase (two of them in
    inversion would let an entry of the cell open a 132), so each cell's
    ``lis_ne``, the longest increasing subsequence of rho weakly to its
    northeast, is the number of those entries: entry index k with
    k >= l and rho(k) >= m.  For rho = 1423 this gives (1, 2, 1, 0).
    """
    values = rho.values
    capacity, cells = _shape_cells(values)
    return KernelShapeRecord(
        shape=rho,
        size=rho.n,
        capacity=capacity,
        cells=cells,
        lis_ne=tuple(len([r for r in values[l - 1 :] if r >= m]) for m, l in cells),
    )


_EMPTY = Permutation(())  # the content of most cells


def decompose(pi: Permutation) -> tuple[Permutation, tuple[Permutation, ...]]:
    """Kernel shape of pi plus the content pattern of each feasible cell.

    Contents are reported in dominance order of the cells.  Raises
    :class:`DecompositionError` if an entry falls in an infeasible cell
    or a non-kernel component does not sit inside a single cell.
    """
    return _decompose(pi, analyze(pi))


def _decompose(pi: Permutation, analysis: Analysis) -> tuple[Permutation, tuple[Permutation, ...]]:
    """:func:`decompose` of pi from its :func:`analyze` record."""
    kernel, placed = analysis.kernel, analysis.placed
    cells = _shape_cells(kernel.shape.values)[1]
    for cell, entries in placed.items():
        if cell not in cells:
            raise DecompositionError(
                f"entries {entries} of {pi} fell in infeasible cell {cell}"
            )
    cell_of_pos = {pos: cell for cell, entries in placed.items() for pos, _ in entries}
    for comp in analysis.components:
        if comp.positions == kernel.positions:
            continue
        comp_cells = {cell_of_pos[p] for p in comp.positions}
        if len(comp_cells) != 1:
            raise DecompositionError(
                f"component {comp.positions} of {pi} straddles cells {sorted(comp_cells)}"
            )
    contents = tuple(
        reduce_to_pattern([val for _, val in placed[cell]]) if cell in placed else _EMPTY
        for cell in cells
    )
    return kernel.shape, contents


def assemble(rho: Permutation, contents: Sequence[Permutation]) -> Permutation:
    """The unique permutation with kernel shape rho whose cell contents
    are order-isomorphic to `contents` (one per feasible cell, in
    dominance order).

    Within a row, cells further left receive strictly larger value
    blocks; within a column, cells further up receive strictly earlier
    position blocks.  These allocations are forced by the grid, so the
    construction is canonical and inverts :func:`decompose`.
    """
    cells = _shape_cells(rho.values)[1]
    if len(contents) != len(cells):
        raise ValueError(f"expected {len(cells)} cell contents, got {len(contents)}")
    s = rho.n
    row_total = [0] * (s + 1)
    col_total = [0] * (s + 2)
    for (m, l), alpha in zip(cells, contents):
        row_total[m] += alpha.n
        col_total[l] += alpha.n
    n = s + sum(row_total)

    # Kernel coordinates after making room for the cell blocks.
    val_of_rank = [0] * (s + 1)
    acc = 0
    for m in range(1, s + 1):
        acc += row_total[m]
        val_of_rank[m] = acc + m
    pos_of_index = [0] * (s + 1)
    acc = 0
    for k in range(1, s + 1):
        acc += col_total[k]
        pos_of_index[k] = acc + k

    result = [0] * (n + 1)
    for k in range(1, s + 1):
        result[pos_of_index[k]] = val_of_rank[rho(k)]
    # One walk in dominance order (l ascending, m descending within a
    # column): a row's leftmost cell comes first and takes the top of the
    # row's value band; a column's highest cell comes first and sits
    # leftmost in the column's position band.
    top = [v - 1 for v in val_of_rank]
    left = [0, *pos_of_index]
    for (m, l), alpha in zip(cells, contents):
        low, start = top[m] - alpha.n, left[l]
        for t, a in enumerate(alpha.values, start=1):
            result[start + t] = low + a
        top[m] = low
        left[l] = start + alpha.n
    return Permutation(tuple(result[1:]))
