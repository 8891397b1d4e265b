"""Occurrence graph, kernel extraction, cell grid, decompose/assemble.

The occurrence graph of pi joins each entry (a position 1..n) to each
occurrence of 132 it takes part in.  The kernel of pi is the set of
entries in the connected component of the maximal entry n; its shape is
the order-isomorphic reduction of the kernel values.  A permutation rho
is a *kernel permutation* when it is its own kernel shape, that is, when
its occurrence graph is connected.  One union-find, read straight off
the values in O(n^2) steps without listing the occurrences
(``_occurrence_components``), gives the components and their occurrence
counts to ``analyze`` and the shape records.

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
in that order; ``assemble`` is the inverse construction, one sort of
position and value keys.

A shape's feasible cells in dominance order are held in one cache keyed
by the values tuple (``_shape_cells``).  ``decompose``, ``assemble`` and
the cell checks of ``invariants`` read it; a non-kernel or an
incomparable pair of cells raises again on every call.  The structure
sweep fills it for the shape search's kernels through ``_kernel_cells``,
which skips the union-find that proves an argument is a kernel.  A
catalog row's cells and northeast runs come from one uncached helper
(``_cells_and_runs``).  The shape search's jobs call it beside the
capacity they counted themselves; ``shape_record`` calls it beside the
capacity of the union-find.

``analyze`` is the single pass over an arbitrary permutation behind this:
one component search, and from it the kernel and the cell of every
non-kernel entry.  ``decompose`` and the structure sweep read its record.
These three and ``shape_record`` take and return tuples of one-line
values, as the cell helpers do, and their records are named tuples: the
exhaustive sweep calls them once per permutation and builds no
``Permutation``, and a catalog record (``KernelShapeRecord``) is the
very row a search job returns, its shape the tuple of one-line values.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import accumulate
from operator import or_
from typing import NamedTuple, Sequence

from .perms import Permutation, perm_to_str, reduce_to_pattern


class CellOrderError(RuntimeError):
    """Two feasible cells were incomparable under the dominance order."""


class DecompositionError(RuntimeError):
    """An entry landed in an infeasible cell, or a non-kernel component
    straddled two cells.  Either signals an implementation bug."""


class Kernel(NamedTuple):
    """Kernel of a permutation: the component of the maximal entry."""

    positions: tuple[int, ...]
    shape: tuple[int, ...]
    size: int
    capacity: int


class KernelShapeRecord(NamedTuple):
    """A catalogued kernel shape with everything the solver needs: the
    row a search job returns."""

    shape: tuple[int, ...]  # one-line values
    capacity: int
    cells: tuple[tuple[int, int], ...]  # feasible cells in dominance order
    lis_ne: tuple[int, ...]  # per cell: longest increasing run to its northeast

    @property
    def size(self) -> int:
        return len(self.shape)


def build_occurrence_graph(pi: Permutation) -> list[tuple[tuple[int, ...], int]]:
    """Components of the occurrence graph of pi as (positions, occurrences),
    sorted by smallest position: those of :func:`analyze`.

    For pi = 57614283 these are (1, 2, 3), holding one occurrence, and
    (4, 5, 6, 7, 8), holding four.
    """
    return analyze(pi.values).components if pi.n else []


class Analysis(NamedTuple):
    """One pass over a permutation: its number of occurrences of 132, the
    components of its occurrence graph as (positions, occurrences) sorted
    by smallest position, its kernel, and the grid cell of every
    non-kernel entry (cell -> [(position, value), ...] in position
    order)."""

    occurrences: int
    components: list[tuple[tuple[int, ...], int]]
    kernel: Kernel
    placed: dict[tuple[int, int], list[tuple[int, int]]]


def analyze(pi: tuple[int, ...]) -> Analysis:
    """Components, occurrence count, kernel and cell placement of a
    nonempty permutation, each derived once.

    The kernel's capacity is its component's occurrence count: the
    occurrences among kernel entries are exactly those of its shape.
    Each non-kernel entry lands in exactly one open cell (m, l): l - 1
    kernel entries precede it and m - 1 kernel values lie below it.
    """
    if not pi:
        raise ValueError("the empty permutation has no kernel")
    roots, counts = _occurrence_components(pi)
    top = roots[pi.index(len(pi))]
    kpos: list[int] = []
    values: list[int] = []
    others = []  # (position, value, column) of each non-kernel entry
    by_root: dict[int, list[int]] = {}
    for pos, (val, root) in enumerate(zip(pi, roots), start=1):
        if root == top:
            kpos.append(pos)
            values.append(val)
        else:
            others.append((pos, val, len(kpos) + 1))
        by_root.setdefault(root, []).append(pos)
    kvals = sorted(values)
    placed: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for pos, val, l in others:
        placed.setdefault((bisect_left(kvals, val) + 1, l), []).append((pos, val))
    components = [(tuple(positions), counts[root]) for root, positions in by_root.items()]
    # a kernel permutation (no entry outside its kernel) is its own shape
    shape = reduce_to_pattern(values) if others else tuple(pi)
    kernel = Kernel(tuple(kpos), shape, len(kpos), counts[top])
    return Analysis(sum(counts), components, kernel, placed)


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
    at_two = [0] * n
    seen: list[int] = []  # sorted values before j
    low = n + 1  # their minimum
    # finds inlined, halving the path: a call per find cost a fifth of the read at n = 7
    for j, vj in enumerate(values):
        if low < vj:
            rj = j
            while parent[rj] != rj:
                rj = parent[rj]  # stays a root: only other roots are hung under it
            top = 0
            for k in range(j + 1, n):
                vk = values[k]
                if low < vk < vj:
                    at_two[j] += bisect_left(seen, vk)
                    a = k
                    while parent[a] != a:
                        parent[a] = a = parent[parent[a]]
                    parent[a] = rj
                    if vk > top:
                        top = vk
            if top:
                for i in range(j):
                    if values[i] < top:
                        a = i
                        while parent[a] != a:
                            parent[a] = a = parent[parent[a]]
                        parent[a] = rj
        elif vj < low:
            low = vj
        insort(seen, vj)
    roots = []
    for a in range(n):
        while parent[a] != a:
            a = parent[a]
        roots.append(a)
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


_CELL_CACHE: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}


def _shape_cells(values: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Feasible cells of the kernel permutation `values` in dominance
    order: the one per-shape cache.

    For 1423 these are C_41, C_13, C_14, C_15.  A ``ValueError`` (not a
    kernel) or :class:`CellOrderError` is raised again on every call:
    the cache keeps only results.
    """
    cells = _CELL_CACHE.get(values)
    if cells is None:
        if _kernel_capacity(values) is None:
            raise ValueError(f"not a kernel permutation: {values}")
        cells = _kernel_cells(values)
    return cells


_shape_cells.cache_clear = _CELL_CACHE.clear


def _kernel_cells(values: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """:func:`_shape_cells` of a permutation already known to be a kernel
    permutation, such as one the shape search produced: it runs no
    union-find, and caches the cells for :func:`_shape_cells`."""
    cells = _CELL_CACHE[values] = _ordered_cells(values, _feasible_cells(values))
    return cells


def _cells_and_runs(values: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The catalog fields of the kernel permutation `values` that its
    capacity does not give: its feasible cells in dominance order and each
    cell's northeast run.

    The entries northeast of a feasible cell increase (two of them in
    inversion would let an entry of the cell open a 132), so a cell's
    ``lis_ne``, the longest increasing subsequence of `values` weakly to
    its northeast, is the number of those entries: entry index k with
    k >= l and values[k-1] >= m.  For 1423 the runs are (1, 2, 1, 0).
    Raises :class:`CellOrderError` as :func:`_ordered_cells` does; it
    does not check that `values` is a kernel permutation.
    """
    cells = _ordered_cells(values, _feasible_cells(values))
    return cells, tuple(len([r for r in values[l - 1 :] if r >= m]) for m, l in cells)


def shape_record(values: tuple[int, ...]) -> KernelShapeRecord:
    """Full catalog record of the kernel permutation `values`, its
    capacity counted by the occurrence graph's union-find.  Raises
    ``ValueError`` when `values` is not a kernel permutation.
    """
    capacity = _kernel_capacity(values)
    if capacity is None:
        raise ValueError(f"not a kernel permutation: {values}")
    return KernelShapeRecord(values, capacity, *_cells_and_runs(values))


def decompose(pi: tuple[int, ...], analysis: Analysis) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Kernel shape of pi plus the content pattern of each feasible cell,
    read from ``analysis = analyze(pi)``.

    Contents are reported in dominance order of the cells.  Raises
    :class:`DecompositionError` if an entry falls in an infeasible cell
    or a non-kernel component does not sit inside a single cell.
    """
    kernel, placed = analysis.kernel, analysis.placed
    cells = _shape_cells(kernel.shape)
    for cell, entries in placed.items():
        if cell not in cells:
            raise DecompositionError(
                f"entries {entries} of {perm_to_str(pi)} fell in infeasible cell {cell}"
            )
    cell_of_pos = {pos: cell for cell, entries in placed.items() for pos, _ in entries}
    for positions, _ in analysis.components:
        # one entry sits in one cell, and the kernel's entries sit in none
        if len(positions) > 1 and positions != kernel.positions:
            comp_cells = {cell_of_pos[p] for p in positions}
            if len(comp_cells) != 1:
                raise DecompositionError(
                    f"component {positions} of {perm_to_str(pi)} straddles cells {sorted(comp_cells)}"
                )
    contents = tuple(
        () if cell not in placed
        else (1,) if len(placed[cell]) == 1
        else reduce_to_pattern([val for _, val in placed[cell]])
        for cell in cells
    )
    return kernel.shape, contents


def assemble(rho: tuple[int, ...], contents: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The unique permutation with kernel shape rho whose cell contents
    are order-isomorphic to `contents` (one per feasible cell, in
    dominance order).

    Every entry gets a position key and a value key.  Kernel entry k
    gets (2k, 0, 0) and (2 rho(k), 0, 0); entry t (from 0) of the
    content alpha of cell (m, l) gets (2l - 1, -m, t) and
    (2m - 1, -l, alpha_t).  So a cell's entries sit between kernel
    positions l - 1 and l and between kernel values m - 1 and m; within
    a column, cells further up sit further left, and within a row,
    cells further left take larger values.  These allocations are
    forced by the grid, so the pattern of the value keys taken in
    position-key order is canonical and inverts :func:`decompose`.
    """
    cells = _shape_cells(rho)
    if len(contents) != len(cells):
        raise ValueError(f"expected {len(cells)} cell contents, got {len(contents)}")
    keys = [((2 * k, 0, 0), (2 * r, 0, 0)) for k, r in enumerate(rho, start=1)]
    keys += [((2 * l - 1, -m, t), (2 * m - 1, -l, a))
             for (m, l), alpha in zip(cells, contents) for t, a in enumerate(alpha)]
    keys.sort()
    return reduce_to_pattern([value for _, value in keys])
