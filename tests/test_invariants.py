"""Each structure check reports a defect planted for it, and no other check does.

A clean sweep only shows something if the checks can fail, so every
check in ``STRUCTURE_CHECKS`` gets a planted defect here: the analysis
record, the cell order, the per-cell one-sided predicate, ``decompose``
or ``assemble`` is replaced through monkeypatch.  A sweep in a worker
pool reports the serial sweep's lists.
"""

import multiprocessing
from itertools import combinations

import pytest

import occ132.invariants
import occ132.kernel
from occ132.invariants import STRUCTURE_CHECKS, _southwest_dominated, structure_sweep
from occ132.kernel import CellOrderError, analyze, assemble, decompose
from occ132.shapes import iter_kernel_permutations

from helpers import southwest_dominated_cells


def _plant_analysis(monkeypatch, edit):
    monkeypatch.setattr(occ132.invariants, "analyze", lambda pi: edit(analyze(pi)))


def _lost_occurrences(a):
    return a._replace(components=[(positions, 0) for positions, _ in a.components])


def _oversized_kernel(a):
    return a._replace(kernel=a.kernel._replace(size=a.kernel.size + 2))


def _off_by_one_cells(a):
    return a._replace(placed={(m - 1, l - 1): entries for (m, l), entries in a.placed.items()})


def _swap_one_entry_cells(axis):
    """Exchange the values (axis 0: two cells of a row) or the positions
    (axis 1: two cells of a column) of two one-entry cells."""

    def edit(a):
        placed = a.placed
        for c1, c2 in combinations(sorted(placed), 2):
            if c1[axis] == c2[axis] and len(placed[c1]) == len(placed[c2]) == 1:
                (p1, v1), (p2, v2) = placed[c1][0], placed[c2][0]
                e1, e2 = ((p1, v2), (p2, v1)) if axis == 0 else ((p2, v1), (p1, v2))
                return a._replace(placed={**placed, c1: [e1], c2: [e2]})
        return a

    return edit


def _incomparable_cells(mp):
    def planted(values, feasible):
        raise CellOrderError(f"planted: cells of {values} incomparable")

    mp.setattr(occ132.kernel, "_ordered_cells", planted)
    occ132.kernel._shape_cells.cache_clear()  # else cached orders skip the plant


def _swap_first_two(assemble):
    def planted(rho, contents):
        values = assemble(rho, contents)
        return values[1::-1] + values[2:]

    return planted


def _extra_empty_content(mp):
    """decompose appends an empty content that assemble drops again: the
    forward roundtrip holds, but decompose leaves the enumerated domain."""
    decompose, assemble = occ132.invariants.decompose, occ132.invariants.assemble

    def planted(pi, analysis):
        shape, contents = decompose(pi, analysis)
        return shape, (*contents, ())

    mp.setattr(occ132.invariants, "decompose", planted)
    mp.setattr(occ132.invariants, "assemble", lambda rho, contents: assemble(rho, contents[:-1]))


# Two nonempty cells first share a column at n = 6 (531462, shape 1342), so
# the column check needs that size; every other defect shows at n <= 4.
PLANTS = {
    "lost occurrences": ("component size bound", 4, lambda mp: _plant_analysis(mp, _lost_occurrences)),
    "oversized kernel": ("kernel size bound", 4, lambda mp: _plant_analysis(mp, _oversized_kernel)),
    "entry in infeasible cell": (
        "components inside single cells", 4, lambda mp: _plant_analysis(mp, _off_by_one_cells)),
    "cell order error": ("feasible-cell order total", 4, _incomparable_cells),
    "southwest-dominated feasible cells": (
        "one-sided infeasibility criterion subsumed", 4,
        lambda mp: mp.setattr(occ132.invariants, "_southwest_dominated", lambda values, cells: list(cells))),
    "swapped value blocks": (
        "row value dominance", 4, lambda mp: _plant_analysis(mp, _swap_one_entry_cells(0))),
    "swapped position blocks": (
        "column position dominance", 6, lambda mp: _plant_analysis(mp, _swap_one_entry_cells(1))),
    "assemble swaps two entries": (
        "roundtrip decompose-assemble", 4,
        lambda mp: mp.setattr(occ132.invariants, "assemble", _swap_first_two(occ132.invariants.assemble))),
    "extra empty content": ("assemble/decompose inverse", 4, _extra_empty_content),
}


def test_sweep_predicate_picks_the_southwest_dominated_cells():
    # on the whole grid, so that the predicate has cells to pick: on the
    # feasible cells both sides are empty
    for rho in iter_kernel_permutations(8):
        s = len(rho)
        grid = [(m, l) for l in range(1, s + 2) for m in range(s, 0, -1)]
        dominated = southwest_dominated_cells(rho)
        assert _southwest_dominated(rho, grid) == [cell for cell in grid if cell in dominated], rho


def test_filled_cell_cache_still_rejects_non_kernel_shapes():
    # the sweep fills the cell cache without the kernel check, for the
    # kernels the search found; every other shape is still checked, on
    # every call
    structure_sweep(4)
    assert (1, 4, 2, 3) in occ132.kernel._CELL_CACHE
    for rho in ((1, 2), (2, 1), (1, 3, 2, 4), (2, 4, 1, 3)):
        forged = analyze(rho)
        forged = forged._replace(kernel=forged.kernel._replace(shape=rho))
        for _ in range(2):
            with pytest.raises(ValueError, match="not a kernel"):
                assemble(rho, ())
            with pytest.raises(ValueError, match="not a kernel"):
                decompose(rho, forged)


def test_every_check_has_a_plant():
    assert {check for check, _, _ in PLANTS.values()} == set(STRUCTURE_CHECKS)


@pytest.mark.parametrize("defect", sorted(PLANTS))
def test_planted_defect_is_reported_by_its_check_only(monkeypatch, defect):
    check, max_n, plant = PLANTS[defect]
    plant(monkeypatch)
    sweep = structure_sweep(max_n)
    assert [name for name in STRUCTURE_CHECKS if sweep[name]] == [check]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the plant is a monkeypatch, which only forked workers inherit")
def test_pooled_sweep_joins_violations_in_sweep_order(monkeypatch):
    # the plant fires in every job of n >= 2, so the order of the joined lists is checked;
    # it fires on each of the 5 913 permutations of size <= 7 but the 1 977 kernel
    # permutations, which the sweep does not assemble
    monkeypatch.setattr(occ132.invariants, "assemble", _swap_first_two(occ132.invariants.assemble))
    pooled = structure_sweep(7, threads=2)
    assert len(pooled["roundtrip decompose-assemble"]) == 5913 - 1977
    assert pooled == structure_sweep(7, threads=1)


def test_pooled_sweep_reads_the_given_kernels(monkeypatch):
    # without the kernels of size 5 the domain misses their pairs, so the
    # inverse check fires in jobs of every n >= 5.  Spawned workers import
    # the modules afresh and never see the planted search, so they report
    # the serial lists only if the kernels' cell counts reach them.
    search = occ132.invariants.iter_kernel_permutations
    monkeypatch.setattr(occ132.invariants, "iter_kernel_permutations",
                        lambda max_n: [rho for rho in search(max_n) if len(rho) != 5])
    serial = structure_sweep(7, threads=1)
    assert len(serial["assemble/decompose inverse"]) > 100
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("spawn").Pool)
    assert structure_sweep(7, threads=2) == serial
