"""Each structure check reports a defect planted for it, and no other check does.

A clean sweep only shows something if the checks can fail, so every
check in ``STRUCTURE_CHECKS`` gets a planted defect here: the analysis
record, the cell order, ``decompose`` or ``assemble`` is replaced through
monkeypatch.
"""

from dataclasses import replace
from itertools import combinations

import pytest

import occ132.invariants
import occ132.kernel
from occ132.invariants import STRUCTURE_CHECKS, structure_sweep
from occ132.kernel import CellOrderError, analyze
from occ132.perms import Permutation


def _plant_analysis(monkeypatch, edit):
    monkeypatch.setattr(occ132.invariants, "analyze", lambda pi: edit(analyze(pi)))


def _lost_occurrences(a):
    return replace(a, components=tuple(c._replace(occurrences=0) for c in a.components))


def _oversized_kernel(a):
    return replace(a, kernel=replace(a.kernel, size=a.kernel.size + 2))


def _off_by_one_cells(a):
    return replace(a, placed={(m - 1, l - 1): entries for (m, l), entries in a.placed.items()})


def _swap_one_entry_cells(axis):
    """Exchange the values (axis 0: two cells of a row) or the positions
    (axis 1: two cells of a column) of two one-entry cells."""

    def edit(a):
        placed = a.placed
        for c1, c2 in combinations(sorted(placed), 2):
            if c1[axis] == c2[axis] and len(placed[c1]) == len(placed[c2]) == 1:
                (p1, v1), (p2, v2) = placed[c1][0], placed[c2][0]
                e1, e2 = ((p1, v2), (p2, v1)) if axis == 0 else ((p2, v1), (p1, v2))
                return replace(a, placed={**placed, c1: [e1], c2: [e2]})
        return a

    return edit


def _incomparable_cells(mp):
    def planted(values, feasible):
        raise CellOrderError(f"planted: cells of {values} incomparable")

    mp.setattr(occ132.kernel, "_ordered_cells", planted)
    occ132.kernel._shape_cells.cache_clear()  # else cached orders skip the plant


def _swap_first_two(assemble):
    def planted(rho, contents):
        values = assemble(rho, contents).values
        return Permutation(values[1::-1] + values[2:]) if len(values) > 1 else Permutation(values)

    return planted


def _extra_empty_content(mp):
    """decompose appends an empty content that assemble drops again: the
    forward roundtrip holds, but decompose leaves the enumerated domain."""
    decompose, assemble = occ132.invariants.decompose, occ132.invariants.assemble

    def planted(pi, analysis):
        shape, contents = decompose(pi, analysis)
        return shape, (*contents, Permutation(()))

    mp.setattr(occ132.invariants, "decompose", planted)
    mp.setattr(occ132.invariants, "assemble", lambda rho, contents: assemble(rho, contents[:-1]))


# Two nonempty cells first share a column at n = 6 (531462, shape 1342), so
# the column check needs that size; every other defect shows at n <= 4.
PLANTS = {
    "lost occurrences": ("component size bound", 4, lambda mp: _plant_analysis(mp, _lost_occurrences)),
    "oversized kernel": ("kernel size bound", 4, lambda mp: _plant_analysis(mp, _oversized_kernel)),
    "entry in infeasible cell": (
        "components inside single cells", 4, lambda mp: _plant_analysis(mp, _off_by_one_cells)),
    "cell order error": ("components inside single cells", 4, _incomparable_cells),
    "swapped value blocks": (
        "row value dominance", 4, lambda mp: _plant_analysis(mp, _swap_one_entry_cells(0))),
    "swapped position blocks": (
        "column position dominance", 6, lambda mp: _plant_analysis(mp, _swap_one_entry_cells(1))),
    "assemble swaps two entries": (
        "roundtrip decompose-assemble", 4,
        lambda mp: mp.setattr(occ132.invariants, "assemble", _swap_first_two(occ132.invariants.assemble))),
    "extra empty content": ("assemble/decompose inverse", 4, _extra_empty_content),
}


def test_every_check_has_a_plant():
    assert {check for check, _, _ in PLANTS.values()} == set(STRUCTURE_CHECKS)


@pytest.mark.parametrize("defect", sorted(PLANTS))
def test_planted_defect_is_reported_by_its_check_only(monkeypatch, defect):
    check, max_n, plant = PLANTS[defect]
    plant(monkeypatch)
    sweep = structure_sweep(max_n)
    assert [name for name in STRUCTURE_CHECKS if sweep[name]] == [check]
