from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occ132 import (
    CellOrderError,
    Permutation,
    assemble,
    build_occurrence_graph,
    count_132,
    decompose,
    is_kernel_permutation,
    make_permutation,
    perm_from_str,
    shape_record,
)
from occ132.kernel import _feasible_cells, _ordered_cells, analyze, southwest_dominated_cells
from occ132.perms import lis_length, occurrences_132
from occ132.shapes import iter_kernel_permutations


def _cell_is_feasible(ranks, m, l):
    """Per-cell oracle for the feasibility grid: can an entry z in cell
    (m, l) close an occurrence of 132 with two kernel entries?

    With 1-based entry indices a < b and rank(a) = ranks[a-1], cell (m, l)
    is infeasible iff one of these exists:

    - z opens:   a, b >= l and rank(a) > rank(b) >= m
    - z on top:  a <= l-1 < l <= b and rank(a) < rank(b) <= m-1
    - z closes:  a < b <= l-1 and rank(a) < m <= rank(b)
    """
    s = len(ranks)
    hi = 0
    for idx in range(l - 1, s):
        r = ranks[idx]
        if hi > r >= m:
            return False
        if r > hi:
            hi = r
    if l > 1:
        left_min = min(ranks[: l - 1])
        for idx in range(l - 1, s):
            if left_min < ranks[idx] <= m - 1:
                return False
        lo = ranks[0]
        for idx in range(1, l - 1):
            r = ranks[idx]
            if r >= m > lo:
                return False
            if r < lo:
                lo = r
    return True


def feasible_cells_oracle(ranks):
    """The feasibility grid by one O(s) scan per cell."""
    s = len(ranks)
    return frozenset(
        (m, l) for m in range(1, s + 1) for l in range(1, s + 2) if _cell_is_feasible(ranks, m, l)
    )


def occurrence_components_oracle(pi):
    """Components of the occurrence graph of pi as (positions, occurrence
    count), sorted by smallest position: every listed occurrence joins
    its three entries in a plain union-find."""
    parent = list(range(pi.n + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    occurrences = occurrences_132(pi)
    for i, j, k in occurrences:
        parent[find(j)] = parent[find(k)] = find(i)
    roots = [find(p) for p in range(pi.n + 1)]
    positions, counts = {}, Counter(roots[i] for i, _, _ in occurrences)
    for p in range(1, pi.n + 1):
        positions.setdefault(roots[p], []).append(p)
    return [(tuple(ps), counts[root]) for root, ps in positions.items()]


class TestOccurrenceGraph:
    def test_worked_example(self):
        comps = build_occurrence_graph(perm_from_str("57614283"))
        assert comps == (((1, 2, 3), 1), ((4, 5, 6, 7, 8), 4))
        assert sum(c.occurrences for c in comps) == 5

    def test_increasing_is_isolated(self):
        comps = build_occurrence_graph(make_permutation([1, 2, 3, 4]))
        assert comps == tuple(((p,), 0) for p in range(1, 5))

    def test_pattern_is_one_component(self):
        comps = build_occurrence_graph(make_permutation([1, 3, 2]))
        assert len(comps) == 1
        assert comps[0].positions == (1, 2, 3)
        assert comps[0].occurrences == 1

    def test_agrees_with_occurrence_listing(self):
        for n in range(1, 9):
            for vals in permutations(range(1, n + 1)):
                pi = Permutation(vals)
                comps = build_occurrence_graph(pi)
                assert list(comps) == occurrence_components_oracle(pi), pi
                assert sum(c.occurrences for c in comps) == count_132(pi), pi


class TestKernelOf:
    def test_worked_example(self):
        k = analyze(perm_from_str("57614283")).kernel
        assert k.values == (1, 4, 2, 8, 3)
        assert k.shape == perm_from_str("14253")
        assert k.size == 5
        assert k.capacity == 4

    def test_second_example(self):
        k = analyze(perm_from_str("67382451")).kernel
        assert k.values == (3, 8, 4, 5)
        assert k.shape == perm_from_str("1423")

    def test_identity_kernel_is_max_entry(self):
        for n in range(1, 7):
            k = analyze(Permutation(tuple(range(1, n + 1)))).kernel
            assert k.positions == (n,)
            assert k.shape == make_permutation([1])
            assert k.capacity == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analyze(make_permutation([]))


class TestIsKernelPermutation:
    def test_examples(self):
        assert is_kernel_permutation(make_permutation([1]))
        assert is_kernel_permutation(perm_from_str("132"))
        assert not is_kernel_permutation(perm_from_str("12"))
        assert not is_kernel_permutation(make_permutation([]))

    def test_agrees_with_shape_fixed_point(self):
        # also: a kernel's capacity, read off its graph component, is the
        # occurrence count of its shape
        for n in range(1, 8):
            for vals in permutations(range(1, n + 1)):
                pi = Permutation(vals)
                kernel = analyze(pi).kernel
                assert is_kernel_permutation(pi) == (kernel.shape == pi)
                assert kernel.capacity == count_132(kernel.shape)


class TestCellDecomposition:
    def test_unit_shape(self):
        assert set(shape_record(make_permutation([1])).cells) == {(1, 1), (1, 2)}

    def test_1423(self):
        assert set(shape_record(perm_from_str("1423")).cells) == {(4, 1), (1, 3), (1, 4), (1, 5)}

    def test_132(self):
        assert set(shape_record(perm_from_str("132")).cells) == {(3, 1), (1, 3), (1, 4)}

    def test_non_kernel_rejected(self):
        # raised on the second call too: the shape cache keeps no errors
        for word in ("12", "21", "1324", "2413", ""):
            rho = perm_from_str(word)
            for _ in range(2):
                with pytest.raises(ValueError):
                    shape_record(rho)

    def test_grid_and_lis_agree_with_per_cell_oracle(self):
        shapes = iter_kernel_permutations(8)
        assert len(shapes) == 17639
        for rho in shapes:
            rec = shape_record(rho)
            assert set(rec.cells) == feasible_cells_oracle(rho.values), rho
            assert rec.capacity == count_132(rho), rho
            northeast = [[r for r in rho.values[l - 1 :] if r >= m] for m, l in rec.cells]
            assert rec.lis_ne == tuple(map(lis_length, northeast)), rho

    def test_infeasible_cells_empty_for_all_members(self):
        # every permutation's entries must land in feasible cells only;
        # decompose raises otherwise, so a clean sweep is the assertion
        for n in range(1, 8):
            for vals in permutations(range(1, n + 1)):
                decompose(Permutation(vals))


class TestCellOrder:
    def test_examples(self):
        assert shape_record(perm_from_str("1423")).cells == ((4, 1), (1, 3), (1, 4), (1, 5))
        assert shape_record(make_permutation([1])).cells == ((1, 1), (1, 2))
        assert shape_record(perm_from_str("132")).cells == ((3, 1), (1, 3), (1, 4))

    def test_total_on_catalog(self, catalog3):
        for rec in catalog3.records:
            assert _ordered_cells(rec.shape.values, _feasible_cells(rec.shape.values)) == rec.cells

    def test_incomparable_raises(self):
        with pytest.raises(CellOrderError):
            _ordered_cells((1, 3, 2), frozenset({(1, 1), (2, 2)}))


class TestLisNortheast:
    def test_examples(self):
        assert shape_record(perm_from_str("1423")).lis_ne == (1, 2, 1, 0)
        assert shape_record(make_permutation([1])).lis_ne == (1, 0)
        assert shape_record(perm_from_str("132")).lis_ne == (1, 1, 0)


class TestOneSidedCriterion:
    def test_subsumed_by_pairwise_procedure(self, catalog3):
        for rec in catalog3.records:
            assert not southwest_dominated_cells(rec.shape).intersection(rec.cells), rec.shape


class TestDecompose:
    def test_worked_example(self):
        shape, contents = decompose(perm_from_str("67382451"))
        assert shape == perm_from_str("1423")
        assert [c.values for c in contents] == [(1, 2), (1,), (), (1,)]

    def test_larger_example(self):
        pi = perm_from_str("10,11,7,12,4,6,5,8,3,9,2,1")
        shape, contents = decompose(pi)
        assert shape == perm_from_str("1423")
        by_cell = dict(zip(shape_record(shape).cells, contents))
        assert by_cell[(1, 3)] == perm_from_str("132")  # entries 4, 6, 5
        assert by_cell[(1, 4)] == perm_from_str("1")  # entry 3
        assert by_cell[(1, 5)] == perm_from_str("21")  # entries 2, 1
        assert by_cell[(4, 1)] == perm_from_str("12")  # entries 10, 11

    def test_kernel_permutation_has_empty_contents(self, catalog2):
        for rec in catalog2.records:
            shape, contents = decompose(rec.shape)
            assert shape == rec.shape
            assert all(c.n == 0 for c in contents)


class TestAssemble:
    def test_worked_example(self):
        contents = [perm_from_str("12"), perm_from_str("1"), perm_from_str(""), perm_from_str("1")]
        assert assemble(perm_from_str("1423"), contents) == perm_from_str("67382451")

    def test_all_empty_returns_shape(self, catalog2):
        for rec in catalog2.records:
            empties = [make_permutation([])] * rec.f
            assert assemble(rec.shape, empties) == rec.shape

    def test_unit_shape_right_content(self):
        got = assemble(make_permutation([1]), [make_permutation([]), make_permutation([1])])
        assert got == perm_from_str("21")

    def test_blocks_never_merge_into_kernel(self):
        # both cells filled: contents stay separate components, so the
        # result is 231 (not 132, which is its own kernel)
        got = assemble(make_permutation([1]), [make_permutation([1]), make_permutation([1])])
        assert got == perm_from_str("231")
        assert decompose(got)[1] == (make_permutation([1]), make_permutation([1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble(make_permutation([1]), [make_permutation([1])])


class TestRoundtrip:
    def test_forward_exhaustive_small(self):
        for n in range(1, 7):
            for vals in permutations(range(1, n + 1)):
                pi = Permutation(vals)
                shape, contents = decompose(pi)
                assert assemble(shape, contents) == pi

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(1, 9))))
    def test_forward_random_larger(self, vals):
        pi = Permutation(tuple(vals))
        shape, contents = decompose(pi)
        assert assemble(shape, contents) == pi


def test_shape_record_fields(catalog2):
    rec = next(rec for rec in catalog2.records if rec.shape == perm_from_str("1423"))
    assert (rec.size, rec.capacity, rec.f) == (4, 2, 4)
    assert rec.cells == ((4, 1), (1, 3), (1, 4), (1, 5))
    assert rec.lis_ne == (1, 2, 1, 0)
    rebuilt = shape_record(rec.shape)
    assert rebuilt == rec
