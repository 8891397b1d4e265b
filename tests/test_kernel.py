import random
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
    shape_record,
)
from occ132.kernel import (
    _feasible_cells,
    _kernel_capacity,
    _ordered_cells,
    analyze,
)
from occ132.perms import count_132_values, lis_length, occurrences_132
from occ132.shapes import iter_kernel_permutations

from helpers import perm_from_str, southwest_dominated_cells


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
        assert comps == [((1, 2, 3), 1), ((4, 5, 6, 7, 8), 4)]

    def test_increasing_is_isolated(self):
        comps = build_occurrence_graph(Permutation((1, 2, 3, 4)))
        assert comps == [((p,), 0) for p in range(1, 5)]

    def test_pattern_is_one_component(self):
        assert build_occurrence_graph(Permutation((1, 3, 2))) == [((1, 2, 3), 1)]
        assert build_occurrence_graph(Permutation(())) == []

    def test_agrees_with_occurrence_listing(self):
        for n in range(1, 9):
            for vals in permutations(range(1, n + 1)):
                pi = Permutation(vals)
                comps = build_occurrence_graph(pi)
                assert comps == occurrence_components_oracle(pi), pi
                assert sum(occurrences for _, occurrences in comps) == count_132(pi), pi


class TestKernelOf:
    def test_worked_example(self):
        pi = perm_from_str("57614283").values
        k = analyze(pi).kernel
        assert [pi[p - 1] for p in k.positions] == [1, 4, 2, 8, 3]
        assert k.shape == (1, 4, 2, 5, 3)
        assert k.size == 5
        assert k.capacity == 4

    def test_second_example(self):
        pi = perm_from_str("67382451").values
        k = analyze(pi).kernel
        assert [pi[p - 1] for p in k.positions] == [3, 8, 4, 5]
        assert k.shape == (1, 4, 2, 3)

    def test_identity_kernel_is_max_entry(self):
        for n in range(1, 7):
            k = analyze(tuple(range(1, n + 1))).kernel
            assert k.positions == (n,)
            assert k.shape == (1,)
            assert k.capacity == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analyze(())


class TestIsKernelPermutation:
    def test_examples(self):
        # _kernel_capacity is None exactly when the occurrence graph is not connected
        assert _kernel_capacity((1,)) == 0
        assert _kernel_capacity((1, 3, 2)) == 1
        assert _kernel_capacity((1, 2)) is None
        assert _kernel_capacity(()) is None

    def test_agrees_with_shape_fixed_point(self):
        # also: a kernel's capacity, read off its graph component, is the
        # occurrence count of its shape
        for n in range(1, 8):
            for vals in permutations(range(1, n + 1)):
                kernel = analyze(vals).kernel
                assert (_kernel_capacity(vals) is not None) == (kernel.shape == vals)
                assert kernel.capacity == count_132_values(kernel.shape)


class TestCellDecomposition:
    def test_unit_shape(self):
        assert set(shape_record((1,)).cells) == {(1, 1), (1, 2)}

    def test_1423(self):
        assert set(shape_record((1, 4, 2, 3)).cells) == {(4, 1), (1, 3), (1, 4), (1, 5)}

    def test_132(self):
        assert set(shape_record((1, 3, 2)).cells) == {(3, 1), (1, 3), (1, 4)}

    def test_non_kernel_rejected(self):
        # raised on the second call too: the shape cache keeps no errors
        for word in ("12", "21", "1324", "2413", ""):
            rho = perm_from_str(word).values
            for _ in range(2):
                with pytest.raises(ValueError):
                    shape_record(rho)

    def test_grid_and_lis_agree_with_per_cell_oracle(self):
        shapes = iter_kernel_permutations(8)
        assert len(shapes) == 17639
        for rho in shapes:
            rec = shape_record(rho)
            assert set(rec.cells) == feasible_cells_oracle(rho), rho
            assert rec.capacity == count_132_values(rho), rho
            northeast = [[r for r in rho[l - 1 :] if r >= m] for m, l in rec.cells]
            assert rec.lis_ne == tuple(map(lis_length, northeast)), rho

    def test_every_budget6_record_agrees_with_the_oracles(self, catalog6):
        # the same oracles on the rows the search builds, for every shape of
        # budget 6: 2 116 of them are past size 8 and 386 past the brute-force sweep
        for rec in catalog6.records:
            values = rec.shape
            assert set(rec.cells) == feasible_cells_oracle(values), values
            assert list(rec.cells) == sorted(rec.cells, key=lambda ml: (ml[1], -ml[0])), values
            assert rec.capacity == count_132_values(values), values
            northeast = [[r for r in values[l - 1 :] if r >= m] for m, l in rec.cells]
            assert rec.lis_ne == tuple(map(lis_length, northeast)), values
            one_component = [(tuple(range(1, rec.size + 1)), rec.capacity)]
            assert occurrence_components_oracle(Permutation(values)) == one_component, values

    def test_infeasible_cells_empty_for_all_members(self):
        # every permutation's entries must land in feasible cells only;
        # decompose raises otherwise, so a clean sweep is the assertion
        for n in range(1, 8):
            for vals in permutations(range(1, n + 1)):
                decompose(vals, analyze(vals))


class TestCellOrder:
    def test_examples(self):
        assert shape_record((1, 4, 2, 3)).cells == ((4, 1), (1, 3), (1, 4), (1, 5))
        assert shape_record((1,)).cells == ((1, 1), (1, 2))
        assert shape_record((1, 3, 2)).cells == ((3, 1), (1, 3), (1, 4))

    def test_total_on_catalog(self, catalog3):
        for rec in catalog3.records:
            assert _ordered_cells(rec.shape, _feasible_cells(rec.shape)) == rec.cells

    def test_incomparable_raises(self):
        with pytest.raises(CellOrderError):
            _ordered_cells((1, 3, 2), frozenset({(1, 1), (2, 2)}))


class TestLisNortheast:
    def test_examples(self):
        assert shape_record((1, 4, 2, 3)).lis_ne == (1, 2, 1, 0)
        assert shape_record((1,)).lis_ne == (1, 0)
        assert shape_record((1, 3, 2)).lis_ne == (1, 1, 0)


class TestOneSidedCriterion:
    def test_subsumed_by_pairwise_procedure(self, catalog6):
        # shapes up to size 13, beyond the structure sweep's size 8
        for rec in catalog6.records:
            assert not southwest_dominated_cells(rec.shape).intersection(rec.cells), rec.shape

    def test_matches_definition(self):
        # cell (m, l), m <= s, has an entry k < l with rho(k) < m to its southwest
        for rho in iter_kernel_permutations(6):
            s = len(rho)
            want = {(m, l) for k in range(1, s + 1) for m in range(rho[k - 1] + 1, s + 1)
                    for l in range(k + 1, s + 2)}
            assert southwest_dominated_cells(rho) == want, rho


class TestDecompose:
    def test_worked_example(self):
        pi = perm_from_str("67382451").values
        shape, contents = decompose(pi, analyze(pi))
        assert shape == (1, 4, 2, 3)
        assert contents == ((1, 2), (1,), (), (1,))

    def test_larger_example(self):
        pi = perm_from_str("10,11,7,12,4,6,5,8,3,9,2,1").values
        shape, contents = decompose(pi, analyze(pi))
        assert shape == (1, 4, 2, 3)
        by_cell = dict(zip(shape_record(shape).cells, contents))
        assert by_cell[(1, 3)] == (1, 3, 2)  # entries 4, 6, 5
        assert by_cell[(1, 4)] == (1,)  # entry 3
        assert by_cell[(1, 5)] == (2, 1)  # entries 2, 1
        assert by_cell[(4, 1)] == (1, 2)  # entries 10, 11

    def test_kernel_permutation_has_empty_contents(self, catalog2):
        for rec in catalog2.records:
            values = rec.shape
            shape, contents = decompose(values, analyze(values))
            assert shape == values
            assert contents == ((),) * len(rec.cells)


class TestAssemble:
    def test_worked_example(self):
        contents = [(1, 2), (1,), (), (1,)]
        assert assemble((1, 4, 2, 3), contents) == perm_from_str("67382451").values

    def test_all_empty_returns_shape(self, catalog2):
        for rec in catalog2.records:
            empties = [()] * len(rec.cells)
            assert assemble(rec.shape, empties) == rec.shape

    def test_unit_shape_right_content(self):
        assert assemble((1,), [(), (1,)]) == (2, 1)

    def test_blocks_never_merge_into_kernel(self):
        # both cells filled: contents stay separate components, so the
        # result is 231 (not 132, which is its own kernel)
        got = assemble((1,), [(1,), (1,)])
        assert got == (2, 3, 1)
        assert decompose(got, analyze(got))[1] == ((1,), (1,))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            assemble((1,), [(1,)])


class TestRoundtrip:
    def test_forward_exhaustive_small(self):
        for n in range(1, 7):
            for vals in permutations(range(1, n + 1)):
                shape, contents = decompose(vals, analyze(vals))
                assert assemble(shape, contents) == vals

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(1, 9))))
    def test_forward_random_larger(self, vals):
        pi = tuple(vals)
        shape, contents = decompose(pi, analyze(pi))
        assert assemble(shape, contents) == pi


def test_random_assembly_past_the_sweep(catalog6):
    # Random contents in random budget-6 shapes, at sizes n = 60..150 that no
    # exhaustive sweep reaches: decompose inverts assemble, the occurrences
    # add up over the kernel and the cells, and the LIS is the shape's or a
    # content's plus its cell's northeast run.
    rng = random.Random(2001)
    for _ in range(300):
        rec = rng.choice(catalog6.records)
        rest = rng.randint(60, 150) - rec.size
        cuts = sorted(rng.randint(0, rest) for _ in range(len(rec.cells) - 1))
        contents = []
        for size in (b - a for a, b in zip([0, *cuts], [*cuts, rest])):
            content = list(range(1, size + 1))
            rng.shuffle(content)
            contents.append(tuple(content))
        contents = tuple(contents)
        pi = assemble(rec.shape, contents)
        assert Permutation(pi).n == rec.size + rest
        assert decompose(pi, analyze(pi)) == (rec.shape, contents), pi
        assert count_132_values(pi) == rec.capacity + sum(map(count_132_values, contents)), pi
        runs = [lis_length(alpha) + ne for alpha, ne in zip(contents, rec.lis_ne) if alpha]
        assert lis_length(pi) == max(lis_length(rec.shape), *runs), pi


def test_shape_record_fields(catalog2):
    rec = next(rec for rec in catalog2.records if rec.shape == (1, 4, 2, 3))
    assert (rec.size, rec.capacity, len(rec.cells)) == (4, 2, 4)
    assert rec.cells == ((4, 1), (1, 3), (1, 4), (1, 5))
    assert rec.lis_ne == (1, 2, 1, 0)
    rebuilt = shape_record(rec.shape)
    assert rebuilt == rec
