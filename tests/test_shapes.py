import gc
import json
import re
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occ132 import (
    Permutation,
    census,
    count_132,
    enumerate_kernel_shapes,
    exceptional_shape,
    is_kernel_permutation,
    load_catalog,
    perm_from_str,
    shape_record,
    shapes,
)
from occ132.kernel import analyze
from occ132.perms import count_132_values
from occ132.shapes import (
    KNOWN_CAPACITY_CENSUS,
    CatalogError,
    _check_counts,
    catalog_to_text,
    fold_catalog,
    fold_path,
    iter_kernel_permutations,
    load_fold,
    save_catalog,
)
from test_kernel import feasible_cells_oracle


class TestEnumerate:
    def test_r0(self):
        cat = enumerate_kernel_shapes(0)
        assert [str(r.shape) for r in cat.records] == ["1"]

    def test_r1(self, catalog1):
        assert [str(r.shape) for r in catalog1.records] == ["1", "132"]

    def test_r2_exact_set(self, catalog2):
        assert [str(r.shape) for r in catalog2.records] == [
            "1",
            "132",
            "1243",
            "1342",
            "1423",
            "2143",
            "35142",
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_kernel_shapes(-1)

    @pytest.mark.parametrize("collecting", [True, False])
    def test_collector_state_restored(self, collecting):
        # the record loop pauses the cyclic collector and gives back the caller's state
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            enumerate_kernel_shapes(2)
            assert gc.isenabled() == collecting
        finally:
            (gc.enable if was else gc.disable)()

    def test_every_record_is_kernel_with_consistent_fields(self, catalog3):
        seen = set()
        for rec in catalog3.records:
            assert is_kernel_permutation(rec.shape)
            assert rec.capacity <= 3
            assert rec.size <= 2 * rec.capacity + 1
            assert rec.capacity == count_132(rec.shape)
            assert set(rec.cells) == feasible_cells_oracle(rec.shape.values)
            assert list(rec.cells) == sorted(rec.cells, key=lambda ml: (ml[1], -ml[0]))
            assert rec.shape.values not in seen
            seen.add(rec.shape.values)

    def test_cross_check_against_full_scan(self, catalog2):
        # kernels of every permutation in S_t, t <= 2r+1, restricted to
        # capacity <= r, must reproduce the catalog exactly
        for r, catalog in ((1, None), (2, catalog2)):
            found = set()
            for t in range(1, 2 * r + 2):
                for vals in permutations(range(1, t + 1)):
                    shape = analyze(Permutation(vals)).kernel.shape
                    if count_132(shape) <= r:
                        found.add(shape.values)
            cat = catalog if catalog is not None else enumerate_kernel_shapes(r)
            assert found == {rec.shape.values for rec in cat.records}

    @pytest.mark.parametrize("r", [3, 4])
    def test_pruned_search_matches_unbudgeted_search(self, r):
        # iter_kernel_permutations searches at budget C(2r, 3), which no
        # pattern of size 2r exceeds, so its prune cuts no kernel
        # permutation; this checks that budget r's prune cuts no shape
        # of capacity <= r
        want = {p.values for p in iter_kernel_permutations(2 * r) if count_132(p) <= r}
        got = {rec.shape.values for rec in enumerate_kernel_shapes(r).records if rec.size <= 2 * r}
        assert got == want

    def test_threads_give_identical_catalog(self):
        # budget 5 searches sizes up to 11, deep enough to start the pool
        a = enumerate_kernel_shapes(5, threads=1)
        b = enumerate_kernel_shapes(5, threads=2)
        assert catalog_to_text(a) == catalog_to_text(b)

    def test_pool_has_no_more_workers_than_jobs(self, serial_pool):
        # budget 4 at size 10 is the smallest search that takes the pool;
        # its depth-5 frontier is far smaller than 500
        jobs = len(shapes._frontier(shapes._SPLIT_DEPTH, 4)[1])
        found = shapes._search(10, 4, threads=500)
        assert serial_pool == [jobs] and jobs < 500
        assert sorted(found) == sorted(shapes._search(10, 4))


class TestExceptionalShape:
    def test_small_cases(self):
        assert exceptional_shape(1) == perm_from_str("132")
        assert exceptional_shape(2) == perm_from_str("35142")
        assert exceptional_shape(3) == perm_from_str("5736142")

    def test_postconditions_up_to_six(self):
        for r in range(1, 7):
            rho = exceptional_shape(r)
            rec = shape_record(rho)
            assert rec.size == 2 * r + 1
            assert rec.capacity == r
            assert rec.f == r + 2

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            exceptional_shape(0)

    def test_search_finds_exactly_the_maximal_shape(self, catalog6):
        for r in range(1, 7):
            maximal = [rec.shape for rec in catalog6.records
                       if rec.size == 2 * r + 1 and rec.capacity == r]
            assert maximal == [exceptional_shape(r)], r

    def test_second_maximal_shape_past_the_census_is_rejected(self):
        counts = Counter({(1, 0): 1})
        for c in range(1, len(KNOWN_CAPACITY_CENSUS)):
            counts[(2 * c + 1, c)] = 1
            counts[(2 * c, c)] = KNOWN_CAPACITY_CENSUS[c] - 1
        counts[(15, 7)] = 1
        _check_counts("counts", 7, counts)  # the census prefix holds
        counts[(15, 7)] = 2
        with pytest.raises(CatalogError, match="counts: 2 maximal shapes for budget 7"):
            _check_counts("counts", 7, counts)

    def test_search_that_loses_the_maximal_shape_fails(self, search_without_maximal_shape):
        with pytest.raises(CatalogError, match="no maximal shape for budget 3"):
            enumerate_kernel_shapes(3)


class TestCensus:
    def test_r2(self, catalog2):
        c = census(catalog2)
        assert c.new_nonexceptional == {2: 4}
        assert c.by_size == {1: 1, 3: 1, 4: 4, 5: 1}

    def test_r3(self, catalog3):
        assert census(catalog3).new_nonexceptional == {2: 4, 3: 20}


class TestCatalogIO:
    def test_roundtrip(self, tmp_path, catalog2):
        path = tmp_path / "cat.jsonl"
        save_catalog(catalog2, path)
        loaded = load_catalog(path)
        assert loaded == catalog2

    def test_byte_reproducible(self, catalog2):
        again = enumerate_kernel_shapes(2)
        assert catalog_to_text(again) == catalog_to_text(catalog2)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format_version": 99, "max_occ": 1}\n')
        with pytest.raises(CatalogError):
            load_catalog(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CatalogError):
            load_catalog(path)

    def test_fold_sidecar_roundtrip(self, tmp_path, catalog3):
        path = tmp_path / "cat.jsonl"
        save_catalog(catalog3, path)
        assert fold_path(path) == tmp_path / "cat.jsonl.fold"
        assert load_fold(path) == fold_catalog(catalog3)

    def test_sidecar_of_other_bytes_is_stale(self, tmp_path, catalog2):
        path = tmp_path / "cat.jsonl"
        save_catalog(catalog2, path)
        path.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(CatalogError, match="changed after"):
            load_fold(path)

    def test_missing_sidecar(self, tmp_path, catalog2):
        path = tmp_path / "cat.jsonl"
        path.write_text(catalog_to_text(catalog2))
        with pytest.raises(FileNotFoundError):
            load_fold(path)


def _edit_field(key, change):
    def edit(line):
        rec = json.loads(line)
        rec[key] = change(rec[key])
        return json.dumps(rec, separators=(",", ":"))

    return edit


# edit of one record line -> what the loader reports for it
EDITED_LINES = {
    "size": (_edit_field("size", lambda v: v + 1), "differs"),
    "capacity": (_edit_field("capacity", lambda v: v + 1), "differs"),
    "cells": (_edit_field("cells", lambda v: [[v[0][0] - 1, v[0][1]]] + v[1:]), "differs"),
    "lis_ne": (_edit_field("lis_ne", lambda v: [v[0] + 1] + v[1:]), "differs"),
    "keys_reordered": (
        lambda line: json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":")),
        "differs",
    ),
    "space_added": (lambda line: line.replace(",", ", ", 1), "differs"),
    "blank_line": (lambda line: "\n" + line, "bad JSON"),
    "nested_too_deep": (lambda line: "[" * 100_000 + "]" * 100_000, "bad JSON"),
    "not_a_kernel": (_edit_field("shape", lambda v: sorted(v)), "not a kernel permutation"),
}


@pytest.mark.parametrize("case", sorted(EDITED_LINES))
def test_load_catalog_refuses_a_line_its_shape_does_not_give(tmp_path, catalog2, case):
    edit, message = EDITED_LINES[case]
    path = tmp_path / "cat.jsonl"
    lines = catalog_to_text(catalog2).splitlines()
    assert json.loads(lines[4])["shape"] == [1, 3, 4, 2]
    lines[4] = edit(lines[4])
    path.write_text("\n".join(lines) + "\n")
    # line 5 of the file, counting the header as line 1
    with pytest.raises(CatalogError, match=re.escape(f"{path}:5: ") + ".*" + message):
        load_catalog(path)


def test_budget6_fold(catalog6):
    fold = fold_catalog(catalog6)
    assert sum(fold.classes.values()) == len(catalog6.records) == 3214
    # the size-1 shape is a class of its own next to the 295 the recursion sums over
    assert len(fold.classes) == 296
    assert fold.maximal_cells == {r: r + 2 for r in range(7)}


class TestSearchSoundness:
    @settings(max_examples=80, deadline=None)
    @given(st.permutations(list(range(1, 9))), st.integers(1, 8))
    def test_prefix_counts_monotone(self, vals, cut):
        # the count of a prefix never exceeds the count of the whole,
        # which is what justifies pruning on partial patterns
        prefix = tuple(vals[:cut])
        rank = {v: i + 1 for i, v in enumerate(sorted(prefix))}
        pattern = tuple(rank[v] for v in prefix)
        assert count_132_values(pattern) <= count_132_values(tuple(vals))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.permutations(list(range(1, n + 1)))))
    def test_append_touches_at_most_d_plus_one_positions(self, vals):
        # appending v closes D[v] occurrences, one per pair i < j with
        # vals[i] < v <= vals[j]; those pairs span at most D[v] + 1
        # positions, which is what makes the component-count prune sound
        for v in range(1, len(vals) + 2):
            pairs = [
                (i, j)
                for i in range(len(vals))
                for j in range(i + 1, len(vals))
                if vals[i] < v <= vals[j]
            ]
            positions = {q for pair in pairs for q in pair}
            assert len(positions) <= len(pairs) + 1

    def test_unbounded_enumeration_matches_brute_force(self):
        got = {p.values for p in iter_kernel_permutations(6)}
        want = set()
        for n in range(1, 7):
            for vals in permutations(range(1, n + 1)):
                if is_kernel_permutation(Permutation(vals)):
                    want.add(vals)
        assert got == want
