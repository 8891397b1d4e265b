import hashlib
import json
import re
import tracemalloc
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occ132 import (
    census,
    enumerate_kernel_shapes,
    load_catalog,
    shape_record,
    shapes,
)
from occ132.kernel import _kernel_capacity, analyze
from occ132.perms import count_132_values, perm_to_str
from occ132.shapes import (
    KNOWN_CAPACITY_CENSUS,
    SEARCH_GUARD,
    CatalogError,
    _check_counts,
    catalog_to_text,
    fold_catalog,
    fold_path,
    iter_kernel_permutations,
    load_fold,
    save_catalog,
)
from helpers import exceptional_shape, inverse_values
from test_kernel import feasible_cells_oracle


class TestEnumerate:
    def test_r0(self):
        cat = enumerate_kernel_shapes(0)
        assert [perm_to_str(r.shape) for r in cat.records] == ["1"]

    def test_r1(self, catalog1):
        assert [perm_to_str(r.shape) for r in catalog1.records] == ["1", "132"]

    def test_r2_exact_set(self, catalog2):
        assert [perm_to_str(r.shape) for r in catalog2.records] == [
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

    def test_every_record_is_kernel_with_consistent_fields(self, catalog3):
        seen = set()
        for rec in catalog3.records:
            assert _kernel_capacity(rec.shape) is not None
            assert rec.capacity <= 3
            assert rec.size <= 2 * rec.capacity + 1
            assert rec.capacity == count_132_values(rec.shape)
            assert set(rec.cells) == feasible_cells_oracle(rec.shape)
            assert list(rec.cells) == sorted(rec.cells, key=lambda ml: (ml[1], -ml[0]))
            assert rec.shape not in seen
            seen.add(rec.shape)

    def test_cross_check_against_full_scan(self, catalog2):
        # kernels of every permutation in S_t, t <= 2r+1, restricted to
        # capacity <= r, must reproduce the catalog exactly
        for r, catalog in ((1, None), (2, catalog2)):
            found = set()
            for t in range(1, 2 * r + 2):
                for vals in permutations(range(1, t + 1)):
                    shape = analyze(vals).kernel.shape
                    if count_132_values(shape) <= r:
                        found.add(shape)
            cat = catalog if catalog is not None else enumerate_kernel_shapes(r)
            assert found == {rec.shape for rec in cat.records}

    @pytest.mark.parametrize("r", [3, 4])
    def test_pruned_search_matches_unbudgeted_search(self, r):
        # iter_kernel_permutations searches at budget C(2r, 3), which no
        # pattern of size 2r exceeds, so its prune cuts no kernel
        # permutation; this checks that budget r's prune cuts no shape
        # of capacity <= r
        want = {p for p in iter_kernel_permutations(2 * r) if count_132_values(p) <= r}
        got = {rec.shape for rec in enumerate_kernel_shapes(r).records if rec.size <= 2 * r}
        assert got == want

    def test_threads_give_identical_catalog(self, catalog6):
        # budget 6 searches sizes up to 13, deep enough to start the pool
        assert catalog_to_text(catalog6) == catalog_to_text(enumerate_kernel_shapes(6, threads=2))

    def test_pool_has_no_more_workers_than_jobs(self, serial_pool):
        # budget 4 at size 12 is the smallest search that takes the pool;
        # its depth-5 frontier is far smaller than 500
        jobs = len(shapes._frontier(shapes._SPLIT_DEPTH, 4)[1])
        found = shapes._search(12, 4, threads=500)
        assert serial_pool == [jobs] and jobs < 500
        assert sorted(found) == sorted(shapes._search(12, 4))

    def test_huge_thread_count_splits_only_the_frontier(self, serial_pool):
        # 4 * threads empty job lists would take about 25 MiB here
        tracemalloc.start()
        try:
            found = shapes._search(12, 4, threads=10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert serial_pool == [len(shapes._frontier(shapes._SPLIT_DEPTH, 4)[1])]
        assert sorted(found) == sorted(shapes._search(12, 4))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_equal_the_records_the_union_find_gives(self, catalog6, threads):
        # the search's own occurrence count against the union-find capacity,
        # and its cells and runs against shape_record's, on every shape of
        # budget 6, from one process and from the pool's jobs
        catalog = catalog6 if threads == 1 else enumerate_kernel_shapes(6, threads=threads)
        assert len(catalog.records) == 3214
        for rec in catalog.records:
            assert rec == shape_record(rec.shape), rec.shape

    def test_search_guard(self, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("the shape search started")

        monkeypatch.setattr(shapes, "_search", no_search)
        with pytest.raises(ValueError, match=f"budget {SEARCH_GUARD + 1} exceeds the search guard"):
            enumerate_kernel_shapes(SEARCH_GUARD + 1)
        # the guard itself is searched
        with pytest.raises(AssertionError, match="the shape search started"):
            enumerate_kernel_shapes(SEARCH_GUARD)


# The sha256 of the budget-7 catalog as the search wrote it when this test
# was added: a frozen reference, since no census covers capacity 7.
CATALOG7_SHA256 = "e2283ad175833e00890d325907254c86c5bdac11bd569535e96bab3fd132ead2"


@pytest.fixture(scope="module")
def catalog7():
    return enumerate_kernel_shapes(7, threads=2)


class TestInversionClosure:
    """The search adds positions left to right, and inversion turns them
    into values bottom to top, so a shape a prune loses is caught here
    unless its inverse is lost too: the guard past the census."""

    @pytest.mark.parametrize("budget", [6, 7])
    def test_every_inverse_is_in_the_catalog_with_the_same_class(self, request, budget):
        catalog = request.getfixturevalue(f"catalog{budget}")
        by_shape = {rec.shape: rec for rec in catalog.records}
        for values, rec in by_shape.items():
            inv = by_shape.get(inverse_values(values))
            assert inv is not None, values
            assert (inv.size, inv.capacity, len(inv.cells), sorted(inv.lis_ne)) == (
                rec.size, rec.capacity, len(rec.cells), sorted(rec.lis_ne)), values

    def test_budget7_catalog_matches_its_frozen_reference(self, catalog7):
        assert len(catalog7.records) == 16442
        assert hashlib.sha256(catalog_to_text(catalog7).encode()).hexdigest() == CATALOG7_SHA256


class TestExceptionalShape:
    def test_small_cases(self):
        assert exceptional_shape(1) == (1, 3, 2)
        assert exceptional_shape(2) == (3, 5, 1, 4, 2)
        assert exceptional_shape(3) == (5, 7, 3, 6, 1, 4, 2)

    def test_postconditions_up_to_six(self):
        for r in range(1, 7):
            rho = exceptional_shape(r)
            rec = shape_record(rho)
            assert rec.size == 2 * r + 1
            assert rec.capacity == r
            assert len(rec.cells) == r + 2

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

    def test_search_job_with_a_count_off_by_one_fails(self, search_with_a_count_off_by_one):
        # the census check is what guards the capacities the search counts
        with pytest.raises(CatalogError, match=re.escape("(1, 1, 4, 22) differ from the census")):
            enumerate_kernel_shapes(3)


class TestTightCuts:
    def test_search_with_a_planted_cut_fails_the_build(self, search_with_a_planted_cut, catalog6):
        with pytest.raises(CatalogError, match="the search for budget 6"):
            enumerate_kernel_shapes(6)
        # the plant changed the search: it lost shapes, and found nothing new
        [rows] = search_with_a_planted_cut
        assert {row[0] for row in rows} < {rec.shape for rec in catalog6.records}


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
        fold = save_catalog(catalog3, path)
        assert fold_path(path) == tmp_path / "cat.jsonl.fold"
        assert load_fold(path) == fold == fold_catalog(catalog3)

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
    # records hold bare values, so this is the one check that a shape read back is a permutation
    "not_a_permutation": (_edit_field("shape", lambda v: [1, 3, 3, 2]), "not a permutation"),
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


def _drop_key(lines):
    rec = json.loads(lines[5])
    del rec["lis_ne"]
    return lines[:5] + [json.dumps(rec)] + lines[6:]


def _wrong_type(lines):
    rec = json.loads(lines[5])
    rec["size"] = str(rec["size"])
    return lines[:5] + [json.dumps(rec)] + lines[6:]


# edit of the lines of a budget-3 catalog -> what the loader reports for
# it; line 0 is the header, records are sorted by size, and the last is
# the maximal shape
MALFORMED = {
    "missing_key": (_drop_key, "differs from the one its shape gives"),
    "truncated_line": (lambda lines: lines[:5] + [lines[5][:20]] + lines[6:], "bad JSON"),
    "wrong_type": (_wrong_type, "differs from the one its shape gives"),
    "duplicate_record": (lambda lines: lines[:6] + [lines[5]] + lines[6:], "duplicated"),
    "unsorted_records": (lambda lines: lines[:5] + [lines[6], lines[5]] + lines[7:], "sorted"),
    "no_maximal_shape": (lambda lines: lines[:-1], "no maximal shape for budget 3"),
    "census_mismatch": (lambda lines: lines[:5] + lines[6:], "census"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_catalog_refuses_a_malformed_catalog(tmp_path, catalog3, case):
    edit, message = MALFORMED[case]
    path = tmp_path / "cat.jsonl"
    path.write_text("\n".join(edit(catalog_to_text(catalog3).splitlines())) + "\n")
    with pytest.raises(CatalogError, match=message):
        load_catalog(path)


def test_budget6_fold(catalog6):
    fold = fold_catalog(catalog6)
    assert sum(fold.classes.values()) == len(catalog6.records) == 3214
    # the size-1 shape is a class of its own next to the 295 the recursion sums over
    assert len(fold.classes) == 296
    # each budget r's maximal shape, the class of size 2r+1, has r + 2 cells
    assert {c: len(runs) for s, c, _, runs in fold.classes if s == 2 * c + 1} == {
        r: r + 2 for r in range(7)
    }


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

    def test_nothing_above_the_size_bound(self):
        assert iter_kernel_permutations(0) == []
        assert iter_kernel_permutations(1) == [(1,)]

    def test_unbounded_enumeration_matches_brute_force(self):
        got = set(iter_kernel_permutations(6))
        want = set()
        for n in range(1, 7):
            for vals in permutations(range(1, n + 1)):
                if _kernel_capacity(vals) is not None:
                    want.add(vals)
        assert got == want
