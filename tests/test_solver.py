import math
from dataclasses import replace

import pytest

from occ132 import (
    PowerSeries,
    Solver,
    SolverError,
    af_to_series,
    catalan_series,
    joint_tables,
    occurrence_closed_form,
    occurrence_counts,
    occurrence_series,
    restricted_series,
)
from occ132.shapes import CatalogError, ShapeCatalog, fold_catalog


class TestUnrestrictedSeries:
    def test_level0_is_catalan(self):
        assert occurrence_series(0, 6).integer_coeffs() == [1, 1, 2, 5, 14, 42, 132]

    def test_level1_binomials(self, catalog1):
        s = Solver(catalog1, 6).occurrence_series(1)
        assert s.integer_coeffs() == [0, 0, 0, 1, 5, 21, 84]
        big = Solver(catalog1, 20).occurrence_series(1)
        for n in range(3, 21):
            assert big[n] == math.comb(2 * n - 3, n - 3)

    def test_level2_small_values(self, catalog2):
        s = Solver(catalog2, 5).occurrence_series(2)
        assert s[4] == 4
        assert s[5] == 23

    def test_oracle_agreement_levels_up_to_3(self, catalog3):
        solver = Solver(catalog3, 8)
        for r in range(4):
            series = solver.occurrence_series(r)
            for n in range(9):
                want = occurrence_counts(joint_tables([n])[n]).get(r, 0)
                assert series[n] == want, (r, n)

    def test_catalog_too_small(self, catalog1):
        with pytest.raises(CatalogError):
            Solver(catalog1, 8).occurrence_series(2)

    def test_row_sums(self, catalog3):
        solver = Solver(catalog3, 8)
        for n in range(9):
            counts = occurrence_counts(joint_tables([n])[n])
            high = sum(c for r, c in counts.items() if r > 3)
            low = sum(int(solver.occurrence_series(r)[n]) for r in range(4))
            assert low + high == math.factorial(n)


class TestCatalogChecks:
    def test_missing_maximal_shape_fails_at_its_level(self, catalog3):
        records = tuple(rec for rec in catalog3.records if (rec.size, rec.capacity) != (7, 3))
        solver = Solver(ShapeCatalog(3, records), 8)
        solver.occurrence_series(2)
        with pytest.raises(CatalogError, match="maximal shape for budget 3"):
            solver.occurrence_series(3)

    def test_maximal_shape_with_a_cell_missing(self, catalog3):
        records = tuple(
            replace(rec, cells=rec.cells[:-1], lis_ne=rec.lis_ne[:-1])
            if (rec.size, rec.capacity) == (7, 3) else rec
            for rec in catalog3.records
        )
        with pytest.raises(SolverError, match="maximal-shape contribution mismatch"):
            Solver(ShapeCatalog(3, records), 8).occurrence_series(3)


class _CountingRecords(tuple):
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_solver_from_fold_equals_solver_from_catalog(catalog3):
    from_fold, from_catalog = Solver(fold_catalog(catalog3), 12), Solver(catalog3, 12)
    for r in range(4):
        assert from_fold.occurrence_series(r) == from_catalog.occurrence_series(r)
        assert from_fold.restricted_series(r, 4) == from_catalog.restricted_series(r, 4)
    assert from_fold.occurrence_closed_form(3) == from_catalog.occurrence_closed_form(3)


def test_solver_reads_its_catalog_once(catalog6):
    records = _CountingRecords(catalog6.records)
    solver = Solver(ShapeCatalog(6, records), 32)
    for r in range(7):
        solver.occurrence_series(r)
        solver.occurrence_closed_form(r)
    solver.restricted_series(6, 6)
    assert records.iterations == 1
    assert (len(solver._classes(6)), len(solver._restricted_classes(6))) == (74, 295)


class TestClosedForms:
    def test_level0(self, catalog1):
        cf = Solver(catalog1).occurrence_closed_form(0)
        assert (cf.p, cf.q, cf.d) == ((1,), (-1,), (0, 2))
        assert af_to_series(cf, 64) == catalan_series(64)

    def test_level1_matches_series_everywhere(self, catalog1):
        solver = Solver(catalog1, 64)
        assert af_to_series(solver.occurrence_closed_form(1), 64) == solver.occurrence_series(1)

    def test_level2_closed_form(self, catalog2):
        from occ132 import extract_pq

        form = extract_pq(Solver(catalog2).occurrence_closed_form(2), 2)
        assert form.polynomial
        assert [int(c) for c in form.P.as_polynomial()] == [-2, 3, 1]
        assert [int(c) for c in form.Q.as_polynomial()] == [2, -15, 29, -4, 2]

    def test_split_reassembles_exactly(self, catalog3):
        from occ132 import extract_pq, reassemble_pq

        solver = Solver(catalog3)
        for r in range(4):
            cf = solver.occurrence_closed_form(r)
            assert reassemble_pq(extract_pq(cf, r)) == cf


class TestRestricted:
    def test_k_zero_or_negative_is_zero(self, catalog1):
        solver = Solver(catalog1, 6)
        assert solver.restricted_series(0, 0).integer_coeffs() == [0] * 7
        assert solver.restricted_series(1, -3).integer_coeffs() == [0] * 7

    def test_k1_only_empty(self, catalog1):
        solver = Solver(catalog1, 6)
        assert solver.restricted_series(0, 1).integer_coeffs() == [1, 0, 0, 0, 0, 0, 0]
        assert solver.restricted_series(1, 1).integer_coeffs() == [0] * 7

    def test_k2_decreasing_only(self, catalog1):
        solver = Solver(catalog1, 6)
        assert solver.restricted_series(0, 2).integer_coeffs() == [1] * 7
        assert solver.restricted_series(1, 2).integer_coeffs() == [0] * 7

    def test_k3_is_rational_doubling(self, catalog1):
        # (1-x)/(1-2x): 1, 1, 2, 4, 8, ...
        s = Solver(catalog1, 10).restricted_series(0, 3)
        assert s.integer_coeffs() == [1] + [2 ** max(n - 1, 0) for n in range(1, 11)]

    def test_oracle_agreement(self, catalog2):
        solver = Solver(catalog2, 8)
        for r in range(3):
            for k in range(1, 7):
                series = solver.restricted_series(r, k)
                for n in range(9):
                    want = occurrence_counts(joint_tables([n])[n], k).get(r, 0)
                    assert series[n] == want, (r, k, n)

    def test_r0_is_chebyshev_quotient(self, catalog1):
        # Chow-West: 132- and 12...k-avoiders have generating function
        # P_{k-1}/P_k with P_k(x) = sum_j (-1)^j C(k-j, j) x^j.
        def chebyshev(k):
            return PowerSeries.from_coeffs(
                [(-1) ** j * math.comb(k - j, j) for j in range(k // 2 + 1)], 32
            )

        solver = Solver(catalog1, 32)
        for k in range(1, 9):
            assert solver.restricted_series(0, k) == chebyshev(k - 1) / chebyshev(k), k

    def test_large_k_equals_unrestricted(self, catalog2):
        solver = Solver(catalog2, 8)
        for r in range(3):
            assert solver.restricted_series(r, 9) == solver.occurrence_series(r)


def test_series_coefficients_are_ints(catalog3):
    solver = Solver(catalog3, 24)
    for r in range(4):
        for series in [solver.occurrence_series(r)] + [
            solver.restricted_series(r, k) for k in range(5)
        ]:
            assert all(type(c) is int for c in series.coeffs), (r, series)


class TestSharedProducts:
    # a scrambled request order: products extended for one level or budget
    # are reused, and extended further, by the later requests
    REQUESTS = [
        ("restricted_series", 2, 6),
        ("occurrence_series", 4),
        ("restricted_series", 5, 3),
        ("restricted_series", 6, 6),
        ("occurrence_series", 6),
        ("occurrence_closed_form", 6),
    ]

    def test_results_do_not_depend_on_request_order(self, catalog6):
        shared = Solver(catalog6, 32)
        for name, *args in self.REQUESTS:
            fresh = getattr(Solver(catalog6, 32), name)(*args)
            assert getattr(shared, name)(*args) == fresh, (name, args)

    def test_restricted_product_count(self, catalog6, monkeypatch):
        # series-by-series products in restricted_series(6, 6) at order 32;
        # rebuilding the products per level and budget took 4810
        calls = []
        mul = PowerSeries.__mul__

        def counting_mul(self, other):
            if isinstance(other, PowerSeries):
                calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(PowerSeries, "__mul__", counting_mul)
        Solver(catalog6, 32).restricted_series(6, 6)
        assert 0 < len(calls) <= 4810 // 3


class TestModuleConveniences:
    def test_occurrence_series_builds_catalog(self):
        assert occurrence_series(1, 6).integer_coeffs() == [0, 0, 0, 1, 5, 21, 84]

    def test_occurrence_closed_form_convenience(self):
        assert af_to_series(occurrence_closed_form(0), 8) == catalan_series(8)

    def test_restricted_convenience(self):
        assert restricted_series(0, 2, 5).integer_coeffs() == [1] * 6
