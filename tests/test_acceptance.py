"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything here is
exact; there are no tolerances anywhere.
"""

import hashlib
import math
from fractions import Fraction
from pathlib import Path

import pytest

from occ132 import (
    AlgebraicFunction,
    Solver,
    census,
    enumerate_kernel_shapes,
    extract_pq,
    joint_tables,
    occurrence_counts,
    perm_to_str,
)
from occ132.algebraic import poly_eval
from occ132.cli import main
from occ132.invariants import structure_sweep
from occ132.oracle import SWEEP_GUARD
from occ132.series import PowerSeries
from occ132.shapes import catalog_to_text, save_catalog

from helpers import af_to_series, inverse_values

ORDER = 32

# Expected closed-form split polynomials, ascending powers.
EXPECTED_P = {
    1: [-1, 1],
    2: [-2, 3, 1],
    3: [-2, 7, -5, 2],
    4: [-3, 8, 2, -7, 5],
    5: [-2, 14, -16, 1, -17, 14],
}
EXPECTED_Q = {
    1: [1, -3],
    2: [2, -15, 29, -4, 2],
    3: [2, -27, 135, -302, 292, -106, -22],
    4: [3, -50, 320, -945, 1087, 388, -1754, 1074, 218, 2],
    5: [2, -50, 520, -2893, 9191, -16480, 16184, -12466, 16252, -10826, -2568, -50],
}

# Expected counting-formula numerator polynomials R_r(n), ascending powers.
EXPECTED_R = {
    3: [20160, -22416, 7750, -99, -407, 51, 1],
    4: [23950080, -39821760, 25452024, -7589428, 891978, 32589, -12264, -282, 102, 1],
    5: [
        29059430400,
        -30327454080,
        2614396896,
        10530947320,
        -6970280884,
        2119611370,
        -348117457,
        27882510,
        -307617,
        -88090,
        1861,
        170,
        1,
    ],
}


@pytest.fixture(scope="module")
def solver(catalog6):
    return Solver(catalog6, ORDER)


def report(num: int, ok: bool, label: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_shape_census(catalog6):
    cat2 = enumerate_kernel_shapes(2)
    names = [perm_to_str(rec.shape) for rec in cat2.records]
    ok = names == ["1", "132", "1243", "1342", "1423", "2143", "35142"]
    new = census(catalog6).new_nonexceptional
    ok = ok and all(new[r] == want for r, want in ((3, 20), (4, 104), (5, 503), (6, 2576)))
    report(1, ok, f"shape census: budget-2 set exact; new shapes {new}")


def test_catalog6_bytes_match_benchmark_reference(catalog6):
    # the benchmark pins the budget-6 catalog file by its sha256; a record
    # change that keeps the census would still change these bytes
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "references" / "catalog6.sha256"
    want = reference.read_text().split()[0]
    assert hashlib.sha256(catalog_to_text(catalog6).encode()).hexdigest() == want


# benchmark command -> its warm-solve arguments, each run on a saved catalog
WARM_SOLVE_REFERENCES = {
    "gf6_order64": ("gf", "--occ", "6", "--order", "64"),
    "closed_form6": ("closed-form", "--occ", "6"),
    "restricted6_k6": ("restricted", "--occ", "6", "--k", "6"),
}


@pytest.mark.parametrize("reference", sorted(WARM_SOLVE_REFERENCES))
def test_warm_solve_matches_benchmark_reference(catalog6, tmp_path, capsys, reference):
    path = tmp_path / "catalog6.jsonl"
    save_catalog(catalog6, path)
    argv = [*WARM_SOLVE_REFERENCES[reference], "--threads", "1", "--catalog", str(path)]
    assert main(argv) == 0
    want = Path(__file__).resolve().parents[1] / "perfbench" / "references" / f"{reference}.out"
    assert capsys.readouterr().out.encode() == want.read_bytes()


def test_shape_set_closed_under_inversion(catalog6):
    # 132 is its own inverse, so inverting a permutation keeps its
    # occurrence count and its occurrence graph: kernel shapes of
    # capacity c invert to kernel shapes of capacity c
    capacity = {rec.shape: rec.capacity for rec in catalog6.records}
    assert all(capacity.get(inverse_values(shape)) == c for shape, c in capacity.items())
    # one maximal shape per budget 0..6, the size-1 shape being budget 0's
    maximal = [rec.shape for rec in catalog6.records if rec.size == 2 * rec.capacity + 1]
    assert len(maximal) == 7
    assert all(inverse_values(shape) == shape for shape in maximal)


def test_criterion_02_catalan(solver):
    series = solver.occurrence_series(0)
    ok = all(
        series[n] == Fraction(math.comb(2 * n, n), n + 1) for n in range(31)
    )
    report(2, ok, "level 0 equals the Catalan numbers for n <= 30")


def test_criterion_03_level1_binomial(solver):
    series = solver.occurrence_series(1)
    ok = all(series[n] == math.comb(2 * n - 3, n - 3) for n in range(3, 31))
    ok = ok and all(series[n] == 0 for n in range(3))
    report(3, ok, "level 1 equals C(2n-3, n-3) for 3 <= n <= 30")


def test_criterion_04_level2_formula(solver):
    series = solver.occurrence_series(2)
    ok = True
    for n in range(4, 31):
        want = Fraction(n**3 + 17 * n**2 - 80 * n + 80, 2 * n * (n - 1)) * math.comb(
            2 * n - 6, n - 2
        )
        ok = ok and series[n] == want
    report(4, ok, "level 2 equals (n^3+17n^2-80n+80)/(2n(n-1)) * C(2n-6, n-2) for 4 <= n <= 30")


def test_criterion_05_closed_forms(solver):
    ok = True
    for r in range(1, 6):
        form = extract_pq(solver.occurrence_closed_form(r), r)
        ok = ok and list(form.two_P) == EXPECTED_P[r]
        ok = ok and list(form.two_Q) == EXPECTED_Q[r]
    report(5, ok, "closed-form splits reproduce the published P_r, Q_r for r = 1..5")


def _formula_value(r: int, n: int) -> Fraction:
    """R_r(n) * (2n-3r)! / (n! r! (n-r-2)!), extended by the exact limit
    where 2n-3r = -1 (the factorial pole is removable: R_r(n) = 0 there)."""
    coeffs = EXPECTED_R[r]
    denom = math.factorial(n) * math.factorial(r) * math.factorial(n - r - 2)
    m = 2 * n - 3 * r
    if m >= 0:
        return Fraction(poly_eval(coeffs, n) * math.factorial(m), denom)
    assert m == -1 and poly_eval(coeffs, n) == 0
    derivative = [i * c for i, c in enumerate(coeffs)][1:]
    return Fraction(poly_eval(derivative, n), 2 * denom)


def test_criterion_06_counting_formulas(solver):
    ok = True
    for r in (3, 4, 5):
        series = solver.occurrence_series(r)
        for n in range(r + 2, 31):
            ok = ok and series[n] == _formula_value(r, n)
    report(6, ok, "levels 3..5 match R_r(n)(2n-3r)!/(n! r! (n-r-2)!) for r+2 <= n <= 30")


def test_criterion_07_oracle_agreement(solver, full_tables):
    ok = True
    for n in range(10):
        counts = occurrence_counts(full_tables[n])
        for r in range(7):
            ok = ok and solver.occurrence_series(r)[n] == counts.get(r, 0)
    report(7, ok, "series coefficients equal brute-force counts for r <= 6, n <= 9")


def test_brute_force_at_the_sweep_guard(solver):
    # criterion 07 stops at n = 9; a sweep with budget 6 visits only the
    # permutations of S_10 that can have at most 6 occurrences
    table = joint_tables([SWEEP_GUARD], max_occ=6, threads=2)[SWEEP_GUARD]
    assert max(occ for occ, _ in table) == 6
    counts = occurrence_counts(table)
    for r in range(7):
        assert solver.occurrence_series(r)[SWEEP_GUARD] == counts[r], r


def test_criterion_08_structure_suites():
    # one sweep checks both directions of the decompose/assemble bijection
    # and the cells of every kernel of size <= 8
    sweep = structure_sweep(8, threads=2)
    failures = {name: v[:2] for name, v in sweep.items() if v}
    report(
        8,
        not failures,
        "all structural properties hold over S_n, n <= 8 "
        f"({sum(math.factorial(n) for n in range(1, 9))} permutations, both roundtrips)"
        + (f"; sweep: {failures}" if failures else ""),
    )


def test_criterion_09_restricted(solver, full_tables):
    doubling = solver.restricted_series(0, 3)
    x = PowerSeries.from_coeffs([0, 1], ORDER)
    ratio = (PowerSeries.one(ORDER) - x) / (PowerSeries.one(ORDER) - 2 * x)
    ok = doubling == ratio
    for r in range(3):
        for k in range(1, 7):
            series = solver.restricted_series(r, k)
            for n in range(10):
                ok = ok and series[n] == occurrence_counts(full_tables[n], k).get(r, 0)
    report(9, ok, "restricted series equal (1-x)/(1-2x) at (0,3) and brute force for r<=2, k<=6, n<=9")


def test_criterion_10_self_consistency(solver, catalog6):
    ok = True
    catalan = solver.occurrence_series(0)
    catalan_af = solver.occurrence_closed_form(0)
    series_one = PowerSeries.one(catalan.order)
    af_one = AlgebraicFunction.from_poly((1,))
    for r in range(1, 7):
        rec = next(
            rec for rec in catalog6.records if rec.size == 2 * r + 1 and rec.capacity == r
        )
        f = len(rec.cells)
        series_term = math.prod([catalan] * f, start=series_one).shifted(rec.size)
        series_direct = math.prod([catalan] * (r + 2), start=series_one).shifted(2 * r + 1)
        ok = ok and f == r + 2 and series_term == series_direct
        af_term = AlgebraicFunction.from_poly((0,) * rec.size + (1,)) * math.prod(
            [catalan_af] * f, start=af_one)
        af_direct = AlgebraicFunction.from_poly((0,) * (2 * r + 1) + (1,)) * math.prod(
            [catalan_af] * (r + 2), start=af_one)
        ok = ok and af_term == af_direct
    for r in range(7):
        ok = ok and af_to_series(solver.occurrence_closed_form(r), ORDER) == solver.occurrence_series(r)
    report(
        10,
        ok,
        "maximal-shape contribution is x^(2r+1) S_0^(r+2) and both backends agree at order 32, r <= 6",
    )


def test_criterion_11_conjecture_reports(solver, catalog6):
    # informational: report, list counterexamples, never block
    size_vs_cells = [
        perm_to_str(rec.shape) for rec in catalog6.records if rec.size > 1 and rec.size < len(rec.cells)
    ]
    print(
        "report: size >= cell count for all catalogued shapes != 1:",
        "holds" if not size_vs_cells else f"counterexamples {size_vs_cells}",
    )
    for r in range(1, 7):
        try:
            form = extract_pq(solver.occurrence_closed_form(r), r)
        except ValueError:
            print(f"report: level {r} split not an integer polynomial")
            continue
        q_quarter = poly_eval(form.two_Q, Fraction(1, 4))
        print(
            f"report: level {r}: split an integer polynomial, (1-4x) divides Q: {q_quarter == 0}"
        )
    report(11, True, "conjecture reports emitted (informational)")
