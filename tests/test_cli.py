import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import occ132
from occ132 import (
    AlgebraicFunction,
    Solver,
    cli,
    enumerate_kernel_shapes,
    invariants,
    load_catalog,
    oracle,
    perm_to_str,
    save_catalog,
    shapes,
)
from occ132.cli import main
from occ132.oracle import SWEEP_GUARD
from occ132.shapes import SEARCH_GUARD, CatalogError, fold_catalog, fold_path, load_fold
from test_invariants import PLANTS
from test_shapes import MALFORMED


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gf_json(capsys):
    code, out, _ = run(capsys, "gf", "--occ", "1", "--order", "6")
    assert code == 0
    assert json.loads(out) == [0, 0, 0, 1, 5, 21, 84]


def test_gf_csv(capsys):
    code, out, _ = run(capsys, "gf", "--occ", "0", "--order", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,1", "2,2", "3,5"]


def test_shapes_catalog(capsys, tmp_path):
    path = tmp_path / "cat.jsonl"
    code, _, err = run(capsys, "shapes", "--max-occ", "2", "--out", str(path))
    assert code == 0
    catalog = load_catalog(path)
    assert [perm_to_str(rec.shape) for rec in catalog.records] == [
        "1", "132", "1243", "1342", "1423", "2143", "35142",
    ]
    assert "new non-maximal shapes by budget: {2: 4}" in err


def test_closed_form_json(capsys):
    code, out, _ = run(capsys, "closed-form", "--occ", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "two_P": [-1, 1],
        "two_Q": [1, -3],
        "exponent_num": -1,
        "exponent_den": 2,
    }


def test_closed_form_latex(capsys):
    code, out, _ = run(capsys, "closed-form", "--occ", "1", "--format", "latex")
    assert code == 0
    assert out.strip() == r"\frac{1}{2}\left(x - 1 + \left(-3x + 1\right)(1-4x)^{-1/2}\right)"


def test_restricted(capsys):
    code, out, _ = run(capsys, "restricted", "--occ", "0", "--k", "3", "--order", "6")
    assert code == 0
    assert json.loads(out) == [1, 1, 2, 4, 8, 16, 32]
    code, out, _ = run(capsys, "restricted", "--occ", "0", "--k", "3", "--order", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["0,1", "1,1", "2,2", "3,4"]


def test_restricted_k_past_the_order_prints_the_gf(capsys):
    # the default order is 32: every k >= 33 gives the unrestricted counts
    outs = [run(capsys, "restricted", "--occ", "2", "--k", k, "--threads", "1")
            for k in ("33", "1000000")]
    _, gf, _ = run(capsys, "gf", "--occ", "2", "--threads", "1")
    assert outs[0] == outs[1] == (0, gf, "")
    code, out, _ = run(capsys, "verify", "--occ", "2", "--max-n", "7", "--k", "1000000",
                       "--threads", "1")
    assert code == 0 and "MISMATCH" not in out


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--occ", "0", "--max-n", "6")
    assert code == 0
    assert "MISMATCH" not in out
    assert " 132" in out


def test_verify_restricted_ok(capsys):
    code, out, _ = run(capsys, "verify", "--occ", "1", "--max-n", "6", "--k", "3")
    assert code == 0
    assert "MISMATCH" not in out


VERIFY_REFERENCES = {
    "verify2": ("verify", "--occ", "2", "--max-n", "9"),
    "verify1_k4": ("verify", "--occ", "1", "--max-n", "9", "--k", "4"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("reference", sorted(VERIFY_REFERENCES))
def test_verify_matches_benchmark_reference(capsys, reference, threads):
    code, out, _ = run(capsys, *VERIFY_REFERENCES[reference], "--threads", threads)
    assert code == 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "references" / f"{reference}.out"
    assert out.encode() == path.read_bytes()


def test_verify_sweeps_every_n_in_one_pool(capsys, every_sweep_pooled):
    # with the pool rule set to pool every sweep, as one reaching n = 10 is
    code, out, _ = run(capsys, *VERIFY_REFERENCES["verify2"], "--threads", "2")
    assert code == 0
    assert every_sweep_pooled == [2]


OUT_COMMANDS = {
    "verify": ("verify", "--occ", "2", "--max-n", "7", "--threads", "1"),
    "conjectures": ("conjectures", "--max-occ", "3", "--threads", "1"),
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_out_holds_the_bytes_of_stdout(capsys, tmp_path, command):
    argv = OUT_COMMANDS[command]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and stdout
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == stdout.encode()


def test_verify_mismatch_exits_1_and_writes_its_table(capsys, monkeypatch, tmp_path):
    real = oracle.occurrence_counts
    monkeypatch.setattr(oracle, "occurrence_counts",
                        lambda table, k=None: {r: c + 1 for r, c in real(table, k).items()})
    target = tmp_path / "v.txt"
    code, out, _ = run(capsys, "verify", "--occ", "0", "--max-n", "4", "--threads", "1",
                       "--out", str(target))
    assert (code, out) == (1, "")
    assert target.read_text().count("MISMATCH") == 5


def test_verify_levels_in_one_process(capsys):
    # each run sweeps with its own budget: the budget-1 run reads rows
    # that the budget-0 run of the same process leaves out
    columns = {"0": [1, 1, 2, 5, 14, 42, 132, 429], "1": [0, 0, 0, 1, 5, 21, 84, 330]}
    for occ, want in columns.items():
        code, out, _ = run(capsys, "verify", "--occ", occ, "--max-n", "7", "--threads", "1")
        assert code == 0 and "MISMATCH" not in out
        assert [int(line.split()[2]) for line in out.splitlines()[1:]] == want, occ


def test_check_invariants(capsys):
    # n = 6 is the first size with two nonempty cells in one column (531462),
    # so a smaller bound passes the column dominance check without testing it
    code, out, _ = run(capsys, "check-invariants", "--max-n", "6")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 9


def test_check_invariants_reports_a_failing_check(capsys, monkeypatch):
    # the roundtrip fails for each of the 32 permutations of sizes 2 to 4 but
    # the kernel permutations 132, 1243, 1342, 1423, 1432 and 2143, which the
    # sweep does not assemble
    check, _, plant = PLANTS["assemble swaps two entries"]
    plant(monkeypatch)
    code, out, _ = run(capsys, "check-invariants", "--max-n", "4", "--threads", "1")
    assert code == 1
    lines = out.splitlines()
    at = lines.index(f"FAIL  {check} (all sizes <= 4)")
    assert lines[at + 1:at + 11] == [
        f"      {pi}" for pi in ("12", "21", "123", "213", "231", "312", "321", "1234", "1324", "2134")]
    assert [line[:4] for line in lines[:at] + lines[at + 11:]] == ["PASS"] * 8


def test_check_invariants_matches_benchmark_reference(capsys):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "references" / "invariants7.out"
    # the default thread count, one process, and a pool of two
    for threads in ((), ("--threads", "1"), ("--threads", "2")):
        code, out, _ = run(capsys, "check-invariants", "--max-n", "7", *threads)
        assert code == 0, threads
        assert out.encode() == path.read_bytes(), threads


# the closed form of level 1 times a factor that breaks its integer split
SPLIT_BREAKERS = {
    "non-integer": AlgebraicFunction((1,), (), (3,)),
    "non-polynomial": AlgebraicFunction.from_poly((1, 1)).inverse(),
}


def break_the_split(monkeypatch, breaker):
    real = Solver.occurrence_closed_form
    monkeypatch.setattr(Solver, "occurrence_closed_form",
                        lambda self, r: real(self, r) * SPLIT_BREAKERS[breaker])


def test_conjectures(capsys):
    code, out, _ = run(capsys, "conjectures", "--max-occ", "2")
    assert code == 0
    assert "holds" in out
    assert "occ 2: split polynomial" in out


def test_conjectures_output(capsys):
    code, out, _ = run(capsys, "conjectures", "--max-occ", "3", "--threads", "1")
    assert code == 0
    assert out == (
        "size >= feasible-cell count for every shape != 1: holds (27 shapes)\n"
        "occ 1: split polynomial; half-integer halves hold; (1-4x) divides Q: no\n"
        "occ 2: split polynomial; half-integer halves hold; (1-4x) divides Q: no\n"
        "occ 3: split polynomial; half-integer halves hold; (1-4x) divides Q: no\n"
    )


def test_conjectures_reports_a_split_that_is_not_an_integer_polynomial(capsys, monkeypatch):
    break_the_split(monkeypatch, "non-integer")
    code, out, _ = run(capsys, "conjectures", "--max-occ", "1", "--threads", "1")
    assert code == 0
    assert out.splitlines()[1:] == ["occ 1: split NOT an integer polynomial"]


@pytest.mark.usefixtures("no_record_reads")
def test_conjectures_counts_only_the_shapes_it_checks(capsys, tmp_path):
    # 28 shapes have capacity <= 3; the size-1 shape is exempt from the check
    code, out, _ = run(capsys, "conjectures", "--max-occ", "3", "--threads", "1")
    assert code == 0
    assert out.splitlines()[0].endswith(": holds (27 shapes)")
    # a cached catalog of a larger budget leaves the count as it is
    catalog = tmp_path / "c4.jsonl"
    save_catalog(enumerate_kernel_shapes(4), catalog)
    code, cached, _ = run(capsys, "conjectures", "--max-occ", "3", "--catalog", str(catalog))
    assert code == 0 and cached == out
    # budget 0 has the size-1 shape only: nothing is checked, and nothing holds
    code, out, _ = run(capsys, "conjectures", "--max-occ", "0", "--threads", "1")
    assert code == 0
    assert out == ("size >= feasible-cell count for every shape != 1: "
                   "nothing to check (no shape of size > 1 at --max-occ 0)\n")


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["gf", "--occ", "1", "--k", "3"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.usefixtures("no_record_reads")
def test_catalog_cache_reused_and_refreshed(capsys, tmp_path):
    path = tmp_path / "cat.jsonl"
    code, out1, _ = run(capsys, "gf", "--occ", "2", "--order", "5", "--catalog", str(path))
    assert code == 0 and path.exists()
    # big enough cache: reused silently
    code, out2, err2 = run(capsys, "gf", "--occ", "1", "--order", "5", "--catalog", str(path))
    assert code == 0 and "rebuilding" not in err2
    # too small: rebuilt and refreshed
    code, _, err3 = run(capsys, "gf", "--occ", "3", "--order", "5", "--catalog", str(path))
    assert code == 0 and "rebuilding" in err3
    assert load_catalog(path).max_occ == 3


def test_output_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gf", "--occ", "2", "--order", "10", "--out", str(a))
    run(capsys, "gf", "--occ", "2", "--order", "10", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_shapes_threads_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(capsys, "shapes", "--max-occ", "5", "--threads", "1", "--out", str(a))
    run(capsys, "shapes", "--max-occ", "5", "--threads", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.usefixtures("no_record_reads")
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_catalog_is_rebuilt(capsys, tmp_path, case):
    # the CLI reads no record, so whatever the edit, a catalog without a
    # sidecar is searched again and both files are written anew
    path = tmp_path / "cat.jsonl"
    code, clean, _ = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0 and json.loads(clean)[7] == 410
    fresh, fresh_fold = path.read_bytes(), fold_path(path).read_bytes()
    edit, _ = MALFORMED[case]
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    fold_path(path).unlink()
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0 and out == clean
    assert err.startswith("ignoring cache: ") and "cat.jsonl.fold" in err
    assert path.read_bytes() == fresh
    assert fold_path(path).read_bytes() == fresh_fold


def _fail(what):
    def stub(*args, **kwargs):
        raise AssertionError(f"{what} was called")

    return stub


@pytest.fixture
def no_record_reads(monkeypatch):
    """load_catalog replaced by a stub that fails when called, so that a
    test using it also shows that the commands it runs parse no record.
    The stub goes into cli too, where an import would bind the name."""
    monkeypatch.setattr(shapes, "load_catalog", _fail("load_catalog"))
    monkeypatch.setattr(cli, "load_catalog", _fail("load_catalog"), raising=False)


GF3 = ("gf", "--occ", "3", "--order", "9", "--threads", "1")


def _edit_maximal_record(path, field):
    """Add 1 to the first entry of `field` in the catalog's last record,
    the maximal shape, whose entries all have one digit."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[-1])
    if field == "cells":
        rec["cells"][0][0] += 1
    else:
        rec["lis_ne"][0] += 1
    edited = json.dumps(rec, separators=(",", ":"))
    assert sum(a != b for a, b in zip(edited, lines[-1])) == 1
    path.write_text("\n".join(lines[:-1] + [edited]) + "\n")


@pytest.mark.usefixtures("no_record_reads")
@pytest.mark.parametrize("field", ["cells", "lis_ne"])
def test_edited_catalog_is_rebuilt_by_search(capsys, tmp_path, field):
    path = tmp_path / "cat.jsonl"
    code, clean, _ = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0
    fresh, fresh_fold = path.read_bytes(), fold_path(path).read_bytes()
    _edit_maximal_record(path, field)
    with pytest.raises(CatalogError, match="differs from the one its shape gives"):
        load_catalog(path)
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0 and out == clean
    assert "ignoring cache" in err and "changed after" in err
    assert path.read_bytes() == fresh
    assert fold_path(path).read_bytes() == fresh_fold


# command on a budget-3 catalog -> edited field of its maximal record
POISONED = {
    "restricted": (("restricted", "--occ", "3", "--k", "4", "--order", "10", "--threads", "1"),
                   "lis_ne"),
    "gf": (GF3, "cells"),
}


@pytest.mark.usefixtures("no_record_reads")
@pytest.mark.parametrize("case", sorted(POISONED))
def test_edited_catalog_without_sidecar_does_not_poison_the_cache(capsys, tmp_path, case):
    argv, field = POISONED[case]
    path, fresh = tmp_path / "cat.jsonl", tmp_path / "fresh.jsonl"
    for where in (path, fresh):
        code, _, _ = run(capsys, "shapes", "--max-occ", "3", "--threads", "1", "--out", str(where))
        assert code == 0
    fold_path(path).unlink()
    _, clean, _ = run(capsys, *argv)
    if case == "restricted":
        assert json.loads(clean)[-2:] == [3651, 12971]
    _edit_maximal_record(path, field)
    code, out, err = run(capsys, *argv, "--catalog", str(path))
    assert code == 0 and out == clean
    assert err.startswith("ignoring cache: ")
    assert path.read_bytes() == fresh.read_bytes()
    assert fold_path(path).read_bytes() == fold_path(fresh).read_bytes()
    assert load_fold(path) == fold_catalog(enumerate_kernel_shapes(3))
    # the sidecar written by the rebuild serves the next run
    code, again, err = run(capsys, *argv, "--catalog", str(path))
    assert code == 0 and again == clean and err == ""


@pytest.fixture(scope="module")
def budget7_catalog():
    return enumerate_kernel_shapes(7, threads=2)


GF7 = ("gf", "--occ", "7", "--order", "12", "--threads", "2")


@pytest.mark.usefixtures("no_record_reads")
@pytest.mark.parametrize("sidecar", [False, True], ids=["no_sidecar", "sidecar"])
def test_catalog_past_the_census_is_rebuilt_by_search(capsys, tmp_path, budget7_catalog, sidecar):
    # The census stops at capacity 6, so no count check can see a missing
    # capacity-7 record: only a sound sidecar or a new search serves.
    path = tmp_path / "cat.jsonl"
    fold = save_catalog(budget7_catalog, path)
    fresh, fresh_fold = path.read_bytes(), fold_path(path).read_bytes()
    code, clean, err = run(capsys, *GF7, "--catalog", str(path))
    assert code == 0 and err == ""
    assert json.loads(clean)[6:9] == [37, 365, 2489]
    lines = path.read_text().splitlines()
    at = next(i for i, rec in enumerate(budget7_catalog.records, start=1)
              if rec.capacity == 7 and rec.size < 15)
    path.write_text("\n".join(lines[:at] + lines[at + 1:]) + "\n")
    load_catalog(path)  # the load checks pass without the record
    if not sidecar:
        fold_path(path).unlink()
    code, out, err = run(capsys, *GF7, "--catalog", str(path))
    assert code == 0 and out == clean
    assert err.startswith("ignoring cache: ")
    assert ("changed after" in err) == sidecar
    assert path.read_bytes() == fresh
    assert fold_path(path).read_bytes() == fresh_fold
    assert load_fold(path) == fold


def _sidecar_wrong_type(obj):
    obj["max_occ"] = "3"


def _sidecar_negative_count(obj):
    obj["classes"][0][4] = -1


def _sidecar_extra_shape(obj):
    obj["classes"][1][4] += 1  # a second shape in the capacity-1 maximal class


def _sidecar_no_maximal_shape(obj):
    obj["classes"].pop()  # classes are sorted, so the budget-3 maximal one is last


def _sidecar_edited_row(obj):
    # a value still in range and a census still met: only the digest sees it
    row = next(row for row in obj["classes"] if row[3] == [0, 1, 1])
    row[3] = [1, 1, 1]


def _sidecar_old_format(obj):
    obj["format_version"] = 1


# defect of the sidecar -> (edit of its JSON object, or of its text, expected message)
SIDECAR_DEFECTS = {
    "bad_json": (lambda text: text[:40], "bad JSON"),
    "wrong_type": (_sidecar_wrong_type, "wrong type"),
    "negative_count": (_sidecar_negative_count, "out of range"),
    "census_mismatch": (_sidecar_extra_shape, "census"),
    "no_maximal_shape": (_sidecar_no_maximal_shape, "no maximal shape for budget 3"),
    "edited_row": (_sidecar_edited_row, "differ from those it was written with"),
    "old_format": (_sidecar_old_format, "unsupported format_version 1"),
}


@pytest.mark.usefixtures("no_record_reads")
@pytest.mark.parametrize("case", sorted(SIDECAR_DEFECTS))
def test_unsound_sidecar_is_ignored_and_rewritten(capsys, tmp_path, case):
    edit, message = SIDECAR_DEFECTS[case]
    path = tmp_path / "cat.jsonl"
    code, clean, _ = run(capsys, *GF3, "--catalog", str(path))
    fresh = path.read_bytes()
    sidecar = fold_path(path)
    sound = sidecar.read_text()
    if case == "bad_json":
        sidecar.write_text(edit(sound))
    else:
        obj = json.loads(sound)
        edit(obj)
        sidecar.write_text(json.dumps(obj))
    with pytest.raises(CatalogError, match=message):
        load_fold(path)
    # searched again: the catalog is rewritten as it was, the sidecar sound
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0 and out == clean
    assert "ignoring cache" in err and message in err
    assert path.read_bytes() == fresh
    assert sidecar.read_text() == sound


def test_search_that_loses_the_maximal_shape_fails_the_build(
        capsys, tmp_path, search_without_maximal_shape):
    path = tmp_path / "cat.jsonl"
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "no maximal shape for budget 3" in err
    assert not path.exists() and not fold_path(path).exists()


def test_search_job_with_a_count_off_by_one_fails_the_build(
        capsys, tmp_path, search_with_a_count_off_by_one):
    path = tmp_path / "cat.jsonl"
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "differ from the census" in err
    assert not path.exists() and not fold_path(path).exists()


@pytest.mark.usefixtures("no_record_reads")
def test_catalog_without_sidecar_is_searched_again_and_gains_one(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cat.jsonl"
    code, _, _ = run(capsys, "shapes", "--max-occ", "3", "--threads", "1", "--out", str(path))
    assert code == 0
    fresh, fresh_fold = path.read_bytes(), fold_path(path).read_bytes()
    fold_path(path).unlink()
    _, clean, _ = run(capsys, *GF3)
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0 and out == clean
    assert err.startswith("ignoring cache: ") and "cat.jsonl.fold" in err
    assert path.read_bytes() == fresh
    assert fold_path(path).read_bytes() == fresh_fold
    # the next run reads the sidecar alone
    monkeypatch.setattr(cli, "enumerate_kernel_shapes", _fail("the shape search"))
    code, again, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0 and again == out and err == ""


@pytest.mark.usefixtures("no_record_reads")
def test_warm_run_reads_the_sidecar_only(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cat.jsonl"
    code, clean, _ = run(capsys, *GF3, "--catalog", str(path))
    monkeypatch.setattr(cli, "enumerate_kernel_shapes", _fail("the shape search"))
    for argv in (GF3, ("closed-form", "--occ", "3"), ("restricted", "--occ", "3", "--k", "4"),
                 ("verify", "--occ", "3", "--max-n", "7", "--threads", "1"),
                 ("conjectures", "--max-occ", "3")):
        code, out, err = run(capsys, *argv, "--catalog", str(path))
        assert code == 0 and err == "", argv
    code, out, _ = run(capsys, *GF3, "--catalog", str(path))
    assert out == clean


@pytest.mark.usefixtures("no_record_reads")
def test_shapes_out_writes_the_sidecar(capsys, tmp_path):
    written, searched = tmp_path / "s3.jsonl", tmp_path / "c3.jsonl"
    code, out, _ = run(capsys, "shapes", "--max-occ", "3", "--threads", "1", "--out", str(written))
    assert code == 0 and out == ""
    assert load_fold(written) == fold_catalog(enumerate_kernel_shapes(3))
    # the same pair of files a cold solve writes
    code, _, _ = run(capsys, *GF3, "--catalog", str(searched))
    assert code == 0
    assert written.read_bytes() == searched.read_bytes()
    assert fold_path(written).read_bytes() == fold_path(searched).read_bytes()


WARM_SOLVES = (
    ("gf", "--occ", "3", "--order", "12"),
    ("closed-form", "--occ", "3"),
    ("restricted", "--occ", "3", "--k", "3", "--order", "12"),
)
# Modules a solve from a sound sidecar never runs, so never imports.
OFF_THE_SOLVER_PATH = ("dataclasses", "multiprocessing", "occ132.kernel", "occ132.perms",
                       "occ132.oracle", "occ132.invariants")
# Runs the CLI on argv[2:], then writes which of the comma-separated
# modules in argv[1] it loaded to stderr as a JSON list.
LOADED_PROBE = """
import json, sys
from occ132.cli import main
code = main(sys.argv[2:])
print(json.dumps([name for name in sys.argv[1].split(",") if name in sys.modules]), file=sys.stderr)
sys.exit(code)
"""


def cli_env():
    """The environment of a CLI subprocess that imports this package."""
    src = str(Path(occ132.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_warm_solves_import_only_the_solver_path(capsys, tmp_path):
    catalog = tmp_path / "c3.jsonl"
    save_catalog(enumerate_kernel_shapes(3), catalog)
    assert fold_path(catalog).exists()
    env = cli_env()
    for argv in WARM_SOLVES:
        code, cold, _ = run(capsys, *argv, "--threads", "1")
        assert code == 0
        warm = subprocess.run(
            [sys.executable, "-c", LOADED_PROBE, ",".join(OFF_THE_SOLVER_PATH), *argv,
             "--threads", "2", "--catalog", str(catalog)],
            capture_output=True, text=True, env=env, timeout=60)
        assert warm.returncode == 0, warm.stderr
        assert warm.stdout == cold, argv
        assert warm.stderr.splitlines() == ["[]"], argv


def test_check_invariants_does_not_load_multiprocessing():
    # the command reads the oracle's sweep guard but never sweeps
    probe = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, "multiprocessing,occ132.invariants",
         "check-invariants", "--max-n", "3"],
        capture_output=True, text=True, env=cli_env(), timeout=60)
    assert probe.returncode == 0, probe.stderr
    assert probe.stderr.splitlines() == ['["occ132.invariants"]']


def test_closed_stdout_is_not_reported_as_an_error():
    # stdout is a pipe whose read end is closed before the command starts,
    # so its first write fails, as under ``occ132 ... | head -1``
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from occ132.cli import main; sys.exit(main())",
             "gf", "--occ", "1", "--order", "6", "--threads", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=cli_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_broken_pipe_outside_stdout_is_an_error(capsys, monkeypatch, tmp_path):
    # an --out whose reader went away (a FIFO, say) fails the write with
    # EPIPE; that is a failed run, not a closed stdout
    target = tmp_path / "gf.json"
    write_text = Path.write_text

    def broken(self, *args, **kwargs):
        if self == target:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", broken)
    stdout = sys.stdout
    code, out, err = run(capsys, "gf", "--occ", "1", "--order", "6", "--threads", "1",
                         "--out", str(target))
    assert (code, out, err) == (2, "", "error: [Errno 32] Broken pipe\n")
    assert sys.stdout is stdout


@pytest.mark.usefixtures("no_record_reads")
def test_unwritable_cache_is_an_error(capsys, monkeypatch, tmp_path):
    # a catalog without a sidecar is searched again, and a sidecar that
    # cannot then be written fails the run, as a catalog that cannot be
    # written does
    path = tmp_path / "cat.jsonl"
    run(capsys, "shapes", "--max-occ", "3", "--threads", "1", "--out", str(path))
    fold_path(path).unlink()
    write_text = Path.write_text

    def read_only(self, *args, **kwargs):
        if self == fold_path(path):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", read_only)
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 2 and out == ""
    assert err.startswith("ignoring cache: ")
    assert err.splitlines()[-1].startswith("error:") and "Permission denied" in err
    assert not fold_path(path).exists()


def test_verify_rejects_negative_max_n(capsys):
    code, out, err = run(capsys, "verify", "--occ", "1", "--max-n", "-3")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_verify_refuses_beyond_oracle_guard(capsys, monkeypatch):
    def no_catalog(*args):
        raise AssertionError("verify beyond the sweep guard built a catalog")

    monkeypatch.setattr(cli, "_obtain_catalog", no_catalog)
    code, out, err = run(capsys, "verify", "--occ", "1", "--max-n", str(SWEEP_GUARD + 1))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "sweep guard" in err


def test_budget_above_the_search_guard_is_refused_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_kernel_shapes", _fail("the shape search"))
    monkeypatch.setattr(shapes, "_search", _fail("the shape search"))
    monkeypatch.setattr(oracle, "joint_tables", _fail("joint_tables"))
    over = str(SEARCH_GUARD + 1)
    for argv in (("gf", "--occ", over, "--order", "3"), ("closed-form", "--occ", over),
                 ("restricted", "--occ", over, "--k", "3"), ("verify", "--occ", over, "--max-n", "9"),
                 ("shapes", "--max-occ", over), ("conjectures", "--max-occ", over)):
        code, out, err = run(capsys, *argv, "--threads", "1")
        flag = "--max-occ" if "--max-occ" in argv else "--occ"
        assert (code, out) == (2, ""), argv
        assert err == f"error: {flag} {over} exceeds the search guard {SEARCH_GUARD}\n", argv


def test_check_invariants_rejects_empty_range(capsys):
    code, out, err = run(capsys, "check-invariants", "--max-n", "0")
    assert code == 2 and "PASS" not in out
    assert err.startswith("error:")


def test_check_invariants_refuses_beyond_sweep_guard(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(invariants, "iter_kernel_permutations", no_sweep)
    monkeypatch.setattr(invariants, "structure_sweep", no_sweep)
    code, out, err = run(capsys, "check-invariants", "--max-n", str(SWEEP_GUARD + 2))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "sweep guard" in err


def test_oracle_error_is_reported(capsys):
    # k < 1 is refused before any output, not after the table header; the
    # library's Solver.restricted_series(r, 0) stays the zero series.
    for argv in (("verify", "--occ", "0", "--max-n", "2", "--k", "0"),
                 ("restricted", "--occ", "0", "--k", "0", "--order", "4"),
                 ("restricted", "--occ", "1", "--k", "-3", "--order", "4")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error:") and "k must be >= 1" in err, argv


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_bad_threads_rejected(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["gf", "--occ", "1", "--order", "4", "--threads", threads])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err and "--threads" in captured.err


def test_check_invariants_rejects_zero_threads(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-invariants", "--max-n", "3", "--threads", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err and "--threads" in captured.err


def test_bad_threads_env_rejected_only_where_threads_apply(capsys, monkeypatch):
    monkeypatch.setenv("OCC132_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["gf", "--occ", "1", "--order", "4"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    # an explicit --threads overrides the environment
    code, out, _ = run(capsys, "gf", "--occ", "1", "--order", "4", "--threads", "1")
    assert code == 0 and json.loads(out) == [0, 0, 0, 1, 5]
    # check-invariants takes --threads too, so the environment applies to it
    with pytest.raises(SystemExit) as exc:
        main(["check-invariants", "--max-n", "3"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    code, out, _ = run(capsys, "check-invariants", "--max-n", "3", "--threads", "1")
    assert code == 0 and "FAIL" not in out
    with pytest.raises(SystemExit) as exc:
        main(["gf", "--help"])
    assert exc.value.code == 0


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and more than one usable CPU")
def test_default_threads_counts_the_cpus_the_process_may_use():
    cpu = min(os.sched_getaffinity(0))
    env = cli_env()
    env.pop("OCC132_THREADS", None)
    probe = subprocess.run(
        [sys.executable, "-c",
         "from occ132.cli import build_parser; print(build_parser().parse_args(['gf', '--occ', '1']).threads)"],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "1\n"


def test_closed_form_refuses_level_0_before_any_catalog_work(capsys, monkeypatch):
    def no_catalog(*args):
        raise AssertionError("closed-form --occ 0 built a catalog")

    monkeypatch.setattr(cli, "_obtain_catalog", no_catalog)
    code, out, err = run(capsys, "closed-form", "--occ", "0")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Catalan" in err and "P = 1/x and Q = -1/x" in err and "not polynomial" in err


@pytest.mark.parametrize("breaker", sorted(SPLIT_BREAKERS))
def test_closed_form_refuses_a_split_that_is_not_an_integer_polynomial(capsys, monkeypatch, breaker):
    break_the_split(monkeypatch, breaker)
    code, out, err = run(capsys, "closed-form", "--occ", "1")
    assert code == 1 and out == ""
    assert "split of level 1 is not an integer polynomial" in err
    assert "Fraction" not in err


def assert_one_error_line(code, out, err):
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


def test_catalog_path_that_is_a_directory_is_an_error(capsys, tmp_path):
    code, out, err = run(capsys, "gf", "--occ", "1", "--order", "4", "--catalog", str(tmp_path))
    assert_one_error_line(code, out, err)


def test_out_into_a_missing_directory_is_an_error(capsys, tmp_path):
    target = tmp_path / "missing" / "gf.json"
    code, out, err = run(capsys, "gf", "--occ", "1", "--order", "4", "--out", str(target))
    assert_one_error_line(code, out, err)
    assert not target.parent.exists()


def test_catalog_in_a_missing_directory_fails_before_the_search(capsys, monkeypatch, tmp_path):
    def no_search(*args, **kwargs):
        raise AssertionError("the shape search started")

    monkeypatch.setattr(cli, "enumerate_kernel_shapes", no_search)
    target = tmp_path / "missing" / "c.jsonl"
    code, out, err = run(capsys, "gf", "--occ", "6", "--catalog", str(target))
    assert_one_error_line(code, out, err)
    assert not target.parent.exists()


def test_out_that_is_a_directory_fails_before_any_work(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "enumerate_kernel_shapes", _fail("the shape search"))
    monkeypatch.setattr(oracle, "joint_tables", _fail("joint_tables"))
    for argv in (("gf", "--occ", "1", "--order", "5"), ("verify", "--occ", "1", "--max-n", "4"),
                 ("shapes", "--max-occ", "1")):
        code, out, err = run(capsys, *argv, "--threads", "1", "--out", str(tmp_path))
        assert_one_error_line(code, out, err)
        assert err == f"error: --out {tmp_path} is a directory\n", argv


def test_out_in_a_missing_directory_fails_before_the_search(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "enumerate_kernel_shapes", _fail("the shape search"))
    target = tmp_path / "missing" / "gf.json"
    code, out, err = run(capsys, "gf", "--occ", "6", "--threads", "1", "--out", str(target))
    assert_one_error_line(code, out, err)
    assert "--out" in err
    assert not target.parent.exists()


@pytest.mark.parametrize("suffix", ["", ".fold"])
def test_out_that_is_the_catalog_or_its_sidecar_is_refused(capsys, monkeypatch, tmp_path, suffix):
    catalog = tmp_path / "c.jsonl"
    assert run(capsys, "gf", "--occ", "1", "--threads", "1", "--catalog", str(catalog))[0] == 0
    before = {path: path.read_bytes() for path in (catalog, fold_path(catalog))}
    monkeypatch.setattr(cli, "_obtain_catalog", _fail("_obtain_catalog"))
    monkeypatch.setattr(oracle, "joint_tables", _fail("joint_tables"))
    # the same file, spelled through another directory
    (tmp_path / "sub").mkdir()
    target = tmp_path / "sub" / ".." / f"c.jsonl{suffix}"
    for argv in (("gf", "--occ", "1"), ("closed-form", "--occ", "1"),
                 ("restricted", "--occ", "1", "--k", "3"), ("verify", "--occ", "1", "--max-n", "4"),
                 ("conjectures", "--max-occ", "1")):
        code, out, err = run(capsys, *argv, "--threads", "1", "--catalog", str(catalog),
                             "--out", str(target))
        assert_one_error_line(code, out, err)
        assert "--catalog" in err
    assert {path: path.read_bytes() for path in before} == before


NEGATIVE_BOUNDS = {
    "gf_order": ("gf", "--occ", "6", "--order", "-1"),
    "gf_occ": ("gf", "--occ", "-1"),
    "closed_form_occ": ("closed-form", "--occ", "-2"),
    "restricted_occ": ("restricted", "--occ", "-1", "--k", "3"),
    "restricted_order": ("restricted", "--occ", "6", "--k", "3", "--order", "-5"),
    "verify_occ": ("verify", "--occ", "-1", "--max-n", "10"),
    "conjectures_max_occ": ("conjectures", "--max-occ", "-1"),
    "shapes_max_occ": ("shapes", "--max-occ", "-1"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_BOUNDS))
def test_negative_bounds_are_refused_before_any_work(capsys, monkeypatch, tmp_path, case):
    for name in ("_obtain_catalog", "enumerate_kernel_shapes"):
        monkeypatch.setattr(cli, name, _fail(name))
    monkeypatch.setattr(oracle, "joint_tables", _fail("joint_tables"))
    catalog = tmp_path / "c.jsonl"
    argv = NEGATIVE_BOUNDS[case]
    if argv[0] != "shapes":
        argv += ("--catalog", str(catalog))
    code, out, err = run(capsys, *argv, "--threads", "1")
    assert_one_error_line(code, out, err)
    assert "must be >= 0" in err
    assert not catalog.exists()
