import errno
import json
import multiprocessing
import os
import subprocess
import sys
from fractions import Fraction
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
    save_catalog,
)
from occ132.cli import main
from occ132.oracle import SWEEP_GUARD
from occ132.shapes import CatalogError, fold_catalog, fold_path, load_fold


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
    assert [str(rec.shape) for rec in catalog.records] == [
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
    # a fresh sweep each run, so that no cached table hides a difference
    oracle._joint_cache.clear()
    code, out, _ = run(capsys, *VERIFY_REFERENCES[reference], "--threads", threads)
    assert code == 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "references" / f"{reference}.out"
    assert out.encode() == path.read_bytes()


def test_verify_sweeps_every_n_in_one_pool(capsys, monkeypatch):
    pools = []
    real_pool = multiprocessing.Pool

    def counting_pool(*args, **kwargs):
        pools.append(args)
        return real_pool(*args, **kwargs)

    # an empty cache, so every n is swept; the shared cache comes back after
    monkeypatch.setattr(oracle, "_joint_cache", {})
    # the oracle imports Pool when it sweeps with workers
    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    code, out, _ = run(capsys, *VERIFY_REFERENCES["verify2"], "--threads", "2")
    assert code == 0
    assert len(pools) == 1
    assert sorted(oracle._joint_cache) == list(range(10))


def test_verify_levels_in_one_process(capsys, monkeypatch):
    # each run sweeps with its own budget; the budget-0 tables cached by
    # the first lack the rows the second reads
    monkeypatch.setattr(oracle, "_joint_cache", {})
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


def test_check_invariants_matches_benchmark_reference(capsys):
    code, out, _ = run(capsys, "check-invariants", "--max-n", "7")
    assert code == 0
    path = Path(__file__).resolve().parents[1] / "perfbench" / "references" / "invariants7.out"
    assert out.encode() == path.read_bytes()


# the closed form of level 1 times a factor that breaks its integer split
SPLIT_BREAKERS = {
    "non-integer": AlgebraicFunction.constant(Fraction(1, 3)),
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


def _budget3_lines(tmp_path):
    path = tmp_path / "cat.jsonl"
    save_catalog(enumerate_kernel_shapes(3), path)
    return path, path.read_text().splitlines()


def _drop_key(lines):
    rec = json.loads(lines[5])
    del rec["lis_ne"]
    return lines[:5] + [json.dumps(rec)] + lines[6:]


def _wrong_type(lines):
    rec = json.loads(lines[5])
    rec["size"] = str(rec["size"])
    return lines[:5] + [json.dumps(rec)] + lines[6:]


# case -> (edit of the catalog lines, expected error); line 0 is the
# header, records are sorted by size, and the last is the maximal shape.
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
def test_malformed_catalog_is_rebuilt(capsys, tmp_path, case):
    edit, message = MALFORMED[case]
    path, lines = _budget3_lines(tmp_path)
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(CatalogError, match=message):
        load_catalog(path)
    # without a sidecar the CLI loads the records, so it meets the same check
    fold_path(path).unlink()
    code, out, err = run(capsys, "gf", "--occ", "3", "--order", "7", "--catalog", str(path))
    assert code == 0
    assert "ignoring cache" in err
    assert message in err
    assert json.loads(out)[7] == 410
    load_catalog(path)  # the rebuilt cache is sound
    load_fold(path)


def _fail(what):
    def stub(*args, **kwargs):
        raise AssertionError(f"{what} was called")

    return stub


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
    return len(lines)


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


@pytest.mark.parametrize("case", sorted(POISONED))
def test_edited_catalog_without_sidecar_does_not_poison_the_cache(capsys, tmp_path, case):
    argv, field = POISONED[case]
    path, fresh = tmp_path / "cat.jsonl", tmp_path / "fresh.jsonl"
    for where in (path, fresh):
        code, _, _ = run(capsys, "shapes", "--max-occ", "3", "--threads", "1", "--out", str(where))
        assert code == 0
    _, clean, _ = run(capsys, *argv)
    if case == "restricted":
        assert json.loads(clean)[-2:] == [3651, 12971]
    lines = _edit_maximal_record(path, field)
    code, out, err = run(capsys, *argv, "--catalog", str(path))
    assert code == 0 and out == clean
    assert "ignoring cache" in err and f":{lines}: record differs" in err
    assert path.read_bytes() == fresh.read_bytes()
    assert load_fold(path) == fold_catalog(enumerate_kernel_shapes(3))
    # the sidecar written by the rebuild serves the next run
    code, again, err = run(capsys, *argv, "--catalog", str(path))
    assert code == 0 and again == clean and err == ""


@pytest.fixture(scope="module")
def budget7_catalog():
    return enumerate_kernel_shapes(7, threads=2)


GF7 = ("gf", "--occ", "7", "--order", "12", "--threads", "2")


@pytest.mark.parametrize("sidecar", [False, True], ids=["no_sidecar", "sidecar"])
def test_catalog_past_the_census_is_rebuilt_by_search(capsys, tmp_path, budget7_catalog, sidecar):
    # The census stops at capacity 6, so the full load of a budget-7
    # catalog cannot see a missing capacity-7 record: it is searched again.
    path = tmp_path / "cat.jsonl"
    fold = fold_catalog(budget7_catalog)
    save_catalog(budget7_catalog, path, fold)
    fresh = path.read_bytes()
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
    assert "ignoring cache" in err and "budget 7 is past the census" in err
    assert ("changed after" in err) == sidecar
    assert path.read_bytes() == fresh
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


@pytest.mark.parametrize("case", sorted(SIDECAR_DEFECTS))
def test_unsound_sidecar_is_ignored_and_rewritten(capsys, monkeypatch, tmp_path, case):
    edit, message = SIDECAR_DEFECTS[case]
    path = tmp_path / "cat.jsonl"
    code, clean, _ = run(capsys, *GF3, "--catalog", str(path))
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
    # the catalog itself is sound: it is loaded, not searched again
    monkeypatch.setattr(cli, "enumerate_kernel_shapes", _fail("the shape search"))
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0 and out == clean
    assert "ignoring cache" in err and message in err
    assert sidecar.read_text() == sound


def test_search_that_loses_the_maximal_shape_fails_the_build(
        capsys, tmp_path, search_without_maximal_shape):
    path = tmp_path / "cat.jsonl"
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "no maximal shape for budget 3" in err
    assert not path.exists() and not fold_path(path).exists()


def test_catalog_without_sidecar_is_loaded_and_gains_one(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cat.jsonl"
    code, _, _ = run(capsys, "shapes", "--max-occ", "3", "--threads", "1", "--out", str(path))
    assert code == 0 and not fold_path(path).exists()
    _, clean, _ = run(capsys, *GF3)
    loads = []
    real_load = cli.load_catalog

    def counting_load(where):
        loads.append(where)
        return real_load(where)

    monkeypatch.setattr(cli, "enumerate_kernel_shapes", _fail("the shape search"))
    monkeypatch.setattr(cli, "load_catalog", counting_load)
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0 and err == "" and out == clean
    assert loads == [str(path)]
    assert load_fold(path).max_occ == 3
    # the next run reads the sidecar alone
    code, again, _ = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0 and again == out and len(loads) == 1


def test_warm_run_reads_the_sidecar_only(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cat.jsonl"
    code, clean, _ = run(capsys, *GF3, "--catalog", str(path))
    monkeypatch.setattr(cli, "load_catalog", _fail("load_catalog"))
    monkeypatch.setattr(cli, "enumerate_kernel_shapes", _fail("the shape search"))
    for argv in (GF3, ("closed-form", "--occ", "3"), ("restricted", "--occ", "3", "--k", "4"),
                 ("verify", "--occ", "3", "--max-n", "7", "--threads", "1"),
                 ("conjectures", "--max-occ", "3")):
        code, out, err = run(capsys, *argv, "--catalog", str(path))
        assert code == 0 and err == "", argv
    code, out, _ = run(capsys, *GF3, "--catalog", str(path))
    assert out == clean


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


def test_unwritable_sidecar_still_serves(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cat.jsonl"
    run(capsys, "shapes", "--max-occ", "3", "--threads", "1", "--out", str(path))
    _, clean, _ = run(capsys, *GF3)

    def read_only(fold, where):
        raise PermissionError(f"{where}.fold: read-only")

    monkeypatch.setattr(cli, "save_fold", read_only)
    code, out, err = run(capsys, *GF3, "--catalog", str(path))
    assert code == 0 and out == clean
    assert "not caching the fold" in err and "read-only" in err
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


def test_check_invariants_rejects_empty_range(capsys):
    code, out, err = run(capsys, "check-invariants", "--max-n", "0")
    assert code == 2 and "PASS" not in out
    assert err.startswith("error:")


def test_check_invariants_refuses_beyond_sweep_guard(capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(cli, "iter_kernel_permutations", no_sweep)
    monkeypatch.setattr(invariants, "structure_sweep", no_sweep)
    code, out, err = run(capsys, "check-invariants", "--max-n", str(SWEEP_GUARD + 2))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "sweep guard" in err


def test_oracle_error_is_reported(capsys):
    # k < 1 is refused before any output, not after the table header; the
    # library's restricted_series(r, 0) stays the zero series.
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


def test_bad_threads_env_rejected_only_where_threads_apply(capsys, monkeypatch):
    monkeypatch.setenv("OCC132_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["gf", "--occ", "1", "--order", "4"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    # an explicit --threads overrides the environment
    code, out, _ = run(capsys, "gf", "--occ", "1", "--order", "4", "--threads", "1")
    assert code == 0 and json.loads(out) == [0, 0, 0, 1, 5]
    code, out, _ = run(capsys, "check-invariants", "--max-n", "3")
    assert code == 0 and "FAIL" not in out
    with pytest.raises(SystemExit) as exc:
        main(["gf", "--help"])
    assert exc.value.code == 0


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


def test_out_in_a_missing_directory_fails_before_the_search(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "enumerate_kernel_shapes", _fail("the shape search"))
    target = tmp_path / "missing" / "gf.json"
    code, out, err = run(capsys, "gf", "--occ", "6", "--threads", "1", "--out", str(target))
    assert_one_error_line(code, out, err)
    assert "--out" in err
    assert not target.parent.exists()


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
