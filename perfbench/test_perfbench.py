"""Tests of the benchmark's own checks.

Run from the repository root: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run
import tracer
from make_references import expand_closed_form

sys.path.insert(0, str(run.BENCH_DIR.parent / "src"))


def test_corrupted_reference_counts_as_failure(tmp_path):
    refs = tmp_path / "references"
    shutil.copytree(run.REFERENCES, refs)
    target = refs / "invariants7.out"
    target.write_bytes(target.read_bytes().replace(b"PASS", b"FAIL", 1))
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "verify-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--references", str(refs)],
        cwd=run.BENCH_DIR.parent, capture_output=True, text=True, timeout=170,
    )
    *_, detail, result = proc.stdout.splitlines()
    result = json.loads(result)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 1)
    assert json.loads(detail)["detail"]["fail_frac"] == 1 / 3
    assert "invariants7: stdout differs from the reference" in proc.stderr


def test_exact_counters_must_repeat():
    exact = {
        "shapes.shapes_found": 3214,
        "shapes.census": list(run.KNOWN_CENSUS),
        "solver.classes": 74,
        "series.mul_calls": 534,
        "kernel.graph_builds_per_perm": 0.0,
    }
    assert run.counter_mismatches(exact, dict(exact)) == []
    moved = dict(exact, **{"series.mul_calls": 535})
    assert [p for p in run.counter_mismatches(exact, moved) if p.startswith("series.mul_calls")]
    wrong = dict(exact, **{"shapes.census": [1, 1, 5, 21, 105, 504, 2576]})
    assert run.counter_mismatches(wrong, dict(wrong))


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    inner = t.wrap("kernel.inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    t.wrap("shapes.outer", body)()
    rep = t.report()
    assert rep["calls"] == {"shapes.outer": 1, "kernel.inner": 1}
    assert 0.009 < rep["self_s"]["shapes"] < 0.019
    assert rep["self_s"]["kernel"] >= 0.019
    (child_id, child_parent, *_), (outer_id, outer_parent, *_) = rep["spans"]
    assert (child_parent, outer_parent) == (outer_id, None)


def test_tracer_finds_public_callables():
    import occ132.kernel
    import occ132.series

    names = {name for name, *_ in tracer.public_callables(occ132.series)}
    assert {"series.PowerSeries.__mul__", "series.PowerSeries.__truediv__",
            "series.PowerSeries.from_coeffs", "series.catalan_series"} <= names
    assert "series.PowerSeries.__getitem__" not in names
    assert "series._as_fraction" not in names
    kernel_names = {name for name, *_ in tracer.public_callables(occ132.kernel)}
    assert "kernel.build_occurrence_graph" in kernel_names
    assert "kernel.Permutation" not in kernel_names  # imported, not defined there


def test_graph_builds_counted_inside_structure_sweep_only():
    from occ132.kernel import build_occurrence_graph
    from occ132.perms import Permutation

    t = tracer.Tracer()
    build = t.wrap("kernel.build_occurrence_graph", build_occurrence_graph)
    build(Permutation((1, 3, 2)))
    sweep = t.wrap("invariants.structure_sweep",
                   lambda perms: [build(Permutation(p)) for p in perms])
    sweep([(1, 3, 2), (1, 3, 2), (2, 1)])
    observed = t.report()["observed"]
    assert (observed["sweep_graph_builds"], observed["swept_perms"]) == (3, 2)


def test_closed_form_expansion_level1():
    # (x - 1 + (1 - 3x)(1 - 4x)^(-1/2)) / 2 counts permutations with one 132.
    form = {"two_P": [-1, 1], "two_Q": [1, -3], "exponent_num": -1, "exponent_den": 2}
    assert expand_closed_form(form, 6) == [0, 0, 0, 1, 5, 21, 84]
