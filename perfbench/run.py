#!/usr/bin/env python3
"""Benchmark of the ``occ132`` command line; see ``perfbench/README.md``.

Run from the repository root::

    python3 perfbench/run.py --workload warm-solve --seed 1 --seconds 10 --trace 0

Each workload runs real CLI commands as subprocesses, compares every
stdout byte for byte with ``perfbench/references``, and prints one JSON
result as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same commands under ``tracer.py`` and reports
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references"
WORK = BENCH_DIR / ".work"

# Every workload pins two worker processes: the CLI's default on a 2-core host.
THREADS = "2"
# Shapes by capacity 0..6 in the budget-6 catalog.
KNOWN_CENSUS = (1, 1, 5, 21, 105, 504, 2577)
STARTUP_SAMPLES = 5
# A run must end within 180 s; commands still running at this point are killed.
DEADLINE_S = 165.0

CLI_ENTRY = "import sys; from occ132.cli import main; sys.exit(main())"

COMMANDS = {
    # Run on a catalog path that does not exist yet: searches, then writes the catalog.
    "gf6": ("gf", "--occ", "6", "--threads", THREADS, "--catalog", "{catalog}"),
    "closed_form6": ("closed-form", "--occ", "6", "--threads", THREADS, "--catalog", "{catalog}"),
    "gf6_order64": ("gf", "--occ", "6", "--order", "64", "--threads", THREADS,
                    "--catalog", "{catalog}"),
    "restricted6_k6": ("restricted", "--occ", "6", "--k", "6", "--threads", THREADS,
                       "--catalog", "{catalog}"),
    "verify2": ("verify", "--occ", "2", "--max-n", "9", "--threads", THREADS),
    "verify1_k4": ("verify", "--occ", "1", "--max-n", "9", "--k", "4", "--threads", THREADS),
    # check-invariants takes no --threads; OCC132_THREADS pins it like the rest.
    "invariants7": ("check-invariants", "--max-n", "7"),
}
COMMAND_KINDS = ("gf", "closed-form", "restricted", "verify", "check-invariants")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[str, ...]  # commands whose catalog the workload reads
    commands: tuple[str, ...]
    # Set-ups before each iteration and after the last: one where set-up is a
    # cold search, many where it is only an interpreter start.
    setups_per_block: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("warm-solve", ("gf6",), ("gf6_order64", "closed_form6", "restricted6_k6"), 1),
        Workload("verify-sweep", (), ("verify2", "verify1_k4", "invariants7"), 8),
    )
}


class BenchError(RuntimeError):
    """The benchmark cannot run here, or ran out of time."""


@dataclass
class CommandRun:
    cid: str
    kind: str
    wall_s: float
    cpu_s: float
    rss_mib: float
    ok: bool


def metric_name(kind: str) -> str:
    return kind.replace("-", "_") + "_s"


class Runner:
    """Starts CLI processes, times them, and checks their output."""

    def __init__(self, root: Path, references: Path, work: Path, deadline: float):
        src = root / "src"
        if not (src / "occ132" / "cli.py").is_file():
            raise BenchError(f"no occ132 sources under {src}")
        self.references = references
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        # Cache bytecode as an installed package would, under the benchmark's own directory.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update(
            PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))),
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
            PYTHONHASHSEED="0",
            OCC132_THREADS=THREADS,
        )
        self.counter = 0

    def spawn(self, argv: list[str], stdout: Path) -> tuple[int, float, object]:
        """Run argv to completion; return (exit code, wall seconds, rusage)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a command")
        err = stdout.with_suffix(".err")
        with open(stdout, "wb") as out, open(err, "wb") as errf:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=errf, env=self.env,
                                    start_new_session=True)
            timed_out = threading.Event()

            def kill_group():
                timed_out.set()
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(remaining, kill_group)
            timer.start()
            try:
                # wait4 reports the child plus the workers it reaped (RUSAGE_BOTH).
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if timed_out.is_set():
            raise BenchError(f"command killed at the run deadline: {argv}")
        return proc.returncode, wall, usage

    def startup(self) -> float:
        """Interpreter start plus ``import occ132.cli``; also fills the bytecode cache."""
        out = self.work / "startup.out"
        code, wall, _ = self.spawn([sys.executable, "-c", "import occ132.cli"], out)
        if code != 0:
            raise BenchError(f"importing occ132.cli failed: {out.with_suffix('.err').read_text()}")
        return wall

    def execute(self, name: str, args, trace_out: Path | None = None):
        """Run one CLI command; return (stdout file, exit code, wall seconds, rusage)."""
        if trace_out is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--out", str(trace_out), "--",
                    *args]
        self.counter += 1
        stdout = self.work / f"{self.counter:04d}-{name}.out"
        return (stdout, *self.spawn(argv, stdout))

    def run(self, cid: str, catalog: Path, trace_out: Path | None = None) -> CommandRun:
        """Run a benchmark command and check it against its reference."""
        args = [a.replace("{catalog}", str(catalog)) for a in COMMANDS[cid]]
        stdout, code, wall, usage = self.execute(cid, args, trace_out)
        problem = ""
        if code != 0:
            problem = f"exit code {code}"
        elif stdout.read_bytes() != (self.references / f"{cid}.out").read_bytes():
            problem = "stdout differs from the reference"
        elif cid == "gf6":
            want = (self.references / "catalog6.sha256").read_text().split()[0]
            if hashlib.sha256(catalog.read_bytes()).hexdigest() != want:
                problem = "catalog file differs from the reference"
        if problem:
            print(f"# FAIL {cid}: {problem} ({stdout})", file=sys.stderr)
        return CommandRun(cid, args[0], wall, usage.ru_utime + usage.ru_stime,
                          usage.ru_maxrss / 1024.0, not problem)


def host_probe() -> float:
    """A fixed pure-Python loop; reported beside every run, never divided by."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def set_up(runner: Runner, workload: Workload, where: Path) -> tuple[float, Path, list[CommandRun]]:
    """Fresh directory, a warm bytecode cache, and the workload's catalog if it reads one."""
    start = time.perf_counter()
    where.mkdir()
    runner.startup()
    catalog = where / "catalog.jsonl"
    runs = [runner.run(cid, catalog) for cid in workload.setup]
    return time.perf_counter() - start, catalog, runs


def iteration_metrics(runs: list[CommandRun]) -> dict[str, float]:
    walls = [r.wall_s for r in runs]
    out = {
        "wall_s": sum(walls),
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_mib for r in runs),
    }
    for r in runs:
        out[metric_name(r.kind)] = out.get(metric_name(r.kind), 0.0) + r.wall_s
    return out


def run_iteration(runner: Runner, workload: Workload, where: Path, catalog: Path | None):
    where.mkdir()
    catalog = catalog if workload.setup else where / "catalog.jsonl"
    return [runner.run(cid, catalog) for cid in workload.commands]


def measure(runner: Runner, workload: Workload, seconds: float, work: Path):
    """Alternate blocks of set-ups with whole iterations until the iterations add up to
    `seconds`, and end with one more block of set-ups.

    Spreading the set-ups through the run lets their median see the host as the
    iterations see it, not only in the few seconds after the run starts.
    """
    setups, runs, iterations = [], [], []
    measured = 0.0
    while True:
        block_start = time.monotonic()
        for _ in range(workload.setups_per_block):
            took, catalog, setup_runs = set_up(runner, workload, work / f"setup{len(setups)}")
            setups.append(took)
            runs += setup_runs
        if measured >= seconds:
            break
        it_runs = run_iteration(runner, workload, work / f"iter{len(iterations)}", catalog)
        runs += it_runs
        iterations.append(iteration_metrics(it_runs))
        measured += iterations[-1]["wall_s"]
        now = time.monotonic()
        # Whole blocks only; stop early rather than be killed at the deadline.
        if now + (now - block_start) > runner.deadline - 5:
            break
    return setups, iterations, runs


def medians(iterations: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(it[k] for it in iterations) for k in iterations[0]}


# -- traced run -------------------------------------------------------------


def traced_pass(runner: Runner, cids: tuple[str, ...], catalog: Path, where: Path):
    where.mkdir()
    runs, reports = [], []
    for cid in cids:
        trace_out = where / f"{cid}.trace.json"
        run = runner.run(cid, catalog, trace_out)
        runs.append(run)
        if trace_out.exists():
            reports.append((cid, json.loads(trace_out.read_text())))
    return runs, reports


LAYERS = ("cli", "shapes", "kernel", "perms", "series", "algebraic", "solver", "oracle",
          "invariants")
CATALOG_SOURCES = ("shapes.load_catalog", "shapes.enumerate_kernel_shapes", "shapes.save_catalog")


def layer_metrics(reports: list[tuple[str, dict]], workload: Workload) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced pass, plus the exact counters that must repeat."""
    calls, inc, self_s = Counter(), Counter(), Counter()
    catalogs, tables = [], []
    swept = graph_builds = classes = restricted_classes = 0
    obtain = 0.0
    for cid, rep in reports:
        calls.update(rep["calls"])
        inc.update(rep["inclusive_s"])
        self_s.update(rep["self_s"])
        obs = rep["observed"]
        catalogs += obs["catalogs"]
        tables += obs["joint_tables"]
        swept += obs["swept_perms"]
        graph_builds += obs["sweep_graph_builds"]
        classes = max(classes, obs["classes"])
        restricted_classes = max(restricted_classes, obs["restricted_classes"])
        if cid in workload.commands:  # set-up builds the catalog; commands obtain it
            obtain += sum(rep["root_children_s"].get(name, 0.0) for name in CATALOG_SOURCES)
    largest = max(catalogs, key=lambda c: c["records"], default={"records": 0, "census": []})
    n9 = [t[2] for t in tables if t[0] == 9]
    table_time = sum(t[2] for t in tables)
    table_perms = sum(t[1] for t in tables)
    m = {
        "shapes.search_s": inc["shapes.enumerate_kernel_shapes"],
        "shapes.shapes_found": largest["records"],
        "shapes.unpruned_s": inc["shapes.iter_kernel_permutations"],
        "shapes.save_catalog_s": inc["shapes.save_catalog"],
        "shapes.load_catalog_s": inc["shapes.load_catalog"],
        "kernel.shape_record_s": inc["kernel.shape_record"],
        "kernel.shape_record_calls": calls["kernel.shape_record"],
        "kernel.graph_builds_per_perm": graph_builds / swept if swept else 0.0,
        "kernel.decompose_calls": calls["kernel.decompose"],
        "series.mul_calls": calls["series.PowerSeries.__mul__"],
        "series.mul_s": inc["series.PowerSeries.__mul__"],
        "series.div_calls": calls["series.PowerSeries.__truediv__"],
        "algebraic.mul_calls": calls["algebraic.AlgebraicFunction.__mul__"],
        "algebraic.inverse_calls": calls["algebraic.AlgebraicFunction.inverse"],
        "algebraic.extract_pq_s": inc["algebraic.extract_pq"],
        "solver.series_levels_s": inc["solver.Solver.occurrence_series"],
        "solver.af_levels_s": inc["solver.Solver.occurrence_closed_form"],
        "solver.restricted_s": inc["solver.Solver.restricted_series"],
        "solver.classes": classes,
        "solver.restricted_classes": restricted_classes,
        "oracle.joint_table_s.n9": statistics.mean(n9) if n9 else 0.0,
        "oracle.perms_swept": table_perms,
        "oracle.perms_per_s": table_perms / table_time if table_time else 0.0,
        "invariants.structure_sweep_s": inc["invariants.structure_sweep"],
        "invariants.roundtrip_backward_s": inc["invariants.roundtrip_backward"],
        "cli.obtain_catalog_s": obtain,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    exact = {
        "shapes.shapes_found": m["shapes.shapes_found"],
        "shapes.census": largest["census"],
        "solver.classes": classes,
        "solver.restricted_classes": restricted_classes,
        "series.mul_calls": m["series.mul_calls"],
        "kernel.graph_builds_per_perm": m["kernel.graph_builds_per_perm"],
    }
    return m, exact


def counter_mismatches(first: dict, second: dict) -> list[str]:
    """Exact counters that differ between two traced passes, or a wrong census."""
    problems = [f"{k}: {first[k]!r} != {second.get(k)!r}" for k in first if first[k] != second.get(k)]
    census = tuple(first["shapes.census"])
    if census != KNOWN_CENSUS[: len(census)] or not census:
        problems.append(f"shape census {census} is not a prefix of {KNOWN_CENSUS}")
    return problems


def trace(runner: Runner, workload: Workload, seed: int, work: Path):
    startup = statistics.median(runner.startup() for _ in range(STARTUP_SAMPLES))
    # The set-up is traced once and both passes share it, so a traced run of
    # warm-solve makes one cold search, not two.
    catalog = work / "catalog.jsonl"
    setup_runs, setup_reports = traced_pass(runner, workload.setup, catalog, work / "setup")
    runs1, reports1 = traced_pass(runner, workload.commands, catalog, work / "pass1")
    untraced = run_iteration(runner, workload, work / "untraced", catalog)
    runs2, reports2 = traced_pass(runner, workload.commands, catalog, work / "pass2")
    m1, exact1 = layer_metrics(setup_reports + reports1, workload)
    m2, exact2 = layer_metrics(setup_reports + reports2, workload)
    spans = {part: [{"command": cid, "argv": rep["argv"], "span_fields": rep["span_fields"],
                     "spans": rep["spans"]} for cid, rep in reports]
             for part, reports in (("setup", setup_reports), ("pass1", reports1),
                                   ("pass2", reports2))}
    spans_file = WORK / "traces" / f"{workload.name}-seed{seed}.json"
    spans_file.parent.mkdir(exist_ok=True)
    spans_file.write_text(json.dumps(spans))
    problems = counter_mismatches(exact1, exact2)

    probe_out = work / "probes.json"
    probe_argv = [sys.executable, str(BENCH_DIR / "probes.py"), "--seed", str(seed),
                  "--references", str(runner.references), "--out", str(probe_out)]
    if catalog.exists():  # warm-solve's budget-6 catalog
        probe_argv += ["--catalog", str(catalog)]
    code, _, _ = runner.spawn(probe_argv, work / "probes.out")
    if code != 0:
        problems.append(f"probes failed: {(work / 'probes.err').read_text()[-2000:]}")
        probes = {}
    else:
        probes = json.loads(probe_out.read_text())

    # Times and rates are averaged over the passes; counts are taken from the first.
    metrics = {k: (m1[k] + m2[k]) / 2 if k.endswith("_s") else m1[k] for k in m1}
    metrics.update(probes)
    metrics["cli.startup_s"] = startup
    untraced_m = iteration_metrics(untraced)
    for kind in COMMAND_KINDS:
        metrics[f"cmd.{metric_name(kind)}"] = untraced_m.get(metric_name(kind), 0.0)
    traced_walls = [sum(r.wall_s for r in runs) for runs in (runs1, runs2)]
    metrics["trace.overhead_s"] = statistics.mean(traced_walls) - untraced_m["wall_s"]
    extra = {"exact_counters": exact1, "spans_file": str(spans_file.relative_to(BENCH_DIR.parent))}
    return metrics, setup_runs + runs1 + untraced + runs2, problems, extra


# -- entry point --------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="occ132 benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="directory of reference outputs (default: perfbench/references)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-s{args.seed}-", dir=WORK))
    try:
        runner = Runner(Path.cwd(), args.references, work, started + DEADLINE_S)
        missing = [cid for cid in COMMANDS if not (args.references / f"{cid}.out").is_file()]
        if missing:
            raise BenchError(f"missing reference outputs in {args.references}: {missing}")
        probe_before = host_probe()
        if args.trace:
            metrics, runs, problems, extra = trace(runner, workload, args.seed, work)
        else:
            setups, iterations, runs = measure(runner, workload, args.seconds, work)
            metrics = medians(iterations)
            metrics["setup_s"] = statistics.median(setups)
            problems = []
            per_command = {metric_name(c): metrics[metric_name(c)] for c in COMMAND_KINDS
                           if metric_name(c) in metrics}
            extra = {"iterations": len(iterations), "setup_samples": len(setups),
                     "per_command_median_s": per_command}
        probe_after = host_probe()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in runs)
    problems += [f"metric {name} was not measured" for name in units if name not in metrics]
    for p in problems:
        print(f"# FAIL {p}", file=sys.stderr)
    correct = failed == 0 and not problems
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "commands": len(runs),
        "fail_frac": failed / len(runs),
        **extra,
        "run_s": time.monotonic() - started,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
