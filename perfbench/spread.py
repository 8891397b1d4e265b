"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 perfbench/spread.py --seeds 10 [--workloads warm-solve] [--sets 2]

Workloads alternate (seed 1 of every workload, then seed 2, ...), so a
drift of the shared host lands on all of them alike.  For each workload
and end-to-end metric this prints the median of the runs and the
spread (q3 - q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``, beside the metric's bound.  With
``--sets 2`` the whole sweep is repeated with fresh seeds and each
second-set median is compared with the first.  The host-speed probe of
every run is printed too; it is never used to scale a metric.  All
results are written to ``perfbench/.work/spread-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import BENCH_DIR, WORK, WORKLOADS, load_spec


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return {"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "host_probe_s": detail["host_probe_s"], "iterations": detail["iterations"]}


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    runs = {s: {w: [] for w in workloads} for s in range(args.sets)}
    started = time.time()
    for s in range(args.sets):
        for i in range(args.seeds):
            seed = args.first_seed + s * args.seeds + i
            for w in workloads:
                r = run_once(w, seed, spec["run_seconds"])
                runs[s][w].append(r)
                probe = r["host_probe_s"]
                print(f"set {s + 1} {w:>12} seed {seed:>3}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items())
                      + f"  probe={probe['before']:.4f}/{probe['after']:.4f}"
                      + f"  [{time.time() - started:.0f} s]", flush=True)
    summary = {}
    worst = {}
    for w in workloads:
        for name, bound in bounds.items():
            meds = []
            for s in range(args.sets):
                med, sp = spread([r["metrics"][name] for r in runs[s][w]])
                meds.append(med)
                summary[f"set{s + 1}/{w}/{name}"] = {"median": med, "spread": sp, "bound": bound}
                flag = "" if sp < bound / 3 else "  <-- spread >= bound/3"
                print(f"set {s + 1} {w:>12} {name:>12}: median {med:.5g}  spread {sp:.3f}"
                      f"  (bound {bound}){flag}")
                worst[name] = max(worst.get(name, 0.0), sp)
            if args.sets == 2:
                shift = meds[1] / meds[0] - 1
                flag = "" if shift <= bound else "  <-- second median worse than the bound"
                print(f"        {w:>12} {name:>12}: second/first median - 1 = {shift:+.3f}{flag}")
                summary[f"shift/{w}/{name}"] = shift
    out = WORK / f"spread-{int(started)}.json"
    WORK.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    print(f"largest spread per metric: {json.dumps(worst)}\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
