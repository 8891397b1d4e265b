"""Untraced timings of single public functions, for the traced benchmark run.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/probes.py --seed 1 --references perfbench/references \
        --out probes.json [--catalog budget6-catalog.jsonl]

These are the per-layer numbers no workload command isolates:

- ``shapes.search_s.b5``: ``enumerate_kernel_shapes(5, threads=2)``;
- ``solver.series_level_s.r6``: level 6 alone at order 64, levels 0-5
  already solved (needs the budget-6 catalog, else reported as 0);
- ``perms.count_132_per_s``: ``count_132`` calls per second over a
  sample of permutations of sizes 8-12 drawn from ``--seed``.

Every result is checked: the budget-5 census, the level-6 series
against the stored ``gf6_order64`` reference, and a slice of the
``count_132`` sample against a cubic scan written here.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

from run import KNOWN_CENSUS, THREADS

SAMPLE_SIZE = 6000
SAMPLE_REPEATS = 5
CHECKED = 300


def count_132_cubic(values) -> int:
    return sum(1 for a, b, c in combinations(values, 3) if a < c < b)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--references", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--catalog", type=Path, help="a budget-6 catalog file")
    args = parser.parse_args(argv)

    from occ132 import Permutation, Solver, count_132, enumerate_kernel_shapes, load_catalog

    out = {}
    start = time.perf_counter()
    catalog5 = enumerate_kernel_shapes(5, threads=int(THREADS))
    out["shapes.search_s.b5"] = time.perf_counter() - start
    by_capacity = Counter(rec.capacity for rec in catalog5.records)
    census = tuple(by_capacity[c] for c in range(6))
    if census != KNOWN_CENSUS[:6]:
        raise SystemExit(f"budget-5 census {census} != {KNOWN_CENSUS[:6]}")

    out["solver.series_level_s.r6"] = 0.0
    if args.catalog is not None:
        solver = Solver(load_catalog(args.catalog), 64)
        solver.occurrence_series(5)
        start = time.perf_counter()
        level6 = solver.occurrence_series(6)
        out["solver.series_level_s.r6"] = time.perf_counter() - start
        want = json.loads((args.references / "gf6_order64.out").read_text())
        if level6.integer_coeffs() != want:
            raise SystemExit("level-6 series differs from the gf6_order64 reference")

    rng = random.Random(args.seed)
    sample = []
    for _ in range(SAMPLE_SIZE):
        n = rng.randint(8, 12)
        sample.append(Permutation(tuple(rng.sample(range(1, n + 1), n))))
    rates = []
    for _ in range(SAMPLE_REPEATS):
        start = time.perf_counter()
        counts = [count_132(pi) for pi in sample]
        rates.append(len(sample) / (time.perf_counter() - start))
    out["perms.count_132_per_s"] = statistics.median(rates)
    for pi, got in zip(sample[:CHECKED], counts):
        if got != count_132_cubic(pi.values):
            raise SystemExit(f"count_132 wrong on {pi.values}: {got}")

    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
