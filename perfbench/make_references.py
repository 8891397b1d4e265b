"""Create ``perfbench/references``: the expected stdout of every benchmark command.

Run from the repository root::

    python3 perfbench/make_references.py

Each output comes from the CLI under test, so before it is stored it is
checked by methods that share no code with the solver:

- the series of ``gf --occ 6`` (orders 32 and 64) equal the Taylor
  expansion of the printed closed form (two_P + two_Q (1-4x)^e) / 2,
  expanded here with exact binomial coefficients;
- series and verify-table entries for n <= 9 equal a brute-force count
  over S_n written here (occurrences of 132 jointly with the longest
  increasing subsequence);
- ``restricted --occ 0 --k 3`` equals (1-x)/(1-2x);
- ``check-invariants`` reports only PASS lines;
- the catalog ``gf6`` writes has the known census by capacity and
  equals the one ``shapes --max-occ 6`` writes.

A check that fails stops the script and stores nothing.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
import time
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from run import COMMANDS, KNOWN_CENSUS, REFERENCES, THREADS, WORK, Runner

ORACLE_MAX_N = 9


def joint_counts(max_n: int) -> dict[int, Counter]:
    """n -> Counter of (132 occurrences, longest increasing subsequence) over S_n."""
    out = {}
    for n in range(max_n + 1):
        table: Counter = Counter()
        for values in permutations(range(1, n + 1)):
            occ = 0
            for k in range(2, n):
                vk = values[k]
                low = 0  # entries before j below v_k
                for j in range(k):
                    vj = values[j]
                    if vj > vk:
                        occ += low
                    elif vj < vk:
                        low += 1
            tails: list[int] = []
            for v in values:
                i = bisect_left(tails, v)
                tails[i:i + 1] = [v]
            table[(occ, len(tails))] += 1
        out[n] = table
    return out


def expand_closed_form(form: dict, order: int) -> list[int]:
    """Coefficients of (two_P + two_Q * (1-4x)^(num/den)) / 2 up to x^order."""
    e = Fraction(form["exponent_num"], form["exponent_den"])
    power = [Fraction(1)]
    for n in range(1, order + 1):
        power.append(power[-1] * (e - n + 1) / n * -4)
    coeffs = []
    for n in range(order + 1):
        p = form["two_P"][n] if n < len(form["two_P"]) else 0
        q = sum(form["two_Q"][i] * power[n - i] for i in range(min(n, len(form["two_Q"]) - 1) + 1))
        c = (p + q) / 2
        if c.denominator != 1:
            raise SystemExit(f"closed form has a non-integer coefficient at x^{n}: {c}")
        coeffs.append(int(c))
    return coeffs


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"reference check failed: {what}")
    print(f"ok  {what}")


def verify_rows(text: str) -> list[tuple[int, int, int]]:
    rows = []
    for line in text.splitlines()[1:]:
        n, solver, oracle = line.split()[:3]
        rows.append((int(n), int(solver), int(oracle)))
    return rows


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="references-", dir=WORK))
    try:
        runner = Runner(Path.cwd(), REFERENCES, work, time.monotonic() + 3600)
        catalog = work / "catalog.jsonl"
        outputs = {}
        for cid, args in COMMANDS.items():  # gf6 comes first and writes the catalog
            args = [a.replace("{catalog}", str(catalog)) for a in args]
            stdout, code, wall, _ = runner.execute(cid, args)
            check(code == 0, f"{cid} exits 0 ({wall:.2f} s)")
            outputs[cid] = stdout.read_bytes()
        shapes_catalog = work / "shapes-catalog.jsonl"
        _, code, _, _ = runner.execute(
            "shapes6", ["shapes", "--max-occ", "6", "--threads", THREADS, "--out", str(shapes_catalog)])
        check(code == 0, "shapes --max-occ 6 exits 0")
        stdout, code, _, _ = runner.execute(
            "restricted0_k3", ["restricted", "--occ", "0", "--k", "3", "--threads", THREADS])
        check(code == 0, "restricted --occ 0 --k 3 exits 0")
        restricted0 = json.loads(stdout.read_text())

        records = [json.loads(line) for line in catalog.read_text().splitlines()[1:]]
        census = Counter(rec["capacity"] for rec in records)
        check(tuple(census[c] for c in range(7)) == KNOWN_CENSUS,
              f"catalog census by capacity is {KNOWN_CENSUS}")
        check(shapes_catalog.read_bytes() == catalog.read_bytes(),
              "gf6 wrote the same catalog as shapes --max-occ 6")

        form = json.loads(outputs["closed_form6"])
        gf32 = json.loads(outputs["gf6"])
        gf64 = json.loads(outputs["gf6_order64"])
        check(gf32 == expand_closed_form(form, 32), "gf6 = expansion of closed_form6 to x^32")
        check(gf64 == expand_closed_form(form, 64), "gf6_order64 = expansion of closed_form6 to x^64")
        check(restricted0 == [1] + [2 ** (n - 1) for n in range(1, 33)],
              "restricted --occ 0 --k 3 = (1-x)/(1-2x)")

        joint = joint_counts(ORACLE_MAX_N)

        def exact(n, r, k=None):
            return sum(c for (occ, lis), c in joint[n].items() if occ == r and (k is None or lis < k))

        restricted = json.loads(outputs["restricted6_k6"])
        for n in range(ORACLE_MAX_N + 1):
            check(gf32[n] == exact(n, 6), f"gf6[{n}] = brute force")
            check(restricted[n] == exact(n, 6, 6), f"restricted6_k6[{n}] = brute force")
        for cid, r, k in (("verify2", 2, None), ("verify1_k4", 1, 4)):
            rows = verify_rows(outputs[cid].decode())
            check([n for n, _, _ in rows] == list(range(ORACLE_MAX_N + 1)), f"{cid} rows n = 0..9")
            check(all(s == o == exact(n, r, k) for n, s, o in rows),
                  f"{cid} solver and oracle columns = brute force")
        lines = outputs["invariants7"].decode().splitlines()
        check(len(lines) == 9 and all(line.startswith("PASS  ") for line in lines),
              "invariants7 reports nine PASS lines")

        REFERENCES.mkdir(exist_ok=True)
        for cid, data in outputs.items():
            (REFERENCES / f"{cid}.out").write_bytes(data)
        digest = hashlib.sha256(catalog.read_bytes()).hexdigest()
        (REFERENCES / "catalog6.sha256").write_text(f"{digest}  catalog6.jsonl\n")
        print(f"wrote {len(outputs)} references to {REFERENCES}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
