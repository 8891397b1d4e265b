"""Brute-force ground truth over whole symmetric groups.

One sweep of S_n records, for every permutation, its number of 132
occurrences together with the length of its longest increasing
subsequence.  Everything else (plain distributions, restricted counts)
is a marginal of that joint table, so each n is enumerated at most once
per process.

A sweep is a depth-first walk of the lexicographic prefix tree, so
neighbouring permutations share their prefix and its counts.  Each
prefix carries its occurrence count, its patience-sorting tails (whose
length is the LIS length) and, for each unplaced value u, the number
D[u] of placed pairs i < j with pi(i) < u < pi(j); the number of placed
values below u is read off the sorted list of unplaced values.  (This
D vector is the state of Noonan and Zeilberger's functional-equation
method.)  Appending w adds D[w] occurrences (w closes each such pair as
a 2), adds to D[u] the placed values below u for every unplaced u < w,
and moves w into the tails, so a node costs O(n).

The last three unplaced values a < b < c are closed in one step.  With
S = occ + D[a] + D[b] + D[c], pa = a - 1 and pb = b - 2 placed values
below a and b, the six orders in lexicographic order add

    abc: S            acb: S + pb + 1     bac: S + pa
    bca: S + 2 pa     cab: S + pa + pb    cba: S + 2 pa + pb

occurrences.  The longest increasing run of the prefix that ends below
x has length ix = bisect_left(tails, x), for x = a, b, c.  The longest
run ending at an appended x is one more than the largest of ix and the
runs ending at the appended entries placed before x and below it; the
LIS is the largest of these runs and len(tails).  Permutations of size
up to 3 never have three unplaced values below the root, so they end at
the empty leaf, one permutation at a time.

A sweep tallies into one flat list of (C(n,3) + 1) * (n + 1) counts,
indexed occ * (n + 1) + lis, which the parent sums and turns into the
(occ, lis) table once per n.

Every SPOT_CHECK_STRIDE-th permutation by lexicographic index is
recounted independently, with the cubic listing scan and with
``lis_length``; a disagreement raises :class:`OracleError`.  The stride
is prime and coprime to 6, so the spot-checks fall on every position of
the six-leaf blocks.

Sweeps are partitioned by the leading entry, which makes them trivially
data-parallel; partial tallies merge by addition, so results do not
depend on the number of workers.  ``joint_tables`` sweeps several n as
one batch of such jobs, through a single worker pool.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterable

from .perms import Permutation, lis_length, occurrences_132

DEFAULT_GUARD = 10

# Every 97th permutation (by lexicographic index) is re-counted with the
# cubic listing scan and patience sorting as a cross-check on the sweep.
# 97 is coprime to 6, so every order of a closed three-entry leaf is checked.
SPOT_CHECK_STRIDE = 97


class OracleError(RuntimeError):
    """A sweep guard was violated or a spot-check disagreed."""


@dataclass(frozen=True)
class DistributionTable:
    """Occurrence-count distribution over S_n: counts[r] permutations have r."""

    n: int
    counts: dict[int, int]

    def total(self) -> int:
        return sum(self.counts.values())


def _check_guard(n: int, guard: int) -> None:
    if n < 0:
        raise OracleError(f"n must be nonnegative, got {n}")
    if n > guard:
        raise OracleError(f"n={n} exceeds the sweep guard {guard}; raise `guard` to override")


def _spot_check(values: tuple[int, ...], occ: int, lis: int) -> None:
    """Recount one permutation with the cubic listing scan and patience sorting."""
    listed = len(occurrences_132(Permutation(values)))
    if listed != occ:
        raise OracleError(f"sweep count disagrees with listing on {values}: {occ} vs {listed}")
    longest = lis_length(values)
    if longest != lis:
        raise OracleError(f"sweep LIS disagrees with patience sorting on {values}: {lis} vs {longest}")


def _tally_size(n: int) -> int:
    """Length of the flat tally of S_n: occurrences 0..C(n,3), lis 0..n."""
    return (math.comb(n, 3) + 1) * (n + 1)


def _sweep_class(n: int, first: int, start_index: int) -> list[int]:
    """Flat joint tally over the permutations of S_n starting with `first`.

    Entry occ * (n + 1) + lis counts those with occ occurrences and LIS
    length lis.  Walks the lexicographic prefix tree depth first;
    `start_index` is the lexicographic index of the first permutation,
    which places the spot-checks.
    """
    width = n + 1
    tally = [0] * _tally_size(n)
    prefix = [first]
    index = start_index
    next_check = -(-start_index // SPOT_CHECK_STRIDE) * SPOT_CHECK_STRIDE

    def walk(rest: list[int], between: list[int], occ: int, tails: list[int]) -> None:
        # rest: unplaced values, ascending; between[t]: placed pairs i < j
        # with pi(i) < rest[t] < pi(j).  rest[t] - 1 - t placed values lie
        # below rest[t].
        nonlocal index, next_check
        if len(rest) == 3:
            a, b, c = rest
            row = (occ + between[0] + between[1] + between[2]) * width
            # the a - 1 and b - 2 placed values below a and b, as row offsets
            pa, pb = (a - 1) * width, (b - 2) * width
            ia, ib = bisect_left(tails, a), bisect_left(tails, b)
            lis_c = max(len(tails), bisect_left(tails, c) + 1)  # cba: no ascent
            lis_a = max(lis_c, ia + 2)  # acb, cab: a before one larger entry
            lis_b = max(lis_c, ib + 2)  # bac, bca: b before c
            keys = (
                row + max(lis_b, ia + 3),
                row + pb + width + lis_a,
                row + pa + lis_b,
                row + 2 * pa + lis_b,
                row + pa + pb + lis_a,
                row + 2 * pa + pb + lis_c,
            )
            for key in keys:
                tally[key] += 1
            while next_check < index + 6:
                k = next_check - index
                order = ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a))[k]
                _spot_check((*prefix, *order), *divmod(keys[k], width))
                next_check += SPOT_CHECK_STRIDE
            index += 6
            return
        if not rest:
            tally[occ * width + len(tails)] += 1
            if index == next_check:
                _spot_check(tuple(prefix), occ, len(tails))
                next_check += SPOT_CHECK_STRIDE
            index += 1
            return
        for t, w in enumerate(rest):
            child_tails = tails.copy()
            i = bisect_left(tails, w)
            if i == len(tails):
                child_tails.append(w)
            else:
                child_tails[i] = w
            prefix.append(w)
            walk(
                rest[:t] + rest[t + 1 :],
                [d + v - 1 - j for j, (d, v) in enumerate(zip(between, rest[:t]))]
                + between[t + 1 :],
                occ + between[t],
                child_tails,
            )
            prefix.pop()

    walk([v for v in range(1, n + 1) if v != first], [0] * (n - 1), 0, [first])
    return tally


def _sweep_class_args(args) -> list[int]:
    return _sweep_class(*args)

_joint_cache: dict[int, dict[tuple[int, int], int]] = {}


def joint_tables(
    ns: Iterable[int], *, guard: int = DEFAULT_GUARD, threads: int = 1
) -> dict[int, dict[tuple[int, int], int]]:
    """Map each n in `ns` to its joint table, (occurrences, lis length) ->
    number of permutations in S_n.

    Every uncached n is swept in one pass: its first-entry classes are
    jobs, largest n first so the longest jobs start first, and with
    threads > 1 they all go through one worker pool.
    """
    ns = sorted(set(ns), reverse=True)
    for n in ns:
        _check_guard(n, guard)
    todo = [n for n in ns if n not in _joint_cache]
    jobs = [
        (n, first, (first - 1) * math.factorial(n - 1))
        for n in todo
        for first in range(1, n + 1)
    ]
    if threads > 1 and jobs:
        with Pool(threads) as pool:
            parts = pool.map(_sweep_class_args, jobs, chunksize=1)
    else:
        parts = [_sweep_class(*job) for job in jobs]
    merged = {n: [0] * _tally_size(n) for n in todo}
    for (n, _, _), part in zip(jobs, parts):
        merged[n] = [x + y for x, y in zip(merged[n], part)]
    for n, tally in merged.items():
        _joint_cache[n] = (
            {divmod(key, n + 1): count for key, count in enumerate(tally) if count}
            if n else {(0, 0): 1}
        )
    return {n: _joint_cache[n] for n in ns}


def joint_table(n: int, *, guard: int = DEFAULT_GUARD, threads: int = 1) -> dict[tuple[int, int], int]:
    """Map (occurrences, lis length) -> number of permutations in S_n."""
    return joint_tables([n], guard=guard, threads=threads)[n]


def distribution(n: int, *, guard: int = DEFAULT_GUARD, threads: int = 1) -> DistributionTable:
    """Full occurrence-count distribution of S_n.

    distribution(4) is {0: 14, 1: 5, 2: 4, 3: 1}; the row always sums
    to n!.
    """
    joint = joint_table(n, guard=guard, threads=threads)
    counts: Counter = Counter()
    for (r, _), c in joint.items():
        counts[r] += c
    return DistributionTable(n, dict(sorted(counts.items())))


def count_exact(n: int, r: int, *, guard: int = DEFAULT_GUARD, threads: int = 1) -> int:
    """Number of permutations in S_n with exactly r occurrences of 132."""
    return distribution(n, guard=guard, threads=threads).counts.get(r, 0)


def count_exact_restricted(
    n: int, r: int, k: int, *, guard: int = DEFAULT_GUARD, threads: int = 1
) -> int:
    """Permutations in S_n with exactly r occurrences of 132 avoiding 12...k."""
    if k < 1:
        raise OracleError(f"k must be >= 1, got {k}")
    joint = joint_table(n, guard=guard, threads=threads)
    return sum(c for (occ, lis), c in joint.items() if occ == r and lis < k)
