"""Brute-force ground truth over whole symmetric groups.

``joint_tables(ns)`` sweeps each S_n once and returns its joint table:
for every pair (occurrences of 132, length of the longest increasing
subsequence), the number of permutations with that pair.  Tables are
cached per process, so each n is enumerated at most once.  Every count
the oracle answers is a marginal of one table, read by
``occurrence_counts(table, k)``: permutations by number of occurrences,
all of them or only those avoiding 12...k (LIS length < k).  With
k <= 0 no permutation qualifies, as for ``avoids_monotone(pi, 0)``.
The sweep guard SWEEP_GUARD = 10 is fixed: n above it (S_11 has about
4e7 permutations) or below 0 raises :class:`OracleError`.

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
from multiprocessing import Pool
from typing import Iterable

from .perms import Permutation, lis_length, occurrences_132

SWEEP_GUARD = 10

# Every 97th permutation (by lexicographic index) is re-counted with the
# cubic listing scan and patience sorting as a cross-check on the sweep.
# 97 is coprime to 6, so every order of a closed three-entry leaf is checked.
SPOT_CHECK_STRIDE = 97


class OracleError(RuntimeError):
    """A sweep guard was violated or a spot-check disagreed."""


def _check_guard(n: int) -> None:
    if n < 0:
        raise OracleError(f"n must be nonnegative, got {n}")
    if n > SWEEP_GUARD:
        raise OracleError(f"n={n} exceeds the sweep guard {SWEEP_GUARD}")


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


def joint_tables(ns: Iterable[int], *, threads: int = 1) -> dict[int, dict[tuple[int, int], int]]:
    """Map each n in `ns` to its joint table, (occurrences, lis length) ->
    number of permutations in S_n.

    Every uncached n is swept in one pass: its first-entry classes are
    jobs, largest n first so the longest jobs start first, and with
    threads > 1 they all go through one worker pool.
    """
    ns = sorted(set(ns), reverse=True)
    for n in ns:
        _check_guard(n)
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


def occurrence_counts(table: dict[tuple[int, int], int], k: int | None = None) -> dict[int, int]:
    """Permutations of one joint table by number of occurrences, sorted by
    that number; with k, only those with LIS length < k (avoiding 12...k).

    >>> occurrence_counts(joint_tables([4])[4])
    {0: 14, 1: 5, 2: 4, 3: 1}
    >>> occurrence_counts(joint_tables([4])[4], 3)
    {0: 8, 1: 4, 2: 1, 3: 1}
    """
    counts: dict[int, int] = {}
    for (occ, lis), c in sorted(table.items()):
        if k is None or lis < k:
            counts[occ] = counts.get(occ, 0) + c
    return counts
