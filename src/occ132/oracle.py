"""Brute-force ground truth over whole symmetric groups.

Each call ``joint_tables(ns)`` sweeps every S_n it asks for and
returns its joint table: for every pair (occurrences of 132, length of
the longest increasing subsequence), the number of permutations with
that pair.  Nothing is kept between calls.  Every count the oracle
answers is a marginal of one table, read by
``occurrence_counts(table, k)``: permutations by number of occurrences,
all of them or only those avoiding 12...k (LIS length < k).  With
k <= 0 no permutation qualifies, not even the empty one.
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

``joint_tables(ns, max_occ=b)`` sweeps with the occurrence budget b and
returns only the rows with at most b occurrences, each of them
complete; without a budget it is C(n, 3), which no permutation of S_n
exceeds.  The walk skips every prefix whose occurrences plus the sum of
D[u] over its unplaced u exceed the budget, because that sum is a lower
bound on the occurrences of every completion: wherever u is appended
later, each placed pair i < j with pi(i) < u < pi(j) forms an occurrence
with u as its 2; these occurrences are distinct for distinct u, and
D[u] never shrinks as values are appended.  The child that appends the
t-th smallest unplaced value has the bound of its parent plus the
placed values below each of the t smaller unplaced values (their D
gains them, and the appended D[w] moves into occ), so the bound grows
with t: once one child is skipped, so are all later ones.

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
the empty leaf, one permutation at a time.  A closed block may tally
orders above the budget; those rows are incomplete and are dropped.

A sweep tallies into one flat list of (C(n,3) + 1) * (n + 1) counts,
indexed occ * (n + 1) + lis, which the parent sums and turns into the
(occ, lis) table once per n.

Every SPOT_CHECK_STRIDE-th permutation by lexicographic index is
recounted independently, with the cubic listing scan and with
``lis_length``; a disagreement raises :class:`OracleError`.  The stride
is prime and coprime to 6, so the spot-checks fall on every position of
the six-leaf blocks.  The lexicographic index runs over skipped
subtrees too, so a budgeted sweep spot-checks each visited permutation
at the index an unbudgeted one would.  A skipped subtree that holds one
or more stride indices has the permutation at its first such index
recounted with the quadratic ``count_132_values``, which shares nothing
with the walk's D vector and stops as soon as its running total exceeds
the budget, and :class:`OracleError` is raised unless it does: the skip
is checked, not trusted.

Sweeps are partitioned by the leading entry, which makes them trivially
data-parallel; partial tallies merge by addition, so results do not
depend on the number of workers.  ``joint_tables`` sweeps several n as
one batch of such jobs.  With more than one thread the batch runs in a
single worker pool (``jobs.run_jobs``) when it is large enough to repay
the pool's start, by one rule that reads only the largest swept size and
the budget (``POOL_FROM_BUDGET``); every smaller batch runs in the
calling process.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable

from .jobs import run_jobs
from .perms import Permutation, count_132_values, lis_length, occurrences_132

SWEEP_GUARD = 10

# With threads > 1, a sweep whose largest size n is a key here runs in a
# worker pool from the budget given for n on (unbudgeted sweeps included);
# every other sweep runs in one process, where it is faster.  Serial against
# pooled (two workers) joint_tables, wall ms, medians of 5 fresh processes on
# a shared 2-vCPU Xeon, Python 3.11.7: S_0..S_8 unbudgeted 32/48; S_0..S_9 at
# budget 2, 4, 5, 6 and unbudgeted 54/57, 90/89, 102/83, 115/93, 294/193;
# S_0..S_10 at budget 0, 2 and 6 106/85, 261/181, 686/399.  A pool always
# costs more CPU time: 94 against 54 ms at S_9, budget 2.
POOL_FROM_BUDGET = {9: 5, 10: 0}

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


def _check_skipped(values: tuple[int, ...], budget: int) -> None:
    """Recount one permutation of a skipped subtree with the quadratic
    count, which stops once it exceeds the budget: it must."""
    counted = count_132_values(values, limit=budget)
    if counted <= budget:
        raise OracleError(
            f"sweep skipped {values}, which has {counted} occurrences, within the budget {budget}")


def _nth_permutation(values: list[int], k: int) -> tuple[int, ...]:
    """The permutation of the ascending `values` at lexicographic index `k`."""
    values = values.copy()
    out = []
    for i in range(len(values) - 1, -1, -1):
        q, k = divmod(k, math.factorial(i))
        out.append(values.pop(q))
    return tuple(out)


def _tally_size(n: int) -> int:
    """Length of the flat tally of S_n: occurrences 0..C(n,3), lis 0..n."""
    return (math.comb(n, 3) + 1) * (n + 1)


def _sweep_class(n: int, first: int, start_index: int, budget: int) -> list[int]:
    """Flat joint tally over the permutations of S_n starting with `first`.

    Entry occ * (n + 1) + lis counts those with occ occurrences and LIS
    length lis; entries with occ <= `budget` are complete.  Walks the
    lexicographic prefix tree depth first, skipping the prefixes whose
    completions all exceed the budget; `start_index` is the lexicographic
    index of the first permutation, which places the spot-checks.
    """
    width = n + 1
    tally = [0] * _tally_size(n)
    prefix = [first]
    index = start_index
    next_check = -(-start_index // SPOT_CHECK_STRIDE) * SPOT_CHECK_STRIDE

    def walk(rest: list[int], between: list[int], occ: int, tails: list[int], bound: int) -> None:
        # rest: unplaced values, ascending; between[t]: placed pairs i < j
        # with pi(i) < rest[t] < pi(j).  rest[t] - 1 - t placed values lie
        # below rest[t].  bound = occ + sum(between), at most the budget;
        # in the loop, the bound of child t.
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
            if bound > budget:
                # skip this child and the later ones, recounting each
                # subtree's first stride index, if it has one
                size = math.factorial(len(rest) - 1)
                for u, skipped in enumerate(rest[t:], t):
                    end = index + size
                    if next_check < end:
                        tail = _nth_permutation(rest[:u] + rest[u + 1 :], next_check - index)
                        _check_skipped((*prefix, skipped, *tail), budget)
                        next_check += -(-(end - next_check) // SPOT_CHECK_STRIDE) * SPOT_CHECK_STRIDE
                    index = end
                return
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
                bound,
            )
            prefix.pop()
            # the later children add the w - 1 - t placed values below w to D[w]
            bound += w - 1 - t

    walk([v for v in range(1, n + 1) if v != first], [0] * (n - 1), 0, [first], 0)
    return tally


def joint_tables(
    ns: Iterable[int], *, threads: int = 1, max_occ: int | None = None
) -> dict[int, dict[tuple[int, int], int]]:
    """Map each n in `ns` to its joint table, (occurrences, lis length) ->
    number of permutations in S_n; with `max_occ`, only the rows with at
    most that many occurrences.

    Each call sweeps every n in `ns` in one pass: its first-entry classes
    are jobs, largest n first so the longest jobs start first.  With
    threads > 1 and a sweep that ``POOL_FROM_BUDGET`` pools, they all go
    through one worker pool of at most one process per job; otherwise
    they run in this process.
    """
    if max_occ is not None and max_occ < 0:
        raise OracleError(f"max_occ must be nonnegative, got {max_occ}")
    ns = sorted(set(ns), reverse=True)
    for n in ns:
        _check_guard(n)
    budgets = {n: math.comb(n, 3) if max_occ is None else min(max_occ, math.comb(n, 3)) for n in ns}
    jobs = [
        (n, first, (first - 1) * math.factorial(n - 1), budgets[n])
        for n in ns
        for first in range(1, n + 1)
    ]
    top = ns[0] if ns else None
    pooled = top in POOL_FROM_BUDGET and budgets[top] >= POOL_FROM_BUDGET[top]
    parts = run_jobs(_sweep_class, jobs, threads if pooled else 1)
    merged = {n: [0] * _tally_size(n) for n in ns}
    for (n, *_), part in zip(jobs, parts):
        merged[n] = [x + y for x, y in zip(merged[n], part)]
    tables = {}
    for n, tally in merged.items():
        complete = tally[: (budgets[n] + 1) * (n + 1)]
        tables[n] = (
            {divmod(key, n + 1): count for key, count in enumerate(complete) if count}
            if n else {(0, 0): 1}
        )
    return tables


def occurrence_counts(table: dict[tuple[int, int], int], k: int | None = None) -> dict[int, int]:
    """Permutations of one joint table by number of occurrences, sorted by
    that number; with k, only those with LIS length < k (avoiding 12...k).
    A table swept with a budget has the rows with at most that many
    occurrences only, so the counts above the budget are missing, not 0.

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
