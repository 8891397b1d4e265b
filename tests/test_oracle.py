import inspect
import math
from collections import Counter
from itertools import permutations

import pytest

from occ132 import (
    Permutation,
    Solver,
    joint_tables,
    occurrence_counts,
    oracle,
)
from occ132.oracle import OracleError
from occ132.perms import count_132_values, lis_length

from helpers import avoids_monotone


def per_permutation_joint_table(n):
    """Oracle for the prefix-tree sweep: every permutation of S_n counted
    on its own, with the quadratic counter and patience sorting."""
    table = Counter()
    for values in permutations(range(1, n + 1)):
        table[count_132_values(values), lis_length(values)] += 1
    return dict(sorted(table.items()))


def cut(table, budget):
    """The rows of a joint table with at most `budget` occurrences."""
    return {key: c for key, c in table.items() if budget is None or key[0] <= budget}


def test_pool_has_no_more_workers_than_jobs(serial_pool):
    # S_1..S_10 make 1 + 2 + ... + 10 = 55 first-entry jobs, and any
    # sweep up to n = 10 is pooled
    pooled = joint_tables(range(11), threads=500, max_occ=0)
    assert serial_pool == [55]
    assert pooled == joint_tables(range(11), max_occ=0)


def test_pool_rule_reads_the_largest_size_and_the_budget(serial_pool):
    # the sweeps of verify --max-n 9 at budgets up to 2 run in one process
    # at any thread count, and one that reaches n = 10 starts a pool, as
    # does verify --occ 6 --max-n 10 with its larger budget
    for budget in range(3):
        joint_tables(range(10), threads=2, max_occ=budget)
    assert serial_pool == []
    joint_tables(range(11), threads=2, max_occ=0)
    assert serial_pool == [2]
    assert oracle.POOL_FROM_BUDGET[10] <= 6


def test_count_exact_examples(full_tables):
    assert occurrence_counts(full_tables[6]).get(0, 0) == 132
    assert occurrence_counts(full_tables[4]).get(1, 0) == 5
    assert occurrence_counts(full_tables[4]).get(2, 0) == 4


def test_distribution_examples(full_tables):
    assert occurrence_counts(full_tables[3]) == {0: 5, 1: 1}
    assert occurrence_counts(full_tables[4]) == {0: 14, 1: 5, 2: 4, 3: 1}
    assert occurrence_counts(full_tables[0]) == {0: 1}


def test_row_sums_are_factorials(full_tables):
    for n in range(9):
        assert sum(occurrence_counts(full_tables[n]).values()) == math.factorial(n)


def test_counts_vanish_beyond_triple_bound(full_tables):
    for n in range(7):
        bound = math.comb(n, 3)
        assert all(r <= bound for r in occurrence_counts(full_tables[n]))


def test_restricted_examples(full_tables):
    for n in range(8):
        assert occurrence_counts(full_tables[n], 2).get(0, 0) == 1
    assert occurrence_counts(full_tables[5], 3).get(0, 0) == 16
    assert occurrence_counts(full_tables[3], 3).get(1, 0) == 1


def test_restricted_sums():
    # over r: all avoiders of 12..k; with huge k: the full distribution
    for n in range(7):
        joint = joint_tables([n])[n]
        for k in range(1, n + 2):
            total = sum(occurrence_counts(joint, k).get(r, 0) for r in range(math.comb(n, 3) + 1))
            avoiders = sum(c for (_, lis), c in joint.items() if lis < k)
            assert total == avoiders
        full = occurrence_counts(joint)
        assert {r: occurrence_counts(joint, n + 1).get(r, 0) for r in full} == full


def test_k_at_most_0_avoids_nothing(catalog2):
    # the oracle, avoids_monotone and the solver agree that no permutation
    # avoids 12...k for k <= 0; k = n + 1 restricts nothing
    solver = Solver(catalog2, 6)
    for n in range(7):
        table = joint_tables([n])[n]
        assert occurrence_counts(table, 0) == {}
        assert occurrence_counts(table, n + 1) == occurrence_counts(table)
        for values in permutations(range(1, n + 1)):
            assert not avoids_monotone(Permutation(values), 0)
    for r in range(3):
        assert solver.restricted_series(r, 0).integer_coeffs() == [0] * 7


def test_guard():
    with pytest.raises(OracleError, match="sweep guard 10"):
        joint_tables([11])
    with pytest.raises(OracleError):
        joint_tables([-1])


def test_thread_count_does_not_change_results(every_sweep_pooled):
    # n = 8 gives 8 first-entry jobs for 2 workers, one job per task
    serial = joint_tables([8], threads=1)
    parallel = joint_tables([8], threads=2)
    assert every_sweep_pooled == [2]
    assert serial == parallel


def test_joint_tables_match_one_n_sweeps(every_sweep_pooled):
    # one batched sweep over several n, serial and through one pool,
    # gives each n the table of its own sweep
    singles = {n: joint_tables([n])[n] for n in range(8)}
    for threads in (1, 2):
        assert joint_tables(range(8), threads=threads) == singles
    assert every_sweep_pooled == [2]
    with pytest.raises(OracleError):
        joint_tables([3, 11])


def test_sweep_matches_per_permutation_count():
    for n in range(9):
        assert joint_tables([n])[n] == per_permutation_joint_table(n), n


def test_spot_check_visits_every_stride_th_permutation(monkeypatch):
    seen = []
    monkeypatch.setattr(oracle, "_spot_check", lambda values, occ, lis: seen.append(values))
    for n in range(1, 8):
        seen.clear()
        joint_tables([n])
        assert seen == list(permutations(range(1, n + 1)))[:: oracle.SPOT_CHECK_STRIDE], n


def test_spot_checks_reach_every_order_of_the_closed_leaf(monkeypatch):
    # the last three entries are closed in blocks of six; a stride coprime
    # to 6 spot-checks each of their six relative orders
    seen = []
    monkeypatch.setattr(oracle, "_spot_check", lambda values, occ, lis: seen.append(values))
    joint_tables([7])
    orders = {tuple(sorted(values[-3:]).index(v) for v in values[-3:]) for values in seen}
    assert orders == set(permutations(range(3)))


@pytest.mark.parametrize("threads", [1, 2])
def test_budgeted_tables_are_the_full_tables_cut_at_the_budget(full_tables, every_sweep_pooled, threads):
    budgets = range(math.comb(8, 3) + 2)
    for budget in budgets:
        # each n up to one past its largest budget C(n, 3), in one batch
        ns = [n for n in range(9) if budget <= math.comb(n, 3) + 1]
        got = joint_tables(ns, threads=threads, max_occ=budget)
        assert got == {n: cut(full_tables[n], budget) for n in ns}, budget
    assert len(every_sweep_pooled) == (len(budgets) if threads > 1 else 0)


def test_negative_budget_rejected():
    with pytest.raises(OracleError, match="max_occ"):
        joint_tables([5], max_occ=-1)


def test_budgeted_spot_checks_keep_the_stride(monkeypatch):
    # a budgeted sweep spot-checks its visited permutations at the stride
    # indices of the full sweep, and recounts one permutation of each
    # skipped subtree that holds a stride index
    visited, skipped = [], []
    monkeypatch.setattr(oracle, "_spot_check", lambda values, occ, lis: visited.append(values))
    monkeypatch.setattr(oracle, "_check_skipped", lambda values, budget: skipped.append(values))
    strided = list(permutations(range(1, 8)))[:: oracle.SPOT_CHECK_STRIDE]
    for budget in (0, 2, 5):
        visited.clear()
        skipped.clear()
        joint_tables([7], max_occ=budget)
        assert skipped, budget
        assert sorted(visited + skipped) == sorted(set(visited + skipped))
        assert set(visited + skipped) <= set(strided)
        # every stride permutation within the budget lies in a visited leaf
        within = {v for v in strided if count_132_values(v) <= budget}
        assert within <= set(visited), budget
        assert all(count_132_values(v) > budget for v in skipped), budget


def test_off_by_one_skip_is_caught_by_the_recount():
    # the module compiled again with the skip test ">=" for ">": it skips
    # prefixes whose every completion may still have exactly the budget
    source = inspect.getsource(oracle)
    assert source.count("if bound > budget:") == 1

    def compiled(text):
        namespace = {"__name__": "occ132._oracle_copy", "__package__": "occ132"}
        exec(compile(text, "occ132/_oracle_copy.py", "exec"), namespace)
        return namespace

    for budget in range(4):
        intact = compiled(source)
        assert intact["joint_tables"]([8], max_occ=budget)[8] == cut(joint_tables([8])[8], budget)
        planted = compiled(source.replace("if bound > budget:", "if bound >= budget:"))
        with pytest.raises(planted["OracleError"], match="skipped"):
            planted["joint_tables"]([8], max_occ=budget)


def hook_length_count(shape):
    """f^shape, the number of standard Young tableaux, by the hook-length formula."""
    conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = math.prod(
        row - j + conjugate[j] - i - 1 for i, row in enumerate(shape) for j in range(row)
    )
    return math.factorial(sum(shape)) // hooks


def partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def test_lis_marginal_matches_robinson_schensted_at_n9(full_tables):
    # independent of the walk: by Robinson-Schensted, the permutations of
    # S_n with LIS length k number the sum of (f^shape)^2 over the shapes
    # of n with first row k
    want = Counter()
    for shape in partitions(9):
        want[shape[0]] += hook_length_count(shape) ** 2
    got = Counter()
    for (_, lis), c in full_tables[9].items():
        got[lis] += c
    assert got == want
    assert occurrence_counts(full_tables[9]).get(0, 0) == 4862
    assert occurrence_counts(full_tables[9]).get(1, 0) == math.comb(15, 6) == 5005


def test_spot_check_catches_a_wrong_count(monkeypatch):
    listing = oracle.occurrences_132
    monkeypatch.setattr(oracle, "occurrences_132", lambda pi: [*listing(pi), None])
    with pytest.raises(OracleError, match="listing"):
        joint_tables([5])


def test_spot_check_catches_a_wrong_lis(monkeypatch):
    monkeypatch.setattr(oracle, "lis_length", lambda values: lis_length(values) + 1)
    with pytest.raises(OracleError, match="LIS"):
        joint_tables([5])
