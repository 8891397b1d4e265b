import math
from collections import Counter
from itertools import permutations

import pytest

from occ132 import (
    Solver,
    avoids_monotone,
    joint_tables,
    make_permutation,
    occurrence_counts,
    oracle,
)
from occ132.oracle import OracleError
from occ132.perms import count_132_values, lis_length


def per_permutation_joint_table(n):
    """Oracle for the prefix-tree sweep: every permutation of S_n counted
    on its own, with the quadratic counter and patience sorting."""
    table = Counter()
    for values in permutations(range(1, n + 1)):
        table[count_132_values(values), lis_length(values)] += 1
    return dict(sorted(table.items()))


def counts(n, k=None):
    return occurrence_counts(joint_tables([n])[n], k)


def test_count_exact_examples():
    assert counts(6).get(0, 0) == 132
    assert counts(4).get(1, 0) == 5
    assert counts(4).get(2, 0) == 4


def test_distribution_examples():
    assert counts(3) == {0: 5, 1: 1}
    assert counts(4) == {0: 14, 1: 5, 2: 4, 3: 1}
    assert counts(0) == {0: 1}


def test_row_sums_are_factorials():
    for n in range(9):
        assert sum(counts(n).values()) == math.factorial(n)


def test_counts_vanish_beyond_triple_bound():
    for n in range(7):
        bound = math.comb(n, 3)
        assert all(r <= bound for r in counts(n))


def test_restricted_examples():
    for n in range(8):
        assert counts(n, 2).get(0, 0) == 1
    assert counts(5, 3).get(0, 0) == 16
    assert counts(3, 3).get(1, 0) == 1


def test_restricted_sums():
    # over r: all avoiders of 12..k; with huge k: the full distribution
    for n in range(7):
        joint = joint_tables([n])[n]
        for k in range(1, n + 2):
            total = sum(counts(n, k).get(r, 0) for r in range(math.comb(n, 3) + 1))
            avoiders = sum(c for (_, lis), c in joint.items() if lis < k)
            assert total == avoiders
        assert {r: counts(n, n + 1).get(r, 0) for r in counts(n)} == counts(n)


def test_k_at_most_0_avoids_nothing(catalog2):
    # the oracle, avoids_monotone and the solver agree that no permutation
    # avoids 12...k for k <= 0; k = n + 1 restricts nothing
    solver = Solver(catalog2, 6)
    for n in range(7):
        table = joint_tables([n])[n]
        assert occurrence_counts(table, 0) == {}
        assert occurrence_counts(table, n + 1) == occurrence_counts(table)
        for values in permutations(range(1, n + 1)):
            assert not avoids_monotone(make_permutation(values), 0)
    for r in range(3):
        assert solver.restricted_series(r, 0).integer_coeffs() == [0] * 7


def test_guard():
    with pytest.raises(OracleError, match="sweep guard 10"):
        joint_tables([11])
    with pytest.raises(OracleError):
        joint_tables([-1])


def test_thread_count_does_not_change_results():
    # n = 8 gives 8 first-entry jobs for 2 workers, one job per task
    oracle._joint_cache.pop(8, None)
    serial = joint_tables([8], threads=1)
    oracle._joint_cache.pop(8, None)
    parallel = joint_tables([8], threads=2)
    assert serial == parallel


def test_joint_tables_match_one_n_sweeps(monkeypatch):
    # one batched sweep over several n, serial and through one pool,
    # gives each n the table of its own sweep
    singles = {}
    for n in range(8):
        oracle._joint_cache.pop(n, None)
        singles[n] = joint_tables([n])[n]
    for threads in (1, 2):
        monkeypatch.setattr(oracle, "_joint_cache", {})
        assert joint_tables(range(8), threads=threads) == singles
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
        oracle._joint_cache.pop(n, None)
        joint_tables([n])
        assert seen == list(permutations(range(1, n + 1)))[:: oracle.SPOT_CHECK_STRIDE], n


def test_spot_checks_reach_every_order_of_the_closed_leaf(monkeypatch):
    # the last three entries are closed in blocks of six; a stride coprime
    # to 6 spot-checks each of their six relative orders
    seen = []
    monkeypatch.setattr(oracle, "_spot_check", lambda values, occ, lis: seen.append(values))
    oracle._joint_cache.pop(7, None)
    joint_tables([7])
    orders = {tuple(sorted(values[-3:]).index(v) for v in values[-3:]) for values in seen}
    assert orders == set(permutations(range(3)))


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


def test_lis_marginal_matches_robinson_schensted_at_n9():
    # independent of the walk: by Robinson-Schensted, the permutations of
    # S_n with LIS length k number the sum of (f^shape)^2 over the shapes
    # of n with first row k
    want = Counter()
    for shape in partitions(9):
        want[shape[0]] += hook_length_count(shape) ** 2
    got = Counter()
    for (_, lis), c in joint_tables([9])[9].items():
        got[lis] += c
    assert got == want
    assert counts(9).get(0, 0) == 4862
    assert counts(9).get(1, 0) == math.comb(15, 6) == 5005


def test_spot_check_catches_a_wrong_count(monkeypatch):
    listing = oracle.occurrences_132
    monkeypatch.setattr(oracle, "occurrences_132", lambda pi: [*listing(pi), None])
    oracle._joint_cache.clear()
    with pytest.raises(OracleError, match="listing"):
        joint_tables([5])


def test_spot_check_catches_a_wrong_lis(monkeypatch):
    monkeypatch.setattr(oracle, "lis_length", lambda values: lis_length(values) + 1)
    oracle._joint_cache.clear()
    with pytest.raises(OracleError, match="LIS"):
        joint_tables([5])
