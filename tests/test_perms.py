from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from occ132 import (
    Occurrence,
    Permutation,
    count_132,
    lis_length,
    occurrences_132,
    perm_to_str,
    reduce_to_pattern,
)
from occ132.perms import count_132_values

from helpers import avoids_monotone, perm_from_str


class TestMakePermutation:
    def test_empty(self):
        assert Permutation(()).n == 0

    def test_valid(self):
        p = Permutation((5, 7, 6, 1, 4, 2, 8, 3))
        assert p.n == 8
        assert p(1) == 5 and p(8) == 3

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Permutation((0, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Permutation((1, 5, 2))

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            Permutation((1, 2))(3)


class TestOccurrences:
    def test_pattern_itself(self):
        assert occurrences_132(Permutation((1, 3, 2))) == [Occurrence(1, 2, 3)]

    def test_worked_example_has_five(self):
        assert len(occurrences_132(perm_from_str("57614283"))) == 5

    def test_increasing_has_none(self):
        assert occurrences_132(Permutation((1, 2, 3, 4))) == []

    def test_lexicographic_order(self):
        occs = occurrences_132(perm_from_str("57614283"))
        assert occs == sorted(occs)


class TestCount:
    def test_examples(self):
        assert count_132(perm_from_str("14253")) == 4
        assert count_132(perm_from_str("35142")) == 2
        assert count_132(perm_from_str("1432")) == 3

    def test_matches_listing_small(self):
        for n in range(8):
            for vals in permutations(range(1, n + 1)):
                pi = Permutation(vals)
                assert count_132(pi) == len(occurrences_132(pi)), vals

    def test_total_over_s4(self):
        total = sum(count_132(Permutation(v)) for v in permutations((1, 2, 3, 4)))
        assert total == 16


class TestReduce:
    def test_examples(self):
        assert reduce_to_pattern([1, 4, 2, 8, 3]).values == (1, 4, 2, 5, 3)
        assert reduce_to_pattern([3, 8, 4, 5]).values == (1, 4, 2, 3)
        assert reduce_to_pattern([7]).values == (1,)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            reduce_to_pattern([2, 2])

    @given(st.lists(st.integers(-100, 100), max_size=12, unique=True))
    def test_idempotent(self, values):
        once = reduce_to_pattern(values)
        assert reduce_to_pattern(once.values) == once


class TestLis:
    def test_examples(self):
        assert lis_length([]) == 0
        assert lis_length([1, 4, 2, 3]) == 3
        assert lis_length([2, 3]) == 2

    def test_matches_exhaustive_search(self):
        def brute(vals):
            best = 0
            for size in range(len(vals) + 1):
                for idx in combinations(range(len(vals)), size):
                    picked = [vals[i] for i in idx]
                    if all(a < b for a, b in zip(picked, picked[1:])):
                        best = max(best, size)
            return best

        for n in range(7):
            for vals in permutations(range(1, n + 1)):
                assert lis_length(vals) == brute(vals), vals


class TestAvoidsMonotone:
    def test_examples(self):
        assert avoids_monotone(Permutation((2, 1)), 2)
        assert not avoids_monotone(Permutation((1, 2, 3, 4)), 3)

    def test_k_nonpositive_is_false_for_everything(self):
        for pi in (Permutation(()), Permutation((1,)), Permutation((2, 1))):
            assert not avoids_monotone(pi, 0)
            assert not avoids_monotone(pi, -1)

    def test_k_one_admits_only_empty(self):
        assert avoids_monotone(Permutation(()), 1)
        assert not avoids_monotone(Permutation((1,)), 1)


class TestSerialization:
    def test_digit_string_small(self):
        assert perm_to_str(Permutation((5, 7, 6, 1, 4, 2, 8, 3))) == "57614283"

    def test_comma_form_large(self):
        pi = Permutation((10, 11, 7, 12, 4, 6, 5, 8, 3, 9, 2, 1))
        assert perm_to_str(pi) == "10,11,7,12,4,6,5,8,3,9,2,1"
        assert perm_from_str(perm_to_str(pi)) == pi

    def test_both_forms_accepted(self):
        assert perm_from_str("132") == perm_from_str("1,3,2")

    @given(st.permutations(list(range(1, 10))))
    def test_roundtrip(self, vals):
        pi = Permutation(tuple(vals))
        assert perm_from_str(perm_to_str(pi)) == pi


@given(st.permutations(list(range(1, 9))))
def test_fast_counter_matches_cubic_listing(vals):
    assert count_132_values(tuple(vals)) == len(occurrences_132(Permutation(tuple(vals))))
