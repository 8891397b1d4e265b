"""Permutations in one-line notation and 132-pattern primitives.

Conventions used throughout the package:

- A permutation of size n is a rearrangement of {1, ..., n}; the empty
  permutation (n = 0) is valid.
- Positions and values are 1-based in every public interface.  A
  ``Permutation`` is callable, so ``pi(i)`` is the value at position i.
- An occurrence of 132 in pi is a position triple i < j < k with
  pi(i) < pi(k) < pi(j), i.e. a subsequence order-isomorphic to 132.

Permutations print as plain digit strings for n <= 9 ("57614283")
and as comma-separated integers for larger sizes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence


class Occurrence(NamedTuple):
    """Positions i < j < k of an occurrence of 132: pi(i) < pi(k) < pi(j)."""

    i: int
    j: int
    k: int


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} in one-line notation.

    >>> Permutation((1, 3, 2))(2)
    3
    >>> len(Permutation(()))
    0
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        seen = [False] * (n + 1)
        for v in self.values:
            if not isinstance(v, int) or not 1 <= v <= n or seen[v]:
                raise ValueError(f"not a permutation of 1..{n}: {self.values!r}")
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __call__(self, i: int) -> int:
        """Value at 1-based position i."""
        if not 1 <= i <= len(self.values):
            raise IndexError(f"position {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]

    def __str__(self) -> str:
        return perm_to_str(self)


def perm_to_str(pi: Permutation) -> str:
    """Digit string for n <= 9, comma-separated integers otherwise."""
    if pi.n <= 9:
        return "".join(str(v) for v in pi.values)
    return ",".join(str(v) for v in pi.values)


def occurrences_132(pi: Permutation) -> list[Occurrence]:
    """All occurrences of 132 in pi, in lexicographic order of (i, j, k).

    This is the deliberately naive cubic scan; it serves as the oracle
    for the quadratic counter below.

    >>> occurrences_132(Permutation((1, 3, 2)))
    [Occurrence(i=1, j=2, k=3)]
    >>> occurrences_132(Permutation((1, 2, 3, 4)))
    []
    """
    v = pi.values
    n = len(v)
    out = []
    for i in range(n):
        vi = v[i]
        for j in range(i + 1, n):
            vj = v[j]
            if vj <= vi:
                continue
            for k in range(j + 1, n):
                if vi < v[k] < vj:
                    out.append(Occurrence(i + 1, j + 1, k + 1))
    return out


def count_132_values(values: Sequence[int]) -> int:
    """Number of occurrences of 132 in a rearrangement of 1..n.

    Quadratic method: scanning j from the left, ``cnt_less[v]`` holds the
    number of entries before j that are smaller than v, so each pair
    j < k with values[k] < values[j] contributes cnt_less[values[k]]
    choices for the opening entry.
    """
    n = len(values)
    total = 0
    cnt_less = [0] * (n + 2)
    for j in range(n):
        vj = values[j]
        for k in range(j + 1, n):
            vk = values[k]
            if vk < vj:
                total += cnt_less[vk]
        for v in range(vj + 1, n + 2):
            cnt_less[v] += 1
    return total


def count_132(pi: Permutation) -> int:
    """Number of occurrences of 132 in pi.

    >>> count_132(Permutation((1, 4, 2, 5, 3)))
    4
    """
    return count_132_values(pi.values)


def reduce_to_pattern(values: Sequence[int]) -> Permutation:
    """The permutation order-isomorphic to a sequence of distinct integers.

    >>> reduce_to_pattern([1, 4, 2, 8, 3]).values
    (1, 4, 2, 5, 3)
    >>> reduce_to_pattern([7]).values
    (1,)
    """
    if len(set(values)) != len(values):
        raise ValueError(f"values must be distinct: {list(values)!r}")
    rank = {v: r for r, v in enumerate(sorted(values), start=1)}
    return Permutation(tuple(rank[v] for v in values))


def lis_length(values: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence.

    Patience-sorting method; values must be distinct.

    >>> lis_length([1, 4, 2, 3])
    3
    >>> lis_length([])
    0
    """
    tails: list[int] = []
    for v in values:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)
