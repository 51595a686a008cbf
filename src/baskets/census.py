"""Classification of N and exact counting/enumeration of pear distributions."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import isqrt
from typing import Iterator

from .arith import is_highly_composite, triangular
from .solver import InfeasibleError, PearDistribution, Solution, feasible

NEAR_PERFECT_THRESHOLD = 0.9

# Display precedence when several flags are set (classes are non-exclusive).
DISPLAY_ORDER = ("perfect", "prime", "near_perfect", "highly_composite")


@dataclass(frozen=True)
class ClassificationFlags:
    perfect: bool
    prime: bool
    near_perfect: bool
    highly_composite: bool

    @property
    def display_class(self) -> str:
        for name in DISPLAY_ORDER:
            if getattr(self, name):
                return name
        return "plain"


def classify(solution: Solution) -> ClassificationFlags:
    """Non-exclusive flags for one solved N.

    Perfect is decided in exact integers (2N = n(n-1) with n odd), never by
    comparing efficiency against 1.0.  Prime is read off the answer, as the
    sweep does: a composite N has its least divisor a <= sqrt(N), so
    a(a-1)/2 < N and n_max >= a >= 2; a prime p > 3 has only the divisors 1
    and p, with p(p-1)/2 > p, so n_max = 1; 2 and 3 are their own answers.
    """
    n, n_max = solution.n_input, solution.n_max
    perfect = 2 * n == n_max * (n_max - 1) and n_max % 2 == 1
    return ClassificationFlags(
        perfect=perfect,
        prime=n_max == 1 and n > 1 or n in (2, 3),
        near_perfect=solution.efficiency > NEAR_PERFECT_THRESHOLD and not perfect,
        highly_composite=is_highly_composite(n),
    )


def count_distributions(n: int, n_input: int) -> int:
    """Exact number of sets of n distinct non-negative integers summing to n_input.

    Subtracting the forced minimum {0, 1, ..., n-1} leaves a surplus S to
    spread while keeping the counts distinct; the arrangements correspond
    one-to-one with partitions of S into at most n parts, counted here by
    dynamic programming in O(S*n).  Counts are exact bignums.
    """
    if not feasible(n, n_input):
        raise InfeasibleError(
            f"{n} baskets cannot hold distinct pear counts summing to {n_input}"
        )
    surplus = n_input - triangular(n)
    # partitions of `surplus` into parts of size <= n (conjugate of "at most n parts")
    ways = [0] * (surplus + 1)
    ways[0] = 1
    for part in range(1, min(n, surplus) + 1):
        for total in range(part, surplus + 1):
            ways[total] += ways[total - part]
    return ways[surplus]


def _ascending_choices(slots: int, total: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing tuples of `slots` non-negative integers summing to
    `total`, in lexicographic order; `total` must be at least T(slots).

    Depth-first over an explicit stack of range iterators that share one
    prefix list, so memory is O(slots) at any depth.  The first of k values
    still to place, v, has k-1 distinct values above it, which sum to at
    least (k-1)(v+1) + T(k-1); so v <= (remaining - T(k)) // k.  Under that
    cap every branch reaches a valid leaf, and each result costs O(slots).
    """
    if slots == 1:
        yield (total,)
        return
    prefix: list[int] = []
    remaining = total
    stack = [iter(range((total - triangular(slots)) // slots + 1))]
    while stack:
        v = next(stack[-1], None)
        if len(prefix) == len(stack):  # retire this level's previous value
            remaining += prefix.pop()
        if v is None:
            stack.pop()
            continue
        prefix.append(v)
        remaining -= v
        left = slots - len(prefix)
        if left == 1:
            yield (*prefix, remaining)
        else:
            stack.append(iter(range(v + 1, (remaining - triangular(left)) // left + 1)))


def enumerate_distributions(n: int, n_input: int, limit: int) -> list[PearDistribution]:
    """First `limit` valid distributions in lexicographic order.

    When not truncated, the list length equals count_distributions(n, n_input);
    the canonical distribution is always present (it sorts first).
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if not feasible(n, n_input):
        raise InfeasibleError(
            f"{n} baskets cannot hold distinct pear counts summing to {n_input}"
        )
    chosen = islice(_ascending_choices(n, n_input), limit)
    return [PearDistribution(counts) for counts in chosen]


def perfect_values(limit: int) -> list[tuple[int, int]]:
    """All (N, n) with N <= limit, N = n(n-1)/2 and n odd, ascending.

    These are the inputs where the pear constraint is exactly tight and the
    tight basket count still divides N; efficiency is exactly 1 there.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    largest = (1 + isqrt(1 + 8 * limit)) // 2  # the largest n with T(n) <= limit
    return [(triangular(n), n) for n in range(3, largest + 1, 2)]
