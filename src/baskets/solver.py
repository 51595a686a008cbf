"""Core solver for the basket puzzle.

Given N apples and N pears, the basket count n must divide N (equal apples per
basket) and must admit n distinct non-negative pear counts summing to N, which
holds exactly when n(n-1)/2 <= N.  The answer is the largest divisor of N that
passes this test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import divisors, triangular


class InfeasibleError(ValueError):
    """The requested basket count cannot absorb the pears for this N."""


@dataclass(frozen=True)
class PearDistribution:
    """Strictly increasing pear counts, one per basket."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise ValueError("a distribution needs at least one basket")
        if self.counts[0] < 0:
            raise ValueError("pear counts must be non-negative")
        if any(b <= a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("pear counts must be strictly increasing")

    def __iter__(self):
        return iter(self.counts)

    def __len__(self):
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class Solution:
    """Full answer for one N; `canonical` is built from n_max when read."""

    n_input: int
    n_max: int
    apples_per_basket: int
    pear_bound: float
    efficiency: float
    surplus: int

    @property
    def canonical(self) -> PearDistribution:
        return canonical_distribution(self.n_max, self.n_input)


def pear_bound(n_input: int) -> float:
    """(1 + sqrt(1 + 8N)) / 2: any feasible basket count n satisfies n <= bound.

    Reporting only; feasibility decisions stay in exact integers (`feasible`).
    """
    if n_input < 1:
        raise ValueError(f"n_input must be positive, got {n_input}")
    return (1.0 + math.sqrt(1.0 + 8.0 * n_input)) / 2.0


def feasible(n: int, n_input: int) -> bool:
    """True iff n distinct non-negative pear counts can sum to n_input."""
    if n < 1 or n_input < 1:
        raise ValueError("n and n_input must be positive")
    return triangular(n) <= n_input


def max_baskets(n_input: int) -> int:
    """m(N): the largest n with n(n-1)/2 <= N, that is (2n-1)^2 <= 1 + 8N."""
    return (1 + math.isqrt(1 + 8 * n_input)) // 2


def require_feasible(n: int, n_input: int) -> None:
    """Raise InfeasibleError unless `feasible(n, n_input)`."""
    if not feasible(n, n_input):
        raise InfeasibleError(
            f"{n} baskets cannot hold distinct pear counts summing to {n_input}"
        )


def canonical_distribution(n: int, n_input: int) -> PearDistribution:
    """The distribution {0, 1, ..., n-2, (n-1)+S} with the whole surplus last.

    For a single basket the distribution is just {n_input}.
    """
    require_feasible(n, n_input)
    if n == 1:
        return PearDistribution((n_input,))
    surplus = n_input - triangular(n)
    return PearDistribution(tuple(range(n - 1)) + (n - 1 + surplus,))


def solve(n_input: int) -> Solution:
    """Maximize the basket count for n_input apples and n_input pears."""
    if n_input < 1:
        raise ValueError(f"n_input must be positive, got {n_input}")
    largest = max_baskets(n_input)
    n_max = max(d for d in divisors(n_input) if d <= largest)
    bound = pear_bound(n_input)
    return Solution(
        n_input=n_input,
        n_max=n_max,
        apples_per_basket=n_input // n_max,
        pear_bound=bound,
        efficiency=n_max / bound,
        surplus=n_input - triangular(n_max),
    )
