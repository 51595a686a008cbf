"""Core solver for the basket puzzle.

Given N apples and N pears, the basket count n must divide N (equal apples per
basket) and must admit n distinct non-negative pear counts summing to N, which
holds exactly when n(n-1)/2 <= N.  The answer is the largest divisor of N that
passes this test.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .arith import CapacityError, divisors, triangular


class InfeasibleError(ValueError):
    """The requested basket count cannot absorb the pears for this N."""


@dataclass(frozen=True)
class Solution:
    """Full answer for one N; its canonical list, which the CLI streams from
    n_max and surplus, is enumerate_distributions(n_max, n_input, 1)[0].
    """

    # These fields, in this order, are the scalar keys of `solve --format json`
    # (the CLI writes vars() of a Solution); this list is their only statement.
    n_input: int
    n_max: int
    apples_per_basket: int
    pear_bound: float
    efficiency: float
    surplus: int


def pear_bound(n_input: int) -> float:
    """(1 + sqrt(1 + 8N)) / 2: any feasible basket count n satisfies n <= bound.

    Reporting only; feasibility decisions stay in exact integers (`feasible`).
    Past float range for 8N the bound comes from an integer square root; it
    exceeds float range itself for N above about 1.6e616 (CapacityError).
    """
    if n_input < 1:
        raise ValueError(f"n_input must be positive, got {n_input}")
    try:
        eight_n = 8.0 * n_input
    except OverflowError:
        eight_n = math.inf
    if eight_n < math.inf:
        return (1.0 + math.sqrt(1.0 + eight_n)) / 2.0
    try:
        return (1 + math.isqrt(1 + 8 * n_input)) / 2
    except OverflowError:
        raise CapacityError(
            "the pear bound exceeds float range for N above about 1.6e616"
        ) from None


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


def solve(n_input: int) -> Solution:
    """Maximize the basket count for n_input apples and n_input pears."""
    if n_input < 1:
        raise ValueError(f"n_input must be positive, got {n_input}")
    bound = pear_bound(n_input)  # first: past float range it fails before factoring
    divs = divisors(n_input)  # ascending, so the answer is the last one <= m(N)
    n_max = divs[bisect_right(divs, max_baskets(n_input)) - 1]
    return Solution(
        n_input=n_input,
        n_max=n_max,
        apples_per_basket=n_input // n_max,
        pear_bound=bound,
        efficiency=n_max / bound,
        surplus=n_input - triangular(n_max),
    )
