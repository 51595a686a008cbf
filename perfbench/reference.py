"""Independent reference answers used to check the program's outputs.

Nothing here imports ``baskets``: divisors, primality and divisor counts come
from sympy, partition counts from recurrences other than the program's.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from math import isqrt, sqrt

import numpy as np
import sympy
from sympy.functions.combinatorial.numbers import partition

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
MODULI = (2_147_483_647, 2_147_483_629)


def triangular(m: int) -> int:
    return m * (m - 1) // 2


def max_feasible_baskets(n_input: int) -> int:
    """Largest m with m(m-1)/2 <= n_input."""
    return (1 + isqrt(1 + 8 * n_input)) // 2


def n_max(n_input: int) -> int:
    """Largest divisor d of n_input with d(d-1)/2 <= n_input."""
    return max(d for d in sympy.divisors(n_input) if triangular(d) <= n_input)


def pear_bound(n_input: int) -> float:
    return (1 + sqrt(1 + 8 * n_input)) / 2


def canonical(n: int, n_input: int):
    """Iterator over {0, 1, ..., n-2, (n-1)+S}."""
    return chain(range(n - 1), [n - 1 + n_input - triangular(n)])


def highly_composite_numbers(limit: int) -> list[int]:
    """Divisor-count record holders up to limit.

    Every record holder has non-increasing exponents over consecutive primes,
    and every integer shares its divisor count with such a number no larger
    than itself, so records over those candidates are records over all.
    """
    candidates = []

    def extend(value: int, index: int, max_exp: int) -> None:
        candidates.append(value)
        if index == len(SMALL_PRIMES):
            return
        for exp in range(1, max_exp + 1):
            value *= SMALL_PRIMES[index]
            if value > limit:
                return
            extend(value, index + 1, exp)

    extend(1, 0, limit.bit_length())
    records, best = [], 0
    for value in sorted(candidates):
        tau = sympy.divisor_count(value)
        if tau > best:
            records.append(value)
            best = tau
    return records


@lru_cache(maxsize=None)
def _exact_parts(m: int, k: int) -> int:
    """Partitions of m into exactly k parts: p(m-1, k-1) + p(m-k, k)."""
    if m == 0 and k == 0:
        return 1
    if m <= 0 or k <= 0 or k > m:
        return 0
    return _exact_parts(m - 1, k - 1) + _exact_parts(m - k, k)


def distribution_count_small(n: int, n_input: int) -> int:
    """Exact count for small surplus: partitions of S into at most n parts."""
    surplus = n_input - triangular(n)
    if n >= surplus:
        return int(partition(surplus))
    return sum(_exact_parts(surplus, k) for k in range(n + 1))


def distribution_count_mod(n: int, n_input: int, modulus: int) -> int:
    """Partitions of S into parts <= n, modulo `modulus`.

    Adding part k turns the table into running sums along each residue class
    mod k, which is one cumulative sum over a (rows, k) reshape.
    """
    surplus = n_input - triangular(n)
    ways = np.zeros(surplus + 1, dtype=np.int64)
    ways[0] = 1
    for k in range(1, min(n, surplus) + 1):
        rows = -(-(surplus + 1) // k)
        grid = np.zeros(rows * k, dtype=np.int64)
        grid[: surplus + 1] = ways
        ways = (grid.reshape(rows, k).cumsum(axis=0) % modulus).ravel()[: surplus + 1]
    return int(ways[surplus])


class Flags:
    """Classification flags computed without the package."""

    def __init__(self, highly_composite: list[int], hc_limit: int):
        self.hc_limit = hc_limit
        self.highly_composite = {n for n in highly_composite if n <= hc_limit}

    def __call__(self, n_input: int, n: int) -> dict:
        if n_input > self.hc_limit:
            raise ValueError(f"highly composite flags only known up to {self.hc_limit}")
        perfect = 2 * n_input == n * (n - 1) and n % 2 == 1
        # efficiency n / bound > 0.9, in integers
        near = not perfect and 20 * n - 9 > 0 and (20 * n - 9) ** 2 > 81 * (1 + 8 * n_input)
        flags = {
            "perfect": perfect,
            "prime": bool(sympy.isprime(n_input)),
            "near_perfect": near,
            "highly_composite": n_input in self.highly_composite,
        }
        flags["display_class"] = next((k for k, v in flags.items() if v), "plain")
        return flags
