"""Integer arithmetic substrate: sieve, divisors, primality, highly composite
numbers, triangular numbers.

Single-N queries use trial division and the highly-composite generator; none
of them needs a sieve, and the sweep reads its primes off its answers.  One
generator, ``_small_divisors``, does all trial division (odd N on odd d only).
:func:`build_sieve` (a bool sieve of Eratosthenes) and
:meth:`DivisorSieve.highly_composite_table` serve no command; they stay
because the benchmark's traced sweep run calls them, and they import numpy
only when called, so importing this module does not load it.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from math import isqrt, prod

# Hard cap on sweep and sieve size.  Below 2^31 every n_max fits in a uint16: an answer
# of 65536 needs 65536 | N and N >= 65536*65535/2, and the first such N is 2^31.
SIEVE_CEILING = 2**31 - 1


class CapacityError(ValueError):
    """A request is outside the supported range: a sweep or sieve limit, or an N
    whose pear bound exceeds float range."""


class DivisorSieve:
    """Prime flags for every integer in [0, limit].

    ``prime`` is a numpy bool array and ``prime[n]`` is True exactly when
    ``n`` is prime.  Instances are immutable after construction and safe to
    share across threads.
    """

    def __init__(self, limit: int, prime):
        self.limit = limit
        self.prime = prime

    def highly_composite_table(self):
        """numpy bool table of divisor-count record holders over [0, limit]."""
        import numpy as np

        table = np.zeros(self.limit + 1, dtype=bool)
        table[highly_composite_numbers(self.limit)] = True
        return table


def build_sieve(limit: int) -> DivisorSieve:
    """Sieve of Eratosthenes: prime flags covering [0, limit]."""
    if limit < 2 or limit > SIEVE_CEILING:
        raise CapacityError(f"sieve limit must be in [2, {SIEVE_CEILING}], got {limit}")
    import numpy as np

    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    return DivisorSieve(limit, prime)


def _small_divisors(n: int) -> Iterator[int]:
    """Each divisor d <= sqrt(n) of n, ascending; odd n is tried on odd d only."""
    for d in range(1, isqrt(n) + 1, 1 + n % 2):
        if n % d == 0:
            yield d


def divisors(n: int) -> tuple[int, ...]:
    """Complete sorted divisor list of n: each d <= sqrt(n), then n // d."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    small = list(_small_divisors(n))
    return (*small, *(n // d for d in reversed(small) if d * d != n))


def is_prime(n: int) -> bool:
    """True iff n has exactly two divisors: none up to sqrt(n) but 1."""
    return n > 1 and not any(islice(_small_divisors(n), 1, None))


def _next_prime(p: int) -> int:
    """The least prime above p."""
    p += 1
    while not is_prime(p):
        p += 1
    return p


def triangular(m: int) -> int:
    """m(m-1)/2, the minimum sum of m distinct non-negative integers."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    return m * (m - 1) // 2


def _candidates(limit: int) -> Iterator[tuple[int, int]]:
    """(m, tau(m)) for 1 and every product 2^a1 * 3^a2 * ... * p_k^ak <= limit
    with a1 >= a2 >= ... >= ak >= 1, depth first and unsorted, none kept."""
    if limit < 1:
        return
    yield 1, 1
    primes = [2]
    # (value, divisor count, index of the next prime, largest exponent allowed)
    stack = [(1, 1, 0, limit.bit_length())]
    while stack:
        base, tau, index, max_exp = stack.pop()
        if index == len(primes):
            primes.append(_next_prime(primes[-1]))
        value = base
        for exp in range(1, max_exp + 1):
            value *= primes[index]
            if value > limit:
                break
            count = tau * (exp + 1)
            yield value, count
            stack.append((value, count, index + 1, exp))


def highly_composite_numbers(limit: int) -> list[int]:
    """Every n <= limit with strictly more divisors than each smaller positive
    integer, ascending.  1 and 2 qualify; ties do not.

    Candidates are the products 2^a1 * 3^a2 * ... * p_k^ak <= limit with
    a1 >= a2 >= ... >= ak >= 1 (Ramanujan, 1915): sorting an integer's
    exponents in decreasing order onto consecutive primes keeps its divisor
    count and never makes it larger, so the records among the candidates are
    the records among all integers.
    """
    records, best = [], 0
    for value, count in sorted(_candidates(limit)):
        if count > best:
            records.append(value)
            best = count
    return records


def is_highly_composite(n: int) -> bool:
    """True iff n has strictly more divisors than every smaller positive integer.

    1 and 2 qualify; ties do not.  Most n are rejected by their prime
    exponents alone: a record holder has non-increasing exponents
    a1 >= a2 >= ... on the consecutive primes 2, 3, 5, ..., and, with q the
    first prime not dividing n, p_i^j <= q for j = (a_i + 1) // 2, or else
    m = n * q / p_i^j is smaller than n with
    tau(m) = 2 tau(n) (a_i - j + 1) / (a_i + 1) >= tau(n).  Only the
    survivors are checked against every smaller candidate, one at a time.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    primes, exponents = [], []
    rest, p = n, 2
    while rest > 1:  # each pass divides out a prime or returns
        a = 0
        while rest % p == 0:
            rest //= p
            a += 1
        if a == 0 or (exponents and a > exponents[-1]):
            return False
        primes.append(p)
        exponents.append(a)
        p = _next_prime(p)
    if any(r ** ((a + 1) // 2) > p for r, a in zip(primes, exponents)):
        return False
    tau = prod(a + 1 for a in exponents)
    return all(count < tau for _, count in _candidates(n - 1))
