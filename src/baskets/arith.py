"""Integer arithmetic substrate: sieve, divisors, primality, highly composite
numbers, triangular numbers.

Single-N queries factor N; none of them needs a sieve, and the sweep reads
its primes off its answers.  Trial division by the primes up to 997 finishes
most N; a cofactor left above 997^2 is tested for primality (Miller-Rabin on
the prime bases 2..41 below psi13, BPSW from there up), then for a perfect
power by integer k-th roots, and split by Pollard-Brent rho within
``RHO_STEPS`` steps on a cofactor of at most 128 bits (a step on a larger one
counts as several).  :func:`build_sieve` (a bool sieve of Eratosthenes) and
:meth:`DivisorSieve.highly_composite_table` serve no command; they stay
because the benchmark's traced sweep run calls them, and they import numpy
only when called, so importing this module does not load it.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd, isqrt, prod

# Hard cap on sweep and sieve size.  Below 2^31 every n_max fits in a uint16: an answer
# of 65536 needs 65536 | N and N >= 65536*65535/2, and the first such N is 2^31.
SIEVE_CEILING = 2**31 - 1

# Every prime up to 997 (what no p < 32 strikes out): trial division covers
# them, so a cofactor left above 997^2 goes to the primality test and rho.
_PRIMES = tuple(sorted(
    set(range(2, 1000)) - {m for p in range(2, 32) for m in range(p * p, 1000, p)}))
_TRIAL_SQUARE = _PRIMES[-1] ** 2
# Miller-Rabin on the 13 prime bases 2..41 is exact below psi13 (Sorenson and
# Webster 2015); psi13 itself passes all 13.
_PSI13 = 3317044064679887385961981
# Evaluations of x^2 + c that rho may spend on one N, in all, in steps on a
# cofactor of at most 128 bits (``_rho`` charges a larger one more).  The
# corpus's hardest row, psi13 (least factor 1.29e12), needs half of it; a
# product of two primes near 1e20 exhausts it in 1.6-2.2 s on a 2-vCPU x86 host.
RHO_STEPS = 1 << 22


class CapacityError(ValueError):
    """A request is outside the supported range: a sweep or sieve limit, an N
    whose pear bound exceeds float range, or an N that rho cannot factor
    within its budget of ``RHO_STEPS`` steps."""


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


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin: odd n > a passes the strong test to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters: D the first of 5, -7, 9,
    -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.  Odd n > 13."""
    if isqrt(n) ** 2 == n:  # no such D exists for a square
        return False
    d = 5
    while (symbol := _jacobi(d, n)) == 1:
        d = -d - 2 if d > 0 else 2 - d
    if symbol == 0:  # |d| < n shares a factor with n
        return False
    q = (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k, s = k // 2, s + 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    # U_1, V_1, Q^1; each bit of k doubles the index, then a 1 bit adds one
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (d * u + v) * half % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _probable_prime(n: int) -> bool:
    """Primality of an n above 997^2 with no prime factor up to 997: exact
    below psi13; BPSW (Baillie and Wagstaff 1980) from psi13 up."""
    if n < _PSI13:
        return all(_strong_probable_prime(n, a) for a in _PRIMES[:13])
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _rho(n: int, budget: int) -> tuple[int, int]:
    """A proper factor of composite n by Pollard-Brent rho (Brent 1980), and
    the budget left.  x -> x^2 + c from x = 2 for c = 1, 2, ... until one
    splits n; CapacityError once a round would exceed the budget."""
    # a step on n costs about (k + k^2/8) / (9/8) steps on 128 bits, with
    # k = bits / 128 and k^2 the schoolbook product: 1 up to 128 bits, 43 at
    # 2048, where a step took 49 times as long on a 2-vCPU x86 host
    bits = n.bit_length()
    weight = max(1, (bits * (bits + 1024) + 73728) // 147456)
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r * weight > budget:  # a round takes at most 2r steps
                raise CapacityError(f"cannot factor {n}: Pollard rho found no factor "
                                    f"in {RHO_STEPS // weight} steps")
            budget -= 2 * r * weight
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:  # one gcd per 128 steps
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, budget


def _root(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 1, by Newton's method from above."""
    x = 1 << -(-m.bit_length() // k)
    while (y := ((k - 1) * x + m // x ** (k - 1)) // k) < x:
        x = y
    return x


def _perfect_power_root(m: int) -> int | None:
    """r with m = r^k for a prime k <= 997, if there is one, for an m with no
    prime factor below 1009: then r >= 1009 > 2^9, so k <= m.bit_length() // 9."""
    for k in _PRIMES:
        if k > m.bit_length() // 9:
            return None
        root = _root(m, k)
        if root**k == m:
            return root
    return None


def _large_prime_factors(n: int) -> list[int]:
    """The distinct primes of n > 997^2, which has no prime factor up to 997."""
    primes, stack, budget = [], [n], RHO_STEPS
    while stack:
        m = stack.pop()
        for p in primes:  # so a repeated prime is split off once
            while m % p == 0:
                m //= p
        if m == 1:
            continue
        if _probable_prime(m):
            primes.append(m)
        elif root := _perfect_power_root(m):  # rho would have to split p^k at p
            stack.append(root)
        else:
            d, budget = _rho(m, budget)
            stack += (m // d, d)  # d, most often the least prime, first
    return primes


def _take(divs: list[int], n: int, p: int) -> int:
    """Divide every factor p out of n, extending divs by d * p^k for each d
    it held; returns what is left of n."""
    new = divs
    while n % p == 0:
        n //= p
        new = [d * p for d in new]
        divs += new
    return n


def divisors(n: int) -> tuple[int, ...]:
    """Complete sorted divisor list of n, built from its prime factors."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    divs = [1]
    for p in _PRIMES:
        if p * p > n:  # what is left is 1 or a prime
            break
        if n % p == 0:
            n = _take(divs, n, p)
    else:
        if n > _TRIAL_SQUARE:
            for p in _large_prime_factors(n):
                n = _take(divs, n, p)
    if n > 1:
        divs += [d * n for d in divs]
    divs.sort()
    return tuple(divs)


def is_prime(n: int) -> bool:
    """True iff n is prime: trial division by the primes up to 997, then the
    primality test of the factoriser."""
    if n < 2:
        return False
    for p in _PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return _probable_prime(n)


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
