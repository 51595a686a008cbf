import tracemalloc
from math import isqrt

import numpy as np
import pytest

from baskets import arith
from baskets.arith import (
    CapacityError,
    SIEVE_CEILING,
    build_sieve,
    divisors,
    highly_composite_numbers,
    is_highly_composite,
    is_prime,
    triangular,
)


def brute_divisor_lists(limit):
    """divisor lists for all n <= limit by marking every multiple of every d."""
    lists = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            lists[m].append(d)
    return lists


class TestBuildSieve:
    def test_small_table(self):
        sieve = build_sieve(10)
        assert sieve.prime.dtype == bool
        assert [n for n in range(11) if sieve.prime[n]] == [2, 3, 5, 7]

    def test_smallest_case(self):
        sieve = build_sieve(2)
        assert sieve.limit == 2
        assert sieve.prime.tolist() == [False, False, True]

    @pytest.mark.parametrize("limit", [1, 0, -3, SIEVE_CEILING + 1])
    def test_capacity_errors(self, limit):
        with pytest.raises(CapacityError):
            build_sieve(limit)

    def test_prime_flags_match_trial_division(self, sieve_10k):
        prime = sieve_10k.prime
        assert len(prime) == 10_001
        for n in range(10_001):
            assert bool(prime[n]) == is_prime(n), n

    def test_ceiling_keeps_answers_in_uint16(self):
        # an answer of 65536 needs 65536 | N and N >= 65536*65535/2; the
        # smallest such N is 2^31, just past the ceiling.  Larger answers
        # need an even larger N.
        floor = 65536 * 65535 // 2
        first = -(-floor // 65536) * 65536
        assert first == 2**31 > SIEVE_CEILING
        assert triangular(65537) > SIEVE_CEILING


class TestDivisors:
    def test_sixty(self):
        assert divisors(60) == (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60)

    def test_one(self):
        assert divisors(1) == (1,)

    def test_prime(self):
        assert divisors(97) == (1, 97)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            divisors(0)

    def test_matches_multiple_marking(self):
        # every claimed divisor passes the remainder test, pairs with its
        # cofactor, and the list is complete per an independent marking scan
        brute = brute_divisor_lists(10_000)
        for n in range(1, 10_001):
            divs = divisors(n)
            assert list(divs) == brute[n]
            for d in divs:
                assert n % d == 0 and d * (n // d) == n

    def test_sorted_with_endpoints(self):
        for n in (1, 2, 97, 360, 9973, 10_000):
            divs = divisors(n)
            assert divs[0] == 1 and divs[-1] == n
            assert list(divs) == sorted(set(divs))


def reference_divisors(n):
    """Reference divisor list: every d <= sqrt(n) that divides n, then the cofactors."""
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return tuple(small + large[::-1])


def reference_is_prime(n):
    """Reference primality test: 2, or an odd n > 2 with no odd divisor up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


class TestTrialDivisionEdges:
    # n -> divisors(n); is_prime(n) is True exactly when the tuple has two entries
    CASES = {
        1: (1,),
        2: (1, 2),
        3: (1, 3),
        4: (1, 2, 4),
        9: (1, 3, 9),
        25: (1, 5, 25),
        2 * 10007: (1, 2, 10007, 2 * 10007),
        10007**2: (1, 10007, 10007**2),
        1000003 * 1000033: (1, 1000003, 1000033, 1000003 * 1000033),
        10**12 + 39: (1, 10**12 + 39),
    }

    @pytest.mark.parametrize("n", sorted(CASES))
    def test_case(self, n):
        assert divisors(n) == self.CASES[n]
        assert is_prime(n) is (len(self.CASES[n]) == 2)

    def test_matches_reference_loops(self):
        for n in range(-2, 100_001):
            assert is_prime(n) == reference_is_prime(n), n
            if n > 0:
                assert divisors(n) == reference_divisors(n), n


def divisors_from_factors(factors):
    """Sorted divisors of the product of p**e over the (p, e) pairs."""
    divs = [1]
    for p, e in factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


# Odd composites up to 10^5 that pass the strong test to base 2 (OEIS A001262)
# and the strong Lucas test with Selfridge's parameters (OEIS A217255).
BASE_2_PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 42799, 49141,
                       52633, 65281, 74665, 80581, 85489, 88357, 90751)
LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                      58519, 75077, 97439)
PSI13 = 3317044064679887385961981


class TestFactoriser:
    def test_strong_tests_pass_exactly_primes_and_known_pseudoprimes(self):
        for n in range(15, 100_001, 2):
            prime = reference_is_prime(n)
            assert arith._strong_probable_prime(n, 2) == (prime or n in BASE_2_PSEUDOPRIMES), n
            assert arith._strong_lucas_probable_prime(n) == (prime or n in LUCAS_PSEUDOPRIMES), n

    def test_psi13_passes_the_thirteen_bases_and_fails_lucas(self):
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
        assert all(arith._strong_probable_prime(PSI13, a) for a in bases)
        assert not arith._strong_lucas_probable_prime(PSI13)

    @pytest.mark.parametrize("n,expected", [
        (2**89 - 1, True), (2**107 - 1, True), (2**127 - 1, True),
        (2**67 - 1, False),  # 193707721 * 761838257287
        ((2**61 - 1) * (2**89 - 1), False),
        ((2**89 - 1) ** 2, False),
        (PSI13 + 2, False),  # divisible by 3
    ])
    def test_large_n(self, n, expected):
        assert is_prime(n) is expected

    @pytest.mark.parametrize("factors", [
        [(2, 5), (1009, 3), (1000003, 2)],
        [(1009, 2)],
        [(997, 2), (1009, 1)],
        [(3, 1), (1000003, 1), (1000033, 1), (2**61 - 1, 1)],
        [(193707721, 1), (761838257287, 1)],
        [(2, 1), (2**89 - 1, 2)],
        # rho exhausts its budget on these powers; an integer k-th root finds them
        [(10**14 + 31, 3)],
        [(10**14 + 31, 5)],
        [(1009, 2), (10**14 + 31, 3)],
    ], ids=str)
    def test_large_factors_and_repeats(self, factors):
        n = 1
        for p, e in factors:
            n *= p**e
        assert divisors(n) == divisors_from_factors(factors)

    def test_root_is_the_floor_of_the_kth_root(self):
        for k in range(2, 8):
            for m in [*range(1, 3000), *(r**k + d for r in (1009, 2**89 - 1) for d in (-1, 0, 1))]:
                root = arith._root(m, k)
                assert root**k <= m < (root + 1) ** k, (m, k)

    def test_repeated_prime_costs_one_split(self, monkeypatch):
        # rho splits 1000003 off 1000003 * 1000033^2 in 1022 steps; the
        # 1000033^2 left must not be split again
        monkeypatch.setattr(arith, "RHO_STEPS", 1024)
        factors = [(1000003, 1), (1000033, 2)]
        assert divisors(1000003 * 1000033**2) == divisors_from_factors(factors)

    def test_rho_budget_names_the_cofactor(self, monkeypatch):
        monkeypatch.setattr(arith, "RHO_STEPS", 64)
        with pytest.raises(CapacityError, match=r"^cannot factor 1000036000099: .* 64 steps$"):
            divisors(2**3 * 5 * 1000003 * 1000033)
        # a prime cofactor above 997^2 spends none of the budget
        assert divisors(6 * 1000003) == divisors_from_factors([(2, 1), (3, 1), (1000003, 1)])

    def test_rho_budget_is_weighted_by_cofactor_size(self, monkeypatch):
        # a step on a cofactor above 128 bits is charged its cost in steps on
        # 128 bits: a product of two 64-bit primes gets the whole budget, one
        # of two 300-digit primes (1987 bits, weight 41) gets 4096 // 41
        monkeypatch.setattr(arith, "RHO_STEPS", 4096)
        for p, q, steps in [(2**64 - 59, 2**64 - 83, 4096),
                            (10**299 + 669, 10**299 + 2721, 99)]:
            with pytest.raises(CapacityError, match=rf"^cannot factor {p * q}: .* {steps} steps$"):
                divisors(p * q)


class TestIsPrime:
    @pytest.mark.parametrize("n,expected", [(53, True), (1, False), (60, False), (2, True)])
    def test_examples(self, n, expected):
        assert is_prime(n) is expected

    def test_matches_divisor_count(self):
        brute = brute_divisor_lists(10_000)
        for n in range(1, 10_001):
            assert is_prime(n) == (len(brute[n]) == 2)


class TestTriangular:
    @pytest.mark.parametrize("m,expected", [(10, 45), (0, 0), (1, 0), (13, 78)])
    def test_examples(self, m, expected):
        assert triangular(m) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            triangular(-1)

    def test_difference_identity(self):
        for m in range(0, 10_001):
            assert triangular(m + 1) - triangular(m) == m


class TestHighlyComposite:
    def test_examples(self):
        assert is_highly_composite(60)
        assert is_highly_composite(1)
        assert not is_highly_composite(50)

    def test_50_loses_to_48(self):
        # d(48) = 10 >= d(50) = 6, so 50 is not a record holder
        count = lambda n: sum(1 for d in range(1, n + 1) if n % d == 0)
        assert count(48) == 10
        assert count(50) == 6

    def test_matches_record_scan(self):
        brute = brute_divisor_lists(10_000)
        best = 0
        expected = set()
        for n in range(1, 10_001):
            if len(brute[n]) > best:
                expected.add(n)
                best = len(brute[n])
        got = {n for n in range(1, 10_001) if is_highly_composite(n)}
        assert got == expected

    def test_ties_do_not_qualify(self):
        # 3 has two divisors, same as 2: a tie, not a new record
        assert not is_highly_composite(3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_highly_composite(0)
        # no upper limit: values past 10^4 are judged too
        assert is_highly_composite(10_080)
        assert not is_highly_composite(10_001)

    def test_exponent_rule_matches_generator(self):
        records = set(highly_composite_numbers(2 * 10**5))
        for n in range(1, 2 * 10**5 + 1):
            assert is_highly_composite(n) == (n in records), n

    def test_every_record_to_10_to_12_survives(self):
        # 4 = 2^2 and 36 = 2^2 * 3^2 must pass p^((a+1)//2) <= q with a = 2
        records = highly_composite_numbers(10**12)
        assert {4, 36} <= set(records)
        assert all(is_highly_composite(n) for n in records)

    @pytest.mark.parametrize("n", [2**200, 3 * 2**200, 10**100, 2**61 - 1])
    def test_huge_inputs_rejected_in_small_memory(self, n):
        # the generator alone is killed for memory at 10^100
        tracemalloc.start()
        try:
            answer = is_highly_composite(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer is False
        assert peak < 2**20

    def test_survivor_check_keeps_no_candidate_list(self):
        # the largest HCN <= 10^18 passes the exponent rule; its candidates
        # below it are compared one at a time (a stored list peaked at 4.5 MB)
        tracemalloc.start()
        try:
            answer = is_highly_composite(897_612_484_786_617_600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer is True
        assert peak < 2**19


class TestHighlyCompositeNumbers:
    def test_matches_divisor_count_sieve(self):
        # strict records of tau from a paired-divisor sieve: each d <= sqrt(n)
        # counts itself and its cofactor n // d
        limit = 10**6
        tau = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, isqrt(limit) + 1):
            tau[d * d] += 1
            tau[d * d + d :: d] += 2
        best_below = np.maximum.accumulate(tau)
        records = [1] + (np.nonzero(tau[2:] > best_below[1:-1])[0] + 2).tolist()
        assert highly_composite_numbers(limit) == records

    @pytest.mark.parametrize("exp,count", [(7, 47), (12, 95), (18, 156)])
    def test_counts(self, exp, count):
        # OEIS A002182
        assert len(highly_composite_numbers(10**exp)) == count

    def test_small_limits(self):
        assert highly_composite_numbers(0) == []
        assert highly_composite_numbers(1) == [1]
