import tracemalloc
from math import isqrt

import numpy as np
import pytest

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
