import time

import numpy as np
import pytest

from baskets.arith import is_prime, triangular
from baskets.census import (
    PearDistribution,
    classify,
    count_distributions,
    enumerate_distributions,
    perfect_values,
)
from baskets.solver import InfeasibleError, solve
from baskets.sweep import compute_records

from .conftest import distinct_sets, largest_basket_count


class TestClassify:
    def test_perfect(self):
        flags = classify(solve(36))
        assert flags["perfect"] and flags["display_class"] == "perfect"

    def test_prime(self):
        flags = classify(solve(53))
        assert flags["prime"] and flags["display_class"] == "prime"

    def test_near_perfect(self):
        solution = solve(50)
        flags = classify(solution)
        assert flags["near_perfect"] and flags["display_class"] == "near_perfect"
        assert round(solution.efficiency, 2) == 0.95

    def test_perfect_and_prime_both_set(self):
        flags = classify(solve(3))
        assert flags["perfect"] and flags["prime"]
        assert flags["display_class"] == "perfect"

    def test_highly_composite_is_lowest_priority(self):
        flags = classify(solve(60))
        assert flags["highly_composite"] and not flags["near_perfect"]
        assert flags["display_class"] == "highly_composite"

    def test_plain(self):
        flags = classify(solve(9))
        assert flags == {"perfect": False, "prime": False, "near_perfect": False,
                         "highly_composite": False, "display_class": "plain"}

    def test_exact_efficiency_one_is_perfect_not_near(self):
        flags = classify(solve(55))
        assert flags["perfect"] and not flags["near_perfect"]

    def test_efficiency_exactly_point_nine_not_near(self):
        # N=45 has bound exactly 10.0, so efficiency is exactly 0.9
        solution = solve(45)
        assert solution.efficiency == 0.9
        assert not classify(solution)["near_perfect"]

    def test_prime_matches_trial_division(self, monkeypatch):
        # prime is read off n_max; is_prime's trial division is the arbiter.
        # The highly composite flag is stubbed out: it is not under test and
        # would take most of the time.
        monkeypatch.setattr("baskets.census.is_highly_composite", lambda n: False)
        for n in [*range(1, 20_001), 2047, 2_147_483_647, 3_215_031_751]:
            assert classify(solve(n))["prime"] == is_prime(n), n

    def test_near_perfect_integer_rule_matches_float(self, monkeypatch):
        # classify decides near-perfect as 20n - 9 > 0 and (20n - 9)^2 >
        # 81(1 + 8N); it must agree with efficiency > 0.9 at every N <= 10^6,
        # then through classify at the 200 N nearest the threshold and at
        # N = 45 (exactly 0.9), 50 and 98.  The highly composite flag is
        # stubbed out as above.
        monkeypatch.setattr("baskets.census.is_highly_composite", lambda n: False)
        ns = np.arange(10**6 + 1, dtype=np.int64)
        n_max = compute_records(10**6).astype(np.int64)
        efficiency = n_max[1:] / ((1.0 + np.sqrt(1.0 + 8.0 * ns[1:])) / 2.0)
        lead = 20 * n_max[1:] - 9
        exact = (lead > 0) & (lead * lead > 81 * (1 + 8 * ns[1:]))
        assert np.array_equal(exact, efficiency > 0.9)
        nearest = np.argsort(np.abs(efficiency - 0.9), kind="stable")[:200] + 1
        for n in [*nearest.tolist(), 45, 50, 98]:
            solution = solve(n)
            flags = classify(solution)
            assert flags["near_perfect"] == (solution.efficiency > 0.9 and not flags["perfect"]), n

    def test_perfect_never_decided_by_float(self):
        # every perfect flag must satisfy the exact integer identity
        for n in range(1, 2001):
            flags = classify(solve(n))
            s = solve(n)
            assert flags["perfect"] == (2 * n == s.n_max * (s.n_max - 1) and s.n_max % 2 == 1)


def reference_ways(n, surplus):
    """Partitions of every total up to surplus into parts of size at most n,
    by the ascending double loop: one bytecode add per cell."""
    ways = [0] * (surplus + 1)
    ways[0] = 1
    for part in range(1, min(n, surplus) + 1):
        for total in range(part, surplus + 1):
            ways[total] += ways[total - part]
    return ways


class TestCountDistributions:
    def test_tight_case_unique(self):
        # n=1 is excluded: its tight sum would be 0, below the puzzle domain
        for n in (2, 5, 9, 11, 20):
            assert count_distributions(n, triangular(n)) == 1

    def test_single_basket(self):
        for n_input in (1, 7, 60, 12345):
            assert count_distributions(1, n_input) == 1

    def test_small_examples(self):
        assert count_distributions(2, 3) == 2    # {0,3}, {1,2}
        assert count_distributions(3, 6) == 3    # {0,1,5}, {0,2,4}, {1,2,3}

    def test_matches_brute_force_to_25(self):
        for n_input in range(1, 26):
            n = 1
            while triangular(n) <= n_input:
                expected = sum(1 for _ in distinct_sets(n_input, n))
                assert count_distributions(n, n_input) == expected, (n, n_input)
                n += 1

    def test_monotone_in_surplus(self):
        for n in range(1, 9):
            previous = None
            for n_input in range(triangular(n), triangular(n) + 40):
                if n_input < 1:
                    continue
                count = count_distributions(n, n_input)
                if previous is not None:
                    assert count >= previous
                previous = count

    def test_large_count_is_exact_bignum(self):
        # python ints never wrap; spot-check a count beyond 64 bits
        assert count_distributions(300, triangular(300) + 5000) > 2**64

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            count_distributions(12, 60)

    def test_fields(self):
        assert count_distributions(10, 60) == 164

    def test_matches_reference_loop(self):
        # every small (n, S); S = p^2 - 1, p^2, p^2 + 1 at n around p, where
        # the update switches from vector adds per block to running sums per
        # residue class; and the sizes the benchmark's counts reach
        for n in range(1, 31):
            for surplus, expected in enumerate(reference_ways(n, 120)):
                if triangular(n) + surplus >= 1:
                    assert count_distributions(n, triangular(n) + surplus) == expected, (n, surplus)
        rows = [(n, surplus) for p in (2, 3, 10, 31) for surplus in (p * p - 1, p * p, p * p + 1)
                for n in (p - 1, p, p + 1, 2 * p, surplus)]
        rows += [(84, 15523), (105, 15053), (95, 14906), (183, 27674)]
        for n, surplus in rows:
            expected = reference_ways(n, surplus)[-1]
            assert count_distributions(n, triangular(n) + surplus) == expected, (n, surplus)


class TestCanonicalDistribution:
    """The canonical list {0, 1, ..., n-2, (n-1)+S} is the enumeration's first value."""

    @pytest.mark.parametrize("n,n_input,expected", [
        (10, 60, (0, 1, 2, 3, 4, 5, 6, 7, 8, 24)),
        (13, 78, tuple(range(13))),
        (9, 45, (0, 1, 2, 3, 4, 5, 6, 7, 17)),
        (1, 7, (7,)),
    ])
    def test_examples(self, n, n_input, expected):
        assert enumerate_distributions(n, n_input, 1)[0].counts == expected

    def test_infeasible_pair(self):
        with pytest.raises(InfeasibleError):
            enumerate_distributions(12, 60, 1)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            PearDistribution((3, 3))
        with pytest.raises(ValueError):
            PearDistribution((5, 2))
        with pytest.raises(ValueError):
            PearDistribution((-1, 2))
        with pytest.raises(ValueError):
            PearDistribution(())

    def test_validation_of_long_counts(self):
        counts = tuple(range(700))
        PearDistribution(counts)
        for bad in ((*counts[:-1], counts[-2]),  # a tie in the last pair
                    (*counts[:350], counts[349] - 1, *counts[351:]),  # a descent mid-way
                    (-1, *counts[1:])):
            with pytest.raises(ValueError):
                PearDistribution(bad)


class TestEnumerateDistributions:
    def test_pair_example(self):
        got = [d.counts for d in enumerate_distributions(2, 3, 10)]
        assert got == [(0, 3), (1, 2)]

    def test_tight_case(self):
        got = [d.counts for d in enumerate_distributions(5, 10, 10)]
        assert got == [(0, 1, 2, 3, 4)]

    def test_truncation_and_full_count(self):
        first3 = [d.counts for d in enumerate_distributions(10, 60, 3)]
        assert len(first3) == 3
        assert first3[0] == (0, 1, 2, 3, 4, 5, 6, 7, 8, 24)
        everything = enumerate_distributions(10, 60, 10**9)
        assert len(everything) == count_distributions(10, 60)
        assert [d.counts for d in everything[:3]] == first3

    def test_lexicographic_and_complete_to_20(self):
        for n_input in range(1, 21):
            n = 1
            while triangular(n) <= n_input:
                got = [d.counts for d in enumerate_distributions(n, n_input, 10**9)]
                assert got == list(distinct_sets(n_input, n)), (n, n_input)
                n += 1

    def test_canonical_is_first(self):
        for n_input in (7, 10, 17, 45, 60, 97):  # 17 is prime: one basket
            s = solve(n_input)
            first = enumerate_distributions(s.n_max, n_input, 1)[0]
            assert first.counts == (*range(s.n_max - 1), s.n_max - 1 + s.surplus)

    def test_sums_and_distinctness(self):
        for dist in enumerate_distributions(4, 30, 10**9):
            assert sum(dist.counts) == 30
            assert len(set(dist.counts)) == 4

    def test_matches_exhaustive_listing(self):
        for n in range(1, 7):
            for surplus in range(25):
                n_input = triangular(n) + surplus
                if n_input < 1:
                    continue
                got = [d.counts for d in enumerate_distributions(n, n_input, 10**9)]
                assert got == list(distinct_sets(n_input, n)), (n, n_input)
                assert len(got) == count_distributions(n, n_input)

    def test_limit_above_count_stops_at_the_count(self):
        started = time.perf_counter()
        got = enumerate_distributions(40, triangular(40) + 10, 43)
        elapsed = time.perf_counter() - started
        assert len(got) == 42 == count_distributions(40, triangular(40) + 10)
        assert elapsed < 2.0, f"whole tree took {elapsed:.2f}s"

    def test_deep_enumeration_has_no_recursion_limit(self):
        (first,) = enumerate_distributions(1250, 10**6, 1)
        assert first.counts == (*range(1249), 10**6 - triangular(1249))

    @pytest.mark.parametrize("n", [631, 702, 794])
    @pytest.mark.parametrize("surplus", [30, 35, 40])
    def test_long_successor_runs_at_wide_n(self, n, surplus):
        n_input = triangular(n) + surplus
        got = [d.counts for d in enumerate_distributions(n, n_input, 1000)]
        assert len(got) == 1000
        assert got[0] == (*range(n - 1), n_input - triangular(n - 1))
        assert all(a < b for a, b in zip(got, got[1:]))
        for counts in got:
            assert len(counts) == n and sum(counts) == n_input
            assert counts[0] >= 0 and all(a < b for a, b in zip(counts, counts[1:]))

    def test_errors(self):
        with pytest.raises(InfeasibleError):
            enumerate_distributions(12, 60, 5)
        with pytest.raises(ValueError):
            enumerate_distributions(2, 3, 0)


class TestPerfectValues:
    def test_up_to_200(self):
        assert list(perfect_values(200)) == [
            (3, 3), (10, 5), (21, 7), (36, 9), (55, 11),
            (78, 13), (105, 15), (136, 17), (171, 19),
        ]

    def test_million_count(self):
        assert len(list(perfect_values(1_000_000))) == 706

    def test_matches_brute_force_to_5000(self):
        # every limit, so T(n) - 1, T(n) and T(n) + 1 for each odd and even n <= 100
        pairs = [(n * (n - 1) // 2, n) for n in range(3, 101, 2)]
        for limit in range(1, 5001):
            assert list(perfect_values(limit)) == [(t, n) for t, n in pairs if t <= limit], limit

    @pytest.mark.parametrize("n", [1001, 1002, 44_721, 44_722])
    def test_edges_around_triangular(self, n):
        for limit in (triangular(n) - 1, triangular(n), triangular(n) + 1):
            expected, k = [], 3
            while k * (k - 1) // 2 <= limit:
                expected.append((k * (k - 1) // 2, k))
                k += 2
            assert list(perfect_values(limit)) == expected, limit

    def test_count_at_10_to_12(self):
        # odd n from 3 to m(L) inclusive, m(L) the largest n with T(n) <= L
        assert len(list(perfect_values(10**12))) == (largest_basket_count(10**12) - 1) // 2

    def test_below_smallest(self):
        assert list(perfect_values(2)) == []
        assert list(perfect_values(1)) == []

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            perfect_values(0)

    def test_lazy(self):
        # a list up to 10^18 would hold about 7e8 pairs
        values = perfect_values(10**18)
        assert iter(values) is values
        assert next(values) == (3, 3)
        assert next(values) == (10, 5)

    def test_structure(self):
        values = list(perfect_values(100_000))
        assert values == sorted(values)
        for n_input, n in values:
            assert n % 2 == 1 and n >= 3
            assert n_input == triangular(n)
            assert (n - 1) % 2 == 0  # even-indexed triangular numbers

    def test_matches_classify_to_10k(self):
        expected = {n_input for n_input, _ in perfect_values(10_000)}
        got = {n for n in range(1, 10_001)
               if classify(solve(n))["perfect"]}
        assert got == expected

    def test_perfect_means_unique_distribution(self):
        for n_input, n in perfect_values(10_000):
            s = solve(n_input)
            assert s.n_max == n
            assert s.surplus == 0
            assert count_distributions(n, n_input) == 1


class TestPrimeFloor:
    def test_small_primes_keep_all_baskets(self):
        assert solve(2).n_max == 2
        assert solve(3).n_max == 3

    def test_collapse_from_five_up(self):
        for p in range(5, 10_001):
            if is_prime(p):
                assert solve(p).n_max == 1

    def test_sharp_threshold(self):
        # the collapse starts exactly at 5; nothing special happens at 17
        for p in (5, 7, 11, 13):
            assert solve(p).n_max == 1
