import dataclasses
import math
import tracemalloc

import pytest

from baskets.arith import divisors, triangular
from baskets.census import classify
from baskets.solver import (
    InfeasibleError,
    PearDistribution,
    Solution,
    canonical_distribution,
    feasible,
    max_baskets,
    pear_bound,
    solve,
)

from .conftest import largest_basket_count


class TestPearBound:
    def test_sixty(self):
        assert pear_bound(60) == pytest.approx(11.47, abs=0.005)

    def test_exact_integer_bounds(self):
        assert pear_bound(3) == 3.0
        assert pear_bound(10) == 5.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            pear_bound(0)


class TestFeasible:
    @pytest.mark.parametrize("n,n_input,expected", [
        (5, 10, True),    # equality case
        (11, 55, True),   # equality case
        (12, 60, False),  # 66 > 60
        (1, 1, True),
    ])
    def test_examples(self, n, n_input, expected):
        assert feasible(n, n_input) is expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            feasible(0, 10)
        with pytest.raises(ValueError):
            feasible(3, 0)


class TestMaxBaskets:
    def test_matches_downward_search_to_10k(self):
        for n in range(1, 10_001):
            assert max_baskets(n) == largest_basket_count(n), n

    def test_edges_beyond_float_range(self):
        # T(10^k) for k > 15 has no exact float; the bound must stay exact
        for k in range(1, 201):
            n = 10**k
            t = triangular(n)
            assert (max_baskets(t - 1), max_baskets(t), max_baskets(t + 1)) == (n - 1, n, n)

    @pytest.mark.parametrize("n_input,bound,n_max", [(10, 5, 5), (45, 10, 9), (55, 11, 11)])
    def test_solve_takes_largest_divisor_within_bound_at_ties(self, n_input, bound, n_max):
        assert max_baskets(n_input) == bound
        assert solve(n_input).n_max == max(d for d in divisors(n_input) if d <= bound) == n_max


class TestCanonicalDistribution:
    @pytest.mark.parametrize("n,n_input,expected", [
        (10, 60, (0, 1, 2, 3, 4, 5, 6, 7, 8, 24)),
        (13, 78, tuple(range(13))),
        (9, 45, (0, 1, 2, 3, 4, 5, 6, 7, 17)),
        (1, 7, (7,)),
    ])
    def test_examples(self, n, n_input, expected):
        assert canonical_distribution(n, n_input).counts == expected

    def test_infeasible_pair(self):
        with pytest.raises(InfeasibleError):
            canonical_distribution(12, 60)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            PearDistribution((3, 3))
        with pytest.raises(ValueError):
            PearDistribution((5, 2))
        with pytest.raises(ValueError):
            PearDistribution((-1, 2))
        with pytest.raises(ValueError):
            PearDistribution(())


class TestSolve:
    def test_worked_sixty(self):
        s = solve(60)
        assert (s.n_max, s.apples_per_basket, s.surplus) == (10, 6, 15)
        assert s.canonical.counts == (0, 1, 2, 3, 4, 5, 6, 7, 8, 24)

    @pytest.mark.parametrize("n,n_max", [(17, 1), (1, 1), (200, 20)])
    def test_examples(self, n, n_max):
        assert solve(n).n_max == n_max

    def test_single_basket_distribution(self):
        assert solve(1).canonical.counts == (1,)
        assert solve(17).canonical.counts == (17,)

    def test_exact_ties_use_integer_comparison(self):
        # boundary cases where the pear constraint is an exact equality
        assert solve(10).n_max == 5
        assert solve(45).n_max == 9
        assert solve(55).n_max == 11

    def test_canonical_is_derived_not_stored(self):
        assert "canonical" not in {f.name for f in dataclasses.fields(Solution)}
        assert solve(60).canonical.counts == (0, 1, 2, 3, 4, 5, 6, 7, 8, 24)

    def test_largest_hcn_below_10_to_12_stays_small(self):
        # n_max = 1,385,670 here: a stored canonical list peaks near 63 MB
        tracemalloc.start()
        try:
            flags = classify(solve(963_761_198_400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flags.near_perfect and flags.highly_composite
        assert peak < 2 * 2**20

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            solve(0)
        with pytest.raises(ValueError):
            solve(-60)

    def test_invariants_to_5000(self):
        for n in range(1, 5001):
            s = solve(n)
            assert n % s.n_max == 0
            assert s.apples_per_basket == n // s.n_max
            assert feasible(s.n_max, n)
            for d in divisors(n):
                if d > s.n_max:
                    assert triangular(d) > n
            assert s.surplus == n - triangular(s.n_max)
            assert s.efficiency == s.n_max / s.pear_bound
            counts = s.canonical.counts
            assert len(counts) == s.n_max
            assert all(b > a for a, b in zip(counts, counts[1:]))
            assert counts[0] >= 0
            assert sum(counts) == n

    def test_envelope_to_100k(self):
        from baskets.sweep import compute_records

        n_max = compute_records(100_000)
        for n in range(1, 100_001):
            bound = pear_bound(n)
            assert n_max[n] <= bound < math.sqrt(2 * n) + 1
