import dataclasses
import math
import random
import tracemalloc

import pytest

from baskets import solver
from baskets.arith import CapacityError, divisors, triangular
from baskets.census import classify, enumerate_distributions
from baskets.solver import Solution, feasible, max_baskets, pear_bound, solve

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

    def test_past_float_range(self):
        # 8.0 * 10^400 overflows a float; the bound itself is about 1.4e200
        assert pear_bound(10**400) == pytest.approx(1.414213562373095e200, rel=1e-15)

    def test_bound_past_float_range_names_the_limit(self):
        with pytest.raises(ValueError, match="1.6e616"):
            pear_bound(10**700)


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


class TestSolve:
    def test_worked_sixty(self):
        s = solve(60)
        assert (s.n_max, s.apples_per_basket, s.surplus) == (10, 6, 15)
        first = enumerate_distributions(s.n_max, 60, 1)[0]
        assert first.counts == (0, 1, 2, 3, 4, 5, 6, 7, 8, 24)

    @pytest.mark.parametrize("n,n_max", [(17, 1), (1, 1), (200, 20)])
    def test_examples(self, n, n_max):
        assert solve(n).n_max == n_max

    def test_single_basket_distribution(self):
        for n in (1, 17):
            assert enumerate_distributions(solve(n).n_max, n, 1)[0].counts == (n,)

    def test_exact_ties_use_integer_comparison(self):
        # boundary cases where the pear constraint is an exact equality
        assert solve(10).n_max == 5
        assert solve(45).n_max == 9
        assert solve(55).n_max == 11

    def test_canonical_is_derived_not_stored(self):
        assert "canonical" not in {f.name for f in dataclasses.fields(Solution)}
        assert not hasattr(Solution, "canonical")

    def test_largest_hcn_below_10_to_12_stays_small(self):
        # n_max = 1,385,670 here: a stored canonical list peaks near 63 MB
        tracemalloc.start()
        try:
            flags = classify(solve(963_761_198_400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert flags["near_perfect"] and flags["highly_composite"]
        assert peak < 2 * 2**20

    def test_matches_sweep_column(self):
        # the factoriser against the sweep's divisor-multiple fill: every
        # N <= 2*10^5 and 5000 seeded random N <= 10^7
        from baskets.sweep import compute_records

        column = compute_records(10**7)
        low = range(1, 2 * 10**5 + 1)
        assert [solve(n).n_max for n in low] == column[1 : low[-1] + 1].tolist()
        sample = random.Random(2601).sample(range(1, 10**7 + 1), 5000)
        assert [solve(n).n_max for n in sample] == column[sample].tolist()

    def test_past_float_range_fails_before_factoring(self, monkeypatch):
        def unreachable(n):
            raise AssertionError("divisors called")

        monkeypatch.setattr(solver, "divisors", unreachable)
        with pytest.raises(CapacityError, match="pear bound exceeds float range"):
            solve(10**617)

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
            counts = enumerate_distributions(s.n_max, n, 1)[0].counts
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
