import math

import pytest

from baskets.arith import divisors, triangular
from baskets.solver import (
    InfeasibleError,
    PearDistribution,
    canonical_distribution,
    feasible,
    pear_bound,
    solve,
)


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
            for d in divisors(n).divisors:
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

        data = compute_records(100_000)
        for n in range(1, 100_001):
            bound = pear_bound(n)
            assert data.n_max[n] <= bound < math.sqrt(2 * n) + 1
