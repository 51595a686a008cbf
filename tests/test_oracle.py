from baskets import oracle
from baskets.oracle import (
    _largest_reachable_divisor,
    brute_force_n_max,
    reachable_basket_counts,
    verify_range,
)
from baskets.sweep import compute_records


class TestReachableBasketCounts:
    def test_small_rows(self):
        # values {0,1,2}, sums kept up to 2: one value reaches 0..2, two
        # reach 1..2, and three (sum 3) reach nothing, so there is no row 3
        assert reachable_basket_counts(2) == [0b1, 0b111, 0b110]

    def test_prefix_property(self):
        # values above N only reach sums above N, so one table built for 400
        # answers every smaller N exactly as that N's own table does
        rows = reachable_basket_counts(400)
        for n in range(1, 301):
            assert _largest_reachable_divisor(n, rows) == brute_force_n_max(n), n


class TestVerifyRange:
    def test_one_table_per_call(self, monkeypatch):
        built = []

        def counting(n):
            built.append(n)
            return reachable_basket_counts(n)

        monkeypatch.setattr(oracle, "reachable_basket_counts", counting)
        assert verify_range(300) == []
        assert built == [300]

    def test_reports_disagreement(self, monkeypatch):
        real_solve = oracle.solve

        class Wrong:
            n_max = 7

        monkeypatch.setattr(
            oracle, "solve", lambda n: Wrong if n == 60 else real_solve(n)
        )
        assert verify_range(100) == [(60, 10, 7)]

    def test_sweep_batch_path_matches_oracle(self):
        limit = 10**4
        rows = reachable_basket_counts(limit)
        expected = [_largest_reachable_divisor(n, rows) for n in range(1, limit + 1)]
        assert compute_records(limit)[1:].tolist() == expected
