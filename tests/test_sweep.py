import numpy as np
import pytest

from baskets.arith import build_sieve
from baskets.census import classify, perfect_values
from baskets.solver import solve
from baskets.sweep import (
    SweepConfig,
    SweepData,
    compute_records,
    emit_datasets,
    run_sweep,
)

from .conftest import read_series


class TestConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SweepConfig(limit=0, output_dir=tmp_path)
        with pytest.raises(ValueError):
            SweepConfig(limit=10, output_dir=tmp_path, stride=0)
        with pytest.raises(ValueError):
            SweepConfig(limit=10, output_dir=tmp_path, thread_count=0)


class TestComputeRecords:
    def test_single_record(self):
        data = compute_records(1)
        assert len(data) == 1
        record = data.record(1)
        assert (record.n_input, record.n_max) == (1, 1)

    def test_matches_single_n_path(self):
        data = compute_records(2000)
        for n in range(1, 2001):
            record = data.record(n)
            solution = solve(n)
            flags = classify(solution)
            assert record.n_max == solution.n_max, n
            assert record.flags == flags, n

    def test_record_bounds(self):
        data = compute_records(10)
        with pytest.raises(ValueError):
            data.record(0)
        with pytest.raises(ValueError):
            data.record(11)

    def test_records_iterator(self):
        data = compute_records(50)
        records = list(data.records())
        assert len(records) == 50
        assert [r.n_input for r in records] == list(range(1, 51))

    def test_undersized_sieve_rejected(self):
        with pytest.raises(ValueError):
            compute_records(100, sieve=build_sieve(50))

    def test_thread_counts_agree(self):
        base = compute_records(20_000, thread_count=1)
        for threads in (2, 4, 8):
            other = compute_records(20_000, thread_count=threads)
            assert np.array_equal(base.n_max, other.n_max)

    def test_random_sample_consistency_at_million(self):
        import random

        data = compute_records(1_000_000)
        rng = random.Random(20240601)
        for n in rng.sample(range(1, 1_000_001), 1000):
            record = data.record(n)
            solution = solve(n)
            assert record.n_max == solution.n_max, n
            assert record.flags == classify(solution), n

    def test_prime_floor_density_10k(self):
        data = compute_records(10_000)
        floor_count = int((data.n_max[1:] == 1).sum())
        # independent boolean sieve
        composite = np.zeros(10_001, dtype=bool)
        composite[:2] = True
        for p in range(2, 101):
            if not composite[p]:
                composite[p * p :: p] = True
        primes_from_5 = int((~composite[5:]).sum())
        assert floor_count == 1 + primes_from_5  # N=1 plus every prime >= 5


class TestEmitDatasets:
    def test_small_limit_writes_three_files(self, tmp_path):
        config = SweepConfig(limit=200, output_dir=tmp_path, stride=1)
        data = compute_records(200)
        paths = emit_datasets(data, config)
        assert [p.name for p in paths] == [
            "nmax_sampled.csv", "nmax_perfect.csv", "nmax_primes_10k.csv",
        ]

    def test_large_limit_writes_six_files(self, tmp_path):
        config = SweepConfig(limit=10_001, output_dir=tmp_path)
        paths = emit_datasets(compute_records(10_001), config)
        assert [p.name for p in paths] == [
            "nmax_sampled.csv", "nmax_perfect.csv", "nmax_primes_10k.csv",
            "nmax_1m_sampled.csv", "nmax_1m_perfect.csv", "nmax_primes_1m.csv",
        ]

    def test_sampled_series_contents(self, tmp_path):
        config = SweepConfig(limit=500, output_dir=tmp_path, stride=7)
        emit_datasets(compute_records(500), config)
        rows = read_series(tmp_path / "nmax_sampled.csv")
        assert [n for n, _ in rows] == list(range(7, 501, 7))
        for n, n_max in rows:
            assert n_max == solve(n).n_max

    def test_default_stride_is_ten_for_small_view(self, tmp_path):
        config = SweepConfig(limit=500, output_dir=tmp_path)
        emit_datasets(compute_records(500), config)
        rows = read_series(tmp_path / "nmax_sampled.csv")
        assert [n for n, _ in rows] == list(range(10, 501, 10))

    def test_perfect_series_complete_and_unsampled(self, tmp_path):
        config = SweepConfig(limit=9000, output_dir=tmp_path, stride=1000)
        emit_datasets(compute_records(9000), config)
        rows = read_series(tmp_path / "nmax_perfect.csv")
        assert rows == perfect_values(9000)

    def test_primes_series_is_floor_only(self, tmp_path):
        config = SweepConfig(limit=200, output_dir=tmp_path)
        emit_datasets(compute_records(200), config)
        rows = read_series(tmp_path / "nmax_primes_10k.csv")
        assert all(n_max == 1 for _, n_max in rows)
        assert 2 not in {n for n, _ in rows} and 3 not in {n for n, _ in rows}
        assert rows[0] == (5, 1) and rows[-1] == (199, 1)

    def test_file_dialect(self, tmp_path):
        config = SweepConfig(limit=50, output_dir=tmp_path, stride=13)
        emit_datasets(compute_records(50), config)
        text = (tmp_path / "nmax_sampled.csv").read_text()
        assert text.startswith("N,nmax\n")
        assert text.endswith("\n")
        assert '"' not in text and "\r" not in text

    def test_empty_records_rejected(self, tmp_path):
        empty = SweepData(0, *(np.zeros(1, dtype=np.int64) for _ in range(5)))
        config = SweepConfig(limit=1, output_dir=tmp_path)
        with pytest.raises(ValueError):
            emit_datasets(empty, config)
        assert list(tmp_path.iterdir()) == []

    def test_undersized_data_rejected(self, tmp_path):
        config = SweepConfig(limit=300, output_dir=tmp_path)
        with pytest.raises(ValueError):
            emit_datasets(compute_records(200), config)

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        config = SweepConfig(limit=50, output_dir=tmp_path)
        data = compute_records(50)

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("baskets.sweep.os.replace", broken_replace)
        with pytest.raises(OSError) as err:
            emit_datasets(data, config)
        assert "nmax_sampled.csv" in str(err.value)  # offending path is named
        assert list(tmp_path.iterdir()) == []  # neither final file nor temp left

    def test_output_dir_collision_reports_io_error(self, tmp_path):
        in_the_way = tmp_path / "not_a_dir"
        in_the_way.write_text("")
        config = SweepConfig(limit=10, output_dir=in_the_way)
        with pytest.raises(OSError):
            emit_datasets(compute_records(10), config)


class TestRunSweep:
    def test_summary_counts(self, tmp_path):
        summary = run_sweep(SweepConfig(limit=5000, output_dir=tmp_path))
        assert summary.record_count == 5000
        assert summary.perfect_count == len(perfect_values(5000))
        assert summary.prime_count == 669  # primes up to 5000
        assert summary.elapsed_seconds > 0
        assert len(summary.paths) == 3

    def test_byte_identical_across_thread_counts(self, tmp_path):
        outputs = {}
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            run_sweep(SweepConfig(limit=30_000, output_dir=out, thread_count=threads))
            outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert outputs[1] == outputs[3]
