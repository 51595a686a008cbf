import tracemalloc

import numpy as np
import pytest

from baskets.arith import build_sieve
from baskets.census import classify, perfect_values
from baskets.solver import solve
from baskets.sweep import (
    MASK_BLOCK,
    SweepConfig,
    SweepData,
    _floor_primes,
    _write_series,
    compute_records,
    emit_datasets,
    run_sweep,
)

from .conftest import read_series


def reference_csv(ns, n_max) -> bytes:
    """The N,nmax file for the given rows, one f-string per row."""
    lines = ["N,nmax\n"] + [f"{n},{m}\n" for n, m in zip(ns.tolist(), n_max.tolist())]
    return "".join(lines).encode("ascii")


def reference_datasets(data, limit) -> dict[str, bytes]:
    """Every dataset file for a sweep to `limit`, by name, at default strides."""
    views = [(min(limit, 10_000), 10, ("nmax_sampled.csv", "nmax_perfect.csv",
                                        "nmax_primes_10k.csv"))]
    if limit > 10_000:
        views.append((limit, 997, ("nmax_1m_sampled.csv", "nmax_1m_perfect.csv",
                                   "nmax_primes_1m.csv")))
    files = {}
    for view_limit, stride, names in views:
        upto = view_limit + 1
        series = (
            np.arange(stride, upto, stride),
            np.array([n for n, _ in perfect_values(view_limit)], dtype=np.int64),
            np.flatnonzero(data.n_max[2:upto] == 1) + 2,
        )
        for name, ns in zip(names, series):
            files[name] = reference_csv(ns, data.n_max[ns])
    return files


class TestConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SweepConfig(limit=0, output_dir=tmp_path)
        with pytest.raises(ValueError):
            SweepConfig(limit=10, output_dir=tmp_path, stride=0)
        with pytest.raises(ValueError):
            SweepConfig(limit=10, output_dir=tmp_path, thread_count=0)


class TestComputeRecords:
    def test_matches_single_n_path(self):
        data = compute_records(2000)
        primes = set(_floor_primes(data.n_max, 2000).tolist()) | {2, 3}
        perfect = {n for n, _ in perfect_values(2000)}
        for n in range(1, 2001):
            solution = solve(n)
            flags = classify(solution)
            assert data.n_max[n] == solution.n_max, n
            assert (n in primes) == flags.prime, n
            assert (n in perfect) == flags.perfect, n

    def test_thread_counts_agree(self):
        base = compute_records(20_000, thread_count=1)
        for threads in (2, 4, 8):
            other = compute_records(20_000, thread_count=threads)
            assert np.array_equal(base.n_max, other.n_max)

    def test_random_sample_consistency_at_million(self):
        import random

        data = compute_records(1_000_000)
        primes = set(_floor_primes(data.n_max, 1_000_000).tolist()) | {2, 3}
        perfect = {n for n, _ in perfect_values(1_000_000)}
        rng = random.Random(20240601)
        for n in rng.sample(range(1, 1_000_001), 1000):
            solution = solve(n)
            flags = classify(solution)
            assert data.n_max[n] == solution.n_max, n
            assert (n in primes) == flags.prime, n
            assert (n in perfect) == flags.perfect, n

    def test_lean_columns_at_million(self):
        # one uint16 column: 2 bytes per N, and no whole-range bool, int64 or
        # float64 temporary
        tracemalloc.start()
        try:
            data = compute_records(1_000_000, thread_count=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert data.n_max.dtype == np.uint16
        assert peak <= 2.5 * 1_000_000

    @pytest.mark.parametrize("limit", [MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1,
                                       MASK_BLOCK + 2, 3 * MASK_BLOCK + 5])
    def test_masks_across_block_edges(self, limit):
        # the prime scan runs in blocks from N = 2: it equals one whole-range scan
        data = compute_records(limit)
        primes = _floor_primes(data.n_max, limit)
        assert np.array_equal(primes, np.flatnonzero(data.n_max[2:] == 1) + 2)
        perfect = perfect_values(limit)
        assert [int(data.n_max[n]) for n, _ in perfect] == [k for _, k in perfect]

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

    def test_primes_series_matches_independent_sieve(self, tmp_path):
        # the series is read off n_max; a sieve of Eratosthenes is the arbiter
        limit = 2_000_000
        emit_datasets(compute_records(limit), SweepConfig(limit=limit, output_dir=tmp_path))
        rows = read_series(tmp_path / "nmax_primes_1m.csv")
        expected = np.flatnonzero(build_sieve(limit).prime[5:]) + 5
        assert [n for n, _ in rows] == expected.tolist()

    def test_file_dialect(self, tmp_path):
        config = SweepConfig(limit=50, output_dir=tmp_path, stride=13)
        emit_datasets(compute_records(50), config)
        text = (tmp_path / "nmax_sampled.csv").read_text()
        assert text.startswith("N,nmax\n")
        assert text.endswith("\n")
        assert '"' not in text and "\r" not in text

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 5, 6, 10_000, 10_001, 2_000_000])
    def test_bytes_match_reference_formatter(self, tmp_path, limit):
        # 1-6: series of no rows (header only) or one row; 10^4 and 10^4 + 1: the
        # edge between the two views; 2*10^6: 148,931 prime rows, three blocks
        data = compute_records(limit)
        paths = emit_datasets(data, SweepConfig(limit=limit, output_dir=tmp_path))
        written = {p.name: p.read_bytes() for p in paths}
        assert written == reference_datasets(data, limit)

    @pytest.mark.parametrize("rows", [0, 1, MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1])
    def test_series_formatter(self, tmp_path, rows):
        # N from 0 to past 2^32, so widths change inside and between blocks
        ns = np.arange(rows, dtype=np.int64) ** 2
        n_max = np.resize(np.array([0, 9, 10, 99, 100, 65535], dtype=np.uint16), rows)
        path = tmp_path / "series.csv"
        _write_series(path, ns, n_max)
        assert path.read_bytes() == reference_csv(ns, n_max)
        assert list(tmp_path.iterdir()) == [path]

    def test_empty_records_rejected(self, tmp_path):
        empty = SweepData(0, np.zeros(1, dtype=np.uint16))
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
        phases = summary.phase_seconds
        assert set(phases) == {"compute_records", "emit_datasets"}
        assert all(seconds >= 0 for seconds in phases.values())
        assert sum(phases.values()) <= summary.elapsed_seconds

    @pytest.mark.parametrize("limit,pi", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3),
                                          (10_000, 1229)])
    def test_prime_count_is_pi(self, tmp_path, limit, pi):
        assert run_sweep(SweepConfig(limit=limit, output_dir=tmp_path)).prime_count == pi

    def test_byte_identical_across_thread_counts(self, tmp_path):
        outputs = {}
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            run_sweep(SweepConfig(limit=30_000, output_dir=out, thread_count=threads))
            outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert outputs[1] == outputs[3]
