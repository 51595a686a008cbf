import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from math import isqrt

import numpy as np
import pytest

from baskets.arith import build_sieve, highly_composite_numbers
from baskets.census import classify, perfect_values
from baskets.solver import max_baskets, solve
from baskets.sweep import (
    MASK_BLOCK,
    _fill_n_max,
    _floor_primes,
    _write_series,
    compute_records,
    emit_datasets,
    run_sweep,
)

from .conftest import largest_basket_count, read_series


def reference_csv(ns, n_max) -> bytes:
    """The N,nmax file for the given rows, one f-string per row."""
    lines = ["N,nmax\n"] + [f"{n},{m}\n" for n, m in zip(ns.tolist(), n_max.tolist())]
    return "".join(lines).encode("ascii")


def modulo_n_max(limit) -> np.ndarray:
    """n_max for every N in [0, limit] by division, not strides: for each N the
    largest d <= m(N) with N % d == 0 (entry 0 is unused)."""
    ns = np.arange(limit + 1, dtype=np.int64)
    largest = largest_basket_count(limit)
    triangles = [d * (d - 1) // 2 for d in range(1, largest + 1)]
    bound = np.searchsorted(triangles, ns, side="right")  # m(N): the d >= 1 with T(d) <= N
    answer = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, largest + 1):
        answer[(ns % d == 0) & (d <= bound)] = d
    return answer


FILL_LIMIT = 200_000


@pytest.fixture(scope="module")
def divided():
    return modulo_n_max(FILL_LIMIT)


def prime_flags(limit) -> np.ndarray:
    """Sieve of Eratosthenes over [0, limit], independent of the package."""
    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    return prime


def reference_datasets(n_max, limit) -> dict[str, bytes]:
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
            np.flatnonzero(n_max[2:upto] == 1) + 2,
        )
        for name, ns in zip(names, series):
            files[name] = reference_csv(ns, n_max[ns])
    return files


# the widest 9-digit value and the values around the uint32 range
DTYPE_EDGES = [999_999_999, 10**9, 2**31 - 1, 2**32 - 1, 2**32, 2**40]


class TestConfig:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="limit"):
            run_sweep(0, tmp_path)
        with pytest.raises(ValueError, match="stride"):
            run_sweep(10, tmp_path, stride=0)
        with pytest.raises(ValueError, match="thread_count"):
            run_sweep(10, tmp_path, thread_count=0)
        assert list(tmp_path.iterdir()) == []


class TestComputeRecords:
    def test_matches_single_n_path(self):
        n_max = compute_records(2000)
        primes = set(_floor_primes(n_max).tolist()) | {2, 3}
        perfect = {n for n, _ in perfect_values(2000)}
        for n in range(1, 2001):
            solution = solve(n)
            flags = classify(solution)
            assert n_max[n] == solution.n_max, n
            assert (n in primes) == flags["prime"], n
            assert (n in perfect) == flags["perfect"], n

    def test_thread_counts_agree(self):
        base = compute_records(20_000, thread_count=1)
        for threads in (2, 4, 8):
            other = compute_records(20_000, thread_count=threads)
            assert np.array_equal(base, other)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_rejected(self, threads):
        # the same rule as run_sweep: None means one worker per CPU
        with pytest.raises(ValueError, match="thread_count"):
            compute_records(10, thread_count=threads)

    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch):
        asked = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                asked.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr("baskets.sweep.ThreadPoolExecutor", RecordingPool)
        n_max = compute_records(64, thread_count=10**9)
        assert len(asked) == 1 and 1 <= asked[0] <= (os.cpu_count() or 1)
        assert np.array_equal(n_max, compute_records(64, thread_count=1))

    @pytest.mark.parametrize("splits", [1, 3, 8])
    def test_fill_is_the_same_for_any_chunking(self, splits):
        # the thread cap keeps compute_records to at most one chunk per CPU,
        # so the chunkings of a larger pool are checked on the fill itself;
        # [1, 20000] crosses the thresholds T(d) = d(d-1)/2 of d up to 200
        limit = 20_000
        n_max = np.zeros(limit + 1, dtype=np.uint16)
        for chunk in np.array_split(np.arange(1, limit + 1), splits):
            lo, hi = int(chunk[0]), int(chunk[-1])
            _fill_n_max(n_max, lo, hi, max_baskets(hi))
        assert np.array_equal(n_max, compute_records(limit, thread_count=1))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fill_matches_division(self, divided, threads):
        # the fill skips the even multiples that a larger divisor overwrites;
        # the reference divides every N by every d
        n_max = compute_records(FILL_LIMIT, thread_count=threads)
        assert np.array_equal(n_max[1:], divided[1:])

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 64, 150, 316])
    def test_fill_ranges_at_the_skip(self, divided, d):
        # d is written at every multiple below T(2d) = d(2d-1) and at the odd
        # ones from there on: ranges that start or end at T(2d) - 1, T(2d) or
        # T(2d) + d meet both slices at their edges
        skip = d * (2 * d - 1)
        for edge in (max(1, skip - 1), skip, skip + d):
            for lo, hi in ((edge, edge), (edge, edge + 5 * d), (max(1, edge - 5 * d), edge)):
                hi = min(hi, FILL_LIMIT)
                n_max = np.zeros(FILL_LIMIT + 1, dtype=np.uint16)
                _fill_n_max(n_max, lo, hi, largest_basket_count(hi))
                assert np.array_equal(n_max[lo : hi + 1], divided[lo : hi + 1]), (lo, hi)
                assert not n_max[:lo].any() and not n_max[hi + 1 :].any(), (lo, hi)

    def test_random_sample_consistency_at_million(self):
        import random

        n_max = compute_records(1_000_000)
        primes = set(_floor_primes(n_max).tolist()) | {2, 3}
        perfect = {n for n, _ in perfect_values(1_000_000)}
        rng = random.Random(20240601)
        for n in rng.sample(range(1, 1_000_001), 1000):
            solution = solve(n)
            flags = classify(solution)
            assert n_max[n] == solution.n_max, n
            assert (n in primes) == flags["prime"], n
            assert (n in perfect) == flags["perfect"], n

    def test_lean_columns_at_million(self):
        # one uint16 column: 2 bytes per N, and no whole-range bool, int64 or
        # float64 temporary
        tracemalloc.start()
        try:
            n_max = compute_records(1_000_000, thread_count=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n_max.dtype == np.uint16
        assert peak <= 2.5 * 1_000_000

    @pytest.mark.parametrize("limit", [MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1,
                                       MASK_BLOCK + 2, 3 * MASK_BLOCK + 5])
    def test_masks_across_block_edges(self, limit):
        # the prime scan runs in blocks from N = 2: it equals one whole-range scan
        n_max = compute_records(limit)
        primes = _floor_primes(n_max)
        assert np.array_equal(primes, np.flatnonzero(n_max[2:] == 1) + 2)
        perfect = list(perfect_values(limit))
        assert [int(n_max[n]) for n, _ in perfect] == [k for _, k in perfect]

    def test_prime_floor_density_10k(self):
        n_max = compute_records(10_000)
        floor_count = int((n_max[1:] == 1).sum())
        primes_from_5 = int(prime_flags(10_000)[5:].sum())
        assert floor_count == 1 + primes_from_5  # N=1 plus every prime >= 5


class TestEmitDatasets:
    def test_small_limit_writes_three_files(self, tmp_path):
        paths = emit_datasets(compute_records(200), tmp_path, stride=1)
        assert [p.name for p in paths] == [
            "nmax_sampled.csv", "nmax_perfect.csv", "nmax_primes_10k.csv",
        ]

    def test_large_limit_writes_six_files(self, tmp_path):
        paths = emit_datasets(compute_records(10_001), tmp_path)
        assert [p.name for p in paths] == [
            "nmax_sampled.csv", "nmax_perfect.csv", "nmax_primes_10k.csv",
            "nmax_1m_sampled.csv", "nmax_1m_perfect.csv", "nmax_primes_1m.csv",
        ]

    def test_sampled_series_contents(self, tmp_path):
        emit_datasets(compute_records(500), tmp_path, stride=7)
        rows = read_series(tmp_path / "nmax_sampled.csv")
        assert [n for n, _ in rows] == list(range(7, 501, 7))
        for n, n_max in rows:
            assert n_max == solve(n).n_max

    def test_default_stride_is_ten_for_small_view(self, tmp_path):
        emit_datasets(compute_records(500), tmp_path)
        rows = read_series(tmp_path / "nmax_sampled.csv")
        assert [n for n, _ in rows] == list(range(10, 501, 10))

    def test_perfect_series_complete_and_unsampled(self, tmp_path):
        emit_datasets(compute_records(9000), tmp_path, stride=1000)
        rows = read_series(tmp_path / "nmax_perfect.csv")
        assert rows == list(perfect_values(9000))

    def test_primes_series_is_floor_only(self, tmp_path):
        emit_datasets(compute_records(200), tmp_path)
        rows = read_series(tmp_path / "nmax_primes_10k.csv")
        assert all(n_max == 1 for _, n_max in rows)
        assert 2 not in {n for n, _ in rows} and 3 not in {n for n, _ in rows}
        assert rows[0] == (5, 1) and rows[-1] == (199, 1)

    def test_primes_series_matches_independent_sieve(self, tmp_path):
        # the series is read off n_max; a sieve of Eratosthenes is the arbiter
        limit = 2_000_000
        emit_datasets(compute_records(limit), tmp_path)
        rows = read_series(tmp_path / "nmax_primes_1m.csv")
        expected = np.flatnonzero(prime_flags(limit)[5:]) + 5
        assert [n for n, _ in rows] == expected.tolist()

    def test_file_dialect(self, tmp_path):
        emit_datasets(compute_records(50), tmp_path, stride=13)
        text = (tmp_path / "nmax_sampled.csv").read_text()
        assert text.startswith("N,nmax\n")
        assert text.endswith("\n")
        assert '"' not in text and "\r" not in text

    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 5, 6, 10_000, 10_001, 2_000_000])
    def test_bytes_match_reference_formatter(self, tmp_path, limit):
        # 1-6: series of no rows (header only) or one row; 10^4 and 10^4 + 1: the
        # edge between the two views; 2*10^6: 148,931 prime rows, three blocks
        n_max = compute_records(limit)
        paths = emit_datasets(n_max, tmp_path)
        written = {p.name: p.read_bytes() for p in paths}
        assert written == reference_datasets(n_max, limit)

    @pytest.mark.parametrize("rows", [0, 1, MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1])
    def test_series_formatter(self, tmp_path, rows):
        # N from 0 to past 2^32, so widths change inside and between blocks
        ns = np.arange(rows, dtype=np.int64) ** 2
        n_max = np.resize(np.array([0, 9, 10, 99, 100, 65535], dtype=np.uint16), rows)
        path = tmp_path / "series.csv"
        _write_series(path, ns, n_max)
        assert path.read_bytes() == reference_csv(ns, n_max)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("values", [[v] for v in DTYPE_EDGES] + [DTYPE_EDGES],
                             ids=[*map(str, DTYPE_EDGES), "all"])
    @pytest.mark.parametrize("at", [7, MASK_BLOCK - 3], ids=["inside", "across"])
    def test_series_formatter_at_the_dtype_switch(self, tmp_path, values, at):
        # digits are worked out in uint32 up to 9 digits and in uint64 past
        # that; six rows from `at` hold one value repeated, or all six, inside
        # the first block or across its edge, so each value widens its block
        ns = np.arange(MASK_BLOCK + 8, dtype=np.int64)
        ns[at : at + 6] = np.resize(values, 6)
        n_max = np.resize(np.array([1, 65535, 10], dtype=np.uint16), len(ns))
        path = tmp_path / "series.csv"
        _write_series(path, ns, n_max)
        assert path.read_bytes() == reference_csv(ns, n_max)

    def test_empty_records_rejected(self, tmp_path):
        for entries in (0, 1):  # no entries, or entry 0 only: the column covers no N
            with pytest.raises(ValueError, match="cover"):
                emit_datasets(np.zeros(entries, dtype=np.uint16), tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    def test_zero_stride_rejected(self, tmp_path):
        # without the check, `stride or 10` would read 0 as the default
        with pytest.raises(ValueError, match="stride"):
            emit_datasets(compute_records(50), tmp_path, stride=0)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("limit", [10_000, 10_001])
    def test_limit_is_the_column_length(self, tmp_path, limit):
        # a prefix of a longer column is a whole sweep to its own end
        n_max = compute_records(2 * 10**4)[: limit + 1]
        written = {p.name: p.read_bytes() for p in emit_datasets(n_max, tmp_path)}
        assert written == reference_datasets(n_max, limit)

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        n_max = compute_records(50)

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("baskets.sweep.os.replace", broken_replace)
        with pytest.raises(OSError) as err:
            emit_datasets(n_max, tmp_path)
        assert "nmax_sampled.csv" in str(err.value)  # offending path is named
        assert list(tmp_path.iterdir()) == []  # neither final file nor temp left

    def test_output_dir_collision_reports_io_error(self, tmp_path):
        in_the_way = tmp_path / "not_a_dir"
        in_the_way.write_text("")
        with pytest.raises(OSError):
            emit_datasets(compute_records(10), in_the_way)


class TestRunSweep:
    def test_summary_counts(self, tmp_path):
        summary = run_sweep(5000, tmp_path)
        assert summary.perfect_count == len(list(perfect_values(5000)))
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
        assert run_sweep(limit, tmp_path).prime_count == pi

    @pytest.mark.parametrize("limit", [10_001, 200_000])
    def test_summary_counts_over_two_views(self, tmp_path, limit):
        summary = run_sweep(limit, tmp_path)
        assert summary.prime_count == int(prime_flags(limit).sum())
        assert summary.perfect_count == (largest_basket_count(limit) - 1) // 2
        written = {p.name: p.read_bytes() for p in summary.paths}
        assert len(written) == 6
        assert written == reference_datasets(compute_records(limit), limit)

    def test_bad_arguments_fail_before_the_fill(self, tmp_path, monkeypatch):
        # a bad stride or output_dir is found before compute_records allocates
        # the column, so even a limit near 2^31 fails at once
        def no_fill(*args, **kwargs):
            raise AssertionError("compute_records was called")

        monkeypatch.setattr("baskets.sweep.compute_records", no_fill)
        in_the_way = tmp_path / "not_a_dir"
        in_the_way.write_text("")
        with pytest.raises(ValueError, match="stride"):
            run_sweep(2**31 - 1, tmp_path / "out", stride=0)
        with pytest.raises(FileExistsError):
            run_sweep(2**31 - 1, in_the_way)
        assert list(tmp_path.iterdir()) == [in_the_way]

    def test_smaller_sweep_removes_the_full_view(self, tmp_path):
        # a 10^4-or-less sweep into the directory of a larger one leaves no
        # full-view file of the earlier limit behind
        run_sweep(20_000, tmp_path)
        summary = run_sweep(500, tmp_path)
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(written) == sorted(p.name for p in summary.paths)
        assert written == reference_datasets(compute_records(500), 500)

    def test_byte_identical_across_thread_counts(self, tmp_path):
        outputs = {}
        for threads in (1, 3):
            out = tmp_path / f"t{threads}"
            run_sweep(30_000, out, thread_count=threads)
            outputs[threads] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert outputs[1] == outputs[3]


class TestBenchmarkBindings:
    # The traced benchmark run binds build_sieve, the positional sieve argument
    # of compute_records (accepted and not read) and
    # DivisorSieve.highly_composite_table; no command uses them.  The
    # benchmark-only follow-up of ROADMAP item 1 deletes them and this test.
    def test_sieve_argument_and_highly_composite_table(self):
        limit = 10**5
        sieve = build_sieve(limit)
        assert np.array_equal(compute_records(limit, sieve, thread_count=2),
                              compute_records(limit))
        table = sieve.highly_composite_table()
        assert np.flatnonzero(table).tolist() == highly_composite_numbers(limit)
