"""Batch computation of solutions for all N in [1, limit] and CSV emission.

The scatter datasets come in two views: a mid-scale view capped at 10^4 and a
full-limit view (written only when the limit exceeds 10^4).  Each view gets a
stride-sampled n_max series plus complete (unsampled) perfect-value and prime
series.  Output is deterministic: byte-identical for any thread count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .arith import DivisorSieve, build_sieve
from .census import NEAR_PERFECT_THRESHOLD, ClassificationFlags, perfect_values

SMALL_VIEW_LIMIT = 10_000
SMALL_VIEW_STRIDE = 10
FULL_VIEW_STRIDE = 997
MASK_BLOCK = 1 << 16  # entries per block of the near-perfect mask and rows per CSV write

SMALL_VIEW_FILES = ("nmax_sampled.csv", "nmax_perfect.csv", "nmax_primes_10k.csv")
FULL_VIEW_FILES = ("nmax_1m_sampled.csv", "nmax_1m_perfect.csv", "nmax_primes_1m.csv")


@dataclass(frozen=True)
class SweepRecord:
    n_input: int
    n_max: int
    flags: ClassificationFlags


@dataclass(frozen=True)
class SweepConfig:
    limit: int
    output_dir: Path
    stride: int | None = None  # None: 10 for the 10^4 view, 997 for the full view
    thread_count: int | None = None  # None: one worker per CPU

    def __post_init__(self):
        if self.limit < 1:
            raise ValueError(f"limit must be positive, got {self.limit}")
        if self.stride is not None and self.stride < 1:
            raise ValueError(f"stride must be positive, got {self.stride}")
        if self.thread_count is not None and self.thread_count < 1:
            raise ValueError(f"thread_count must be positive, got {self.thread_count}")


@dataclass(frozen=True)
class SweepSummary:
    record_count: int
    perfect_count: int
    prime_count: int
    elapsed_seconds: float
    paths: tuple[Path, ...]
    # seconds of each phase, keyed "compute_records" and "emit_datasets"
    phase_seconds: dict[str, float]


class SweepData:
    """Column-wise records for every N in [1, limit]; index 0 is unused."""

    def __init__(self, limit: int, n_max: np.ndarray, perfect: np.ndarray,
                 prime: np.ndarray, near_perfect: np.ndarray,
                 highly_composite: np.ndarray):
        self.limit = limit
        self.n_max = n_max
        self.perfect = perfect
        self.prime = prime
        self.near_perfect = near_perfect
        self.highly_composite = highly_composite

    def __len__(self) -> int:
        return self.limit

    def record(self, n: int) -> SweepRecord:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside [1, {self.limit}]")
        flags = ClassificationFlags(
            perfect=bool(self.perfect[n]),
            prime=bool(self.prime[n]),
            near_perfect=bool(self.near_perfect[n]),
            highly_composite=bool(self.highly_composite[n]),
        )
        return SweepRecord(n_input=n, n_max=int(self.n_max[n]), flags=flags)

    def records(self) -> Iterator[SweepRecord]:
        return (self.record(n) for n in range(1, self.limit + 1))


def _fill_n_max(n_max: np.ndarray, lo: int, hi: int) -> None:
    """Write the answer for every N in [lo, hi] into n_max.

    A divisor d serves every multiple m >= d(d-1)/2; sweeping d ascending and
    overwriting leaves the largest feasible divisor in place.
    """
    d = 1
    while d * (d - 1) // 2 <= hi:
        start = max(d, d * (d - 1) // 2, lo)
        first = -(-start // d) * d
        if first <= hi:
            n_max[first : hi + 1 : d] = d
        d += 1


def compute_records(limit: int, sieve: DivisorSieve | None = None,
                    thread_count: int | None = None) -> SweepData:
    """Solve and classify every N in [1, limit]."""
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if sieve is None:
        sieve = build_sieve(max(limit, 2))
    elif sieve.limit < limit:
        raise ValueError(f"sieve limit {sieve.limit} below sweep limit {limit}")

    workers = thread_count or os.cpu_count() or 1
    workers = min(workers, limit)
    # exact: below 2^31 every answer is under 65536 (see arith.SIEVE_CEILING)
    n_max = np.zeros(limit + 1, dtype=np.uint16)
    if workers == 1:
        _fill_n_max(n_max, 1, limit)
    else:
        # contiguous chunks; workers write disjoint slices of the shared array
        bounds = np.linspace(1, limit + 1, workers + 1, dtype=np.int64)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            jobs = [
                pool.submit(_fill_n_max, n_max, int(bounds[i]), int(bounds[i + 1]) - 1)
                for i in range(workers)
                if bounds[i] < bounds[i + 1]
            ]
            for job in jobs:
                job.result()

    perfect = np.zeros(limit + 1, dtype=bool)
    perfect[[n for n, _ in perfect_values(limit)]] = True

    prime = sieve.prime[: limit + 1]

    # same float expression as solver.pear_bound, elementwise, one block at a
    # time so no whole-range int64 or float64 temporary exists
    near_perfect = np.empty(limit + 1, dtype=bool)
    for lo in range(0, limit + 1, MASK_BLOCK):
        hi = min(lo + MASK_BLOCK, limit + 1)
        ns = np.arange(lo, hi, dtype=np.int64)
        bound = (1.0 + np.sqrt((1 + 8 * ns).astype(np.float64))) / 2.0
        near_perfect[lo:hi] = (n_max[lo:hi] / bound > NEAR_PERFECT_THRESHOLD) & ~perfect[lo:hi]

    highly_composite = sieve.highly_composite_table()[: limit + 1]

    return SweepData(limit, n_max, perfect, prime, near_perfect, highly_composite)


def _format_rows(ns: np.ndarray, n_max: np.ndarray) -> bytes:
    """The "N,nmax" lines of one block of rows, formatted without a row loop.

    Each column is written as a grid of right-aligned ASCII digits; the cells
    of leading zeros are masked out and the rest read off row by row.
    """
    columns = (ns, n_max)
    widths = [len(str(int(column.max()))) for column in columns]
    grid = np.empty((len(ns), sum(widths) + 2), dtype=np.uint8)
    keep = np.ones(grid.shape, dtype=bool)
    start = 0
    for column, width, separator in zip(columns, widths, b",\n"):
        rest = column.copy()
        for place in range(start + width - 1, start - 1, -1):
            grid[:, place] = rest % 10 + 48
            keep[:, place] = rest > 0
            rest //= 10
        keep[:, start + width - 1] = True  # zero is written as "0"
        grid[:, start + width] = separator
        start += width + 1
    return grid[keep].tobytes()


def _write_series(path: Path, ns: np.ndarray, n_max: np.ndarray) -> None:
    """Atomically write one N,nmax series (temp file, then rename)."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(b"N,nmax\n")
            for lo in range(0, len(ns), MASK_BLOCK):
                f.write(_format_rows(ns[lo : lo + MASK_BLOCK], n_max[lo : lo + MASK_BLOCK]))
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing dataset {path}: {exc}") from exc
    finally:
        if tmp.exists():
            tmp.unlink()


def _view_series(data: SweepData, view_limit: int, stride: int):
    """(sampled, perfect, primes) index arrays for one view, ascending N."""
    sampled = np.arange(stride, view_limit + 1, stride, dtype=np.int64)
    flags_to = view_limit + 1
    perfect = np.nonzero(data.perfect[:flags_to])[0]
    primes = np.flatnonzero(data.prime[:flags_to])
    primes = primes[data.n_max[primes] == 1]  # 2 and 3 are primes off the floor
    return sampled, perfect, primes


def emit_datasets(data: SweepData, config: SweepConfig) -> list[Path]:
    """Write the dataset files for `data` under config.output_dir."""
    if len(data) < 1:
        raise ValueError("no records to emit")
    if data.limit < config.limit:
        raise ValueError(f"records cover [1, {data.limit}], need [1, {config.limit}]")

    views = [(min(config.limit, SMALL_VIEW_LIMIT),
              config.stride or SMALL_VIEW_STRIDE, SMALL_VIEW_FILES)]
    if config.limit > SMALL_VIEW_LIMIT:
        views.append((config.limit, config.stride or FULL_VIEW_STRIDE, FULL_VIEW_FILES))

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for view_limit, stride, (sampled_name, perfect_name, primes_name) in views:
        sampled, perfect, primes = _view_series(data, view_limit, stride)
        for name, indices in ((sampled_name, sampled), (perfect_name, perfect),
                              (primes_name, primes)):
            path = out_dir / name
            _write_series(path, indices, data.n_max[indices])
            written.append(path)
    return written


def run_sweep(config: SweepConfig) -> SweepSummary:
    """Compute records for [1, config.limit], emit datasets, report counts."""
    started = time.perf_counter()
    data = compute_records(config.limit, thread_count=config.thread_count)
    computed = time.perf_counter()
    paths = emit_datasets(data, config)
    emitted = time.perf_counter()
    return SweepSummary(
        record_count=data.limit,
        perfect_count=int(data.perfect.sum()),
        prime_count=int(data.prime.sum()),
        elapsed_seconds=time.perf_counter() - started,
        paths=tuple(paths),
        phase_seconds={"compute_records": computed - started,
                       "emit_datasets": emitted - computed},
    )
