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
from .census import NEAR_PERFECT_THRESHOLD, ClassificationFlags

SMALL_VIEW_LIMIT = 10_000
SMALL_VIEW_STRIDE = 10
FULL_VIEW_STRIDE = 997

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
    n_max = np.zeros(limit + 1, dtype=np.int64)
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

    ns = np.arange(limit + 1, dtype=np.int64)
    perfect = (2 * ns == n_max * (n_max - 1)) & (n_max % 2 == 1)

    prime = sieve.spf[: limit + 1] == ns
    prime[:2] = False

    # same float expression as solver.pear_bound, elementwise
    bound = (1.0 + np.sqrt((1 + 8 * ns).astype(np.float64))) / 2.0
    near_perfect = (n_max / bound > NEAR_PERFECT_THRESHOLD) & ~perfect

    highly_composite = sieve.highly_composite_table()[: limit + 1]

    return SweepData(limit, n_max, perfect, prime, near_perfect, highly_composite)


def _write_series(path: Path, ns: np.ndarray, n_max: np.ndarray) -> None:
    """Atomically write one N,nmax series (temp file, then rename)."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as f:
            f.write("N,nmax\n")
            f.writelines(f"{n},{m}\n" for n, m in zip(ns.tolist(), n_max.tolist()))
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
    primes = np.nonzero(data.prime[:flags_to] & (data.n_max[:flags_to] == 1))[0]
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
    paths = emit_datasets(data, config)
    return SweepSummary(
        record_count=data.limit,
        perfect_count=int(data.perfect.sum()),
        prime_count=int(data.prime.sum()),
        elapsed_seconds=time.perf_counter() - started,
        paths=tuple(paths),
    )
