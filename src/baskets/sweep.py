"""Batch computation of solutions for all N in [1, limit] and CSV emission.

``compute_records`` returns one uint16 array, the answer n_max for every N,
and ``emit_datasets`` reads the rest off it: the N > 1 with answer 1 are
exactly the primes of 5 or more (``census.classify`` gives the reason), and
the perfect values come from ``census.perfect_values``.

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

import numpy as np

from .arith import SIEVE_CEILING, CapacityError, DivisorSieve
from .census import perfect_values
from .solver import max_baskets

SMALL_VIEW_LIMIT = 10_000
SMALL_VIEW_STRIDE = 10
FULL_VIEW_STRIDE = 997
MASK_BLOCK = 1 << 16  # entries per block of the prime scan and rows per CSV write

SMALL_VIEW_FILES = ("nmax_sampled.csv", "nmax_perfect.csv", "nmax_primes_10k.csv")
FULL_VIEW_FILES = ("nmax_1m_sampled.csv", "nmax_1m_perfect.csv", "nmax_primes_1m.csv")


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


def _fill_n_max(n_max: np.ndarray, lo: int, hi: int, largest: int) -> None:
    """Write the answer for every N in [lo, hi] into n_max; `largest` is
    max_baskets(hi).

    A divisor d <= largest serves every multiple m >= d(d-1)/2; sweeping d
    ascending and overwriting leaves the largest one in place.
    """
    for d in range(1, largest + 1):
        start = max(d, d * (d - 1) // 2, lo)
        first = -(-start // d) * d
        if first <= hi:
            n_max[first : hi + 1 : d] = d


def compute_records(limit: int, sieve: DivisorSieve | None = None,
                    thread_count: int | None = None) -> np.ndarray:
    """The answer for every N in [1, limit]: a uint16 array of length
    limit + 1, 2 bytes per N, whose entry N is n_max(N); entry 0 is unused.

    Primes and perfect values are not stored: the emitters read them off
    ``n_max`` and ``perfect_values``.  ``sieve`` is accepted and not read.
    Raises CapacityError above ``SIEVE_CEILING``, before allocating anything.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if limit > SIEVE_CEILING:
        raise CapacityError(f"sweep limit must be at most {SIEVE_CEILING}, got {limit}")

    workers = thread_count or os.cpu_count() or 1
    workers = min(workers, limit)
    # exact: below 2^31 every answer is under 65536 (see arith.SIEVE_CEILING)
    n_max = np.zeros(limit + 1, dtype=np.uint16)
    # contiguous chunks; workers write disjoint slices of the shared array
    bounds = np.linspace(1, limit + 1, workers + 1, dtype=np.int64)
    chunks = [(int(lo), int(hi) - 1) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # max_baskets runs on this thread: perfbench's span tracer nests
        # spans per thread, so a traced call on a worker would have no parent
        jobs = [pool.submit(_fill_n_max, n_max, lo, hi, max_baskets(hi)) for lo, hi in chunks]
        for job in jobs:
            job.result()

    return n_max


def _floor_masks(n_max: np.ndarray, limit: int):
    """(lo, mask) for each block of [2, limit]: mask[i] is True iff N = lo + i
    has answer 1, that is iff N is a prime of 5 or more.

    Block by block, so no whole-range temporary exists.
    """
    for lo in range(2, limit + 1, MASK_BLOCK):
        yield lo, n_max[lo : min(lo + MASK_BLOCK, limit + 1)] == 1


def _floor_primes(n_max: np.ndarray, limit: int) -> np.ndarray:
    """Every prime in [5, limit], ascending."""
    blocks = [np.flatnonzero(mask) + lo for lo, mask in _floor_masks(n_max, limit)]
    return np.concatenate([np.empty(0, dtype=np.int64), *blocks])


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


def _view_series(n_max: np.ndarray, view_limit: int, stride: int):
    """(sampled, perfect, primes) index arrays for one view, ascending N."""
    sampled = np.arange(stride, view_limit + 1, stride, dtype=np.int64)
    perfect = np.array([n for n, _ in perfect_values(view_limit)], dtype=np.int64)
    return sampled, perfect, _floor_primes(n_max, view_limit)


def emit_datasets(n_max: np.ndarray, config: SweepConfig) -> list[Path]:
    """Write the datasets of `n_max` (from compute_records) under config.output_dir."""
    covered = len(n_max) - 1
    if covered < 1:
        raise ValueError("no records to emit")
    if covered < config.limit:
        raise ValueError(f"records cover [1, {covered}], need [1, {config.limit}]")

    views = [(min(config.limit, SMALL_VIEW_LIMIT),
              config.stride or SMALL_VIEW_STRIDE, SMALL_VIEW_FILES)]
    if config.limit > SMALL_VIEW_LIMIT:
        views.append((config.limit, config.stride or FULL_VIEW_STRIDE, FULL_VIEW_FILES))

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for view_limit, stride, (sampled_name, perfect_name, primes_name) in views:
        sampled, perfect, primes = _view_series(n_max, view_limit, stride)
        for name, indices in ((sampled_name, sampled), (perfect_name, perfect),
                              (primes_name, primes)):
            path = out_dir / name
            _write_series(path, indices, n_max[indices])
            written.append(path)
    return written


def run_sweep(config: SweepConfig) -> SweepSummary:
    """Compute records for [1, config.limit], emit datasets, report counts."""
    started = time.perf_counter()
    limit = config.limit
    n_max = compute_records(limit, thread_count=config.thread_count)
    computed = time.perf_counter()
    paths = emit_datasets(n_max, config)
    emitted = time.perf_counter()
    floor_primes = sum(int(np.count_nonzero(mask)) for _, mask in _floor_masks(n_max, limit))
    return SweepSummary(
        record_count=limit,
        perfect_count=len(perfect_values(limit)),
        prime_count=floor_primes + sum(p <= limit for p in (2, 3)),
        elapsed_seconds=time.perf_counter() - started,
        paths=tuple(paths),
        phase_seconds={"compute_records": computed - started,
                       "emit_datasets": emitted - computed},
    )
