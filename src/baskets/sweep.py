"""Batch computation of solutions for all N in [1, limit] and CSV emission.

``compute_records`` returns one uint16 array, the answer n_max for every N,
and ``emit_datasets`` reads the rest off it: the N > 1 with answer 1 are
exactly the primes of 5 or more (``census.classify`` gives the reason), and
the perfect values are read one at a time from the iterator
``census.perfect_values``, which ``run_sweep`` also counts.

The scatter datasets come in two views: a mid-scale view capped at 10^4 and a
full-limit view (written only when the limit exceeds 10^4).  Each view gets a
stride-sampled n_max series plus complete (unsampled) perfect-value and prime
series.  The column is filled in one pass over blocks of ``FILL_BLOCK``
entries, on the calling thread, so the output is the same for any thread
count: the count is accepted, checked and has no effect.
"""

from __future__ import annotations

import os
import time
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
FILL_BLOCK = 1 << 20  # entries per block of the fill: 2 MiB of uint16, about one L2 cache

SMALL_VIEW_FILES = ("nmax_sampled.csv", "nmax_perfect.csv", "nmax_primes_10k.csv")
FULL_VIEW_FILES = ("nmax_1m_sampled.csv", "nmax_1m_perfect.csv", "nmax_primes_1m.csv")


@dataclass(frozen=True)
class SweepSummary:
    perfect_count: int
    prime_count: int
    elapsed_seconds: float
    paths: tuple[Path, ...]
    # seconds of each phase, keyed "compute_records" and "emit_datasets"
    phase_seconds: dict[str, float]


def _fill_n_max(n_max: np.ndarray, lo: int, hi: int, largest: int) -> None:
    """Write the answer for every N in [lo, hi], lo >= 1, into n_max;
    `largest` is max_baskets(hi).

    A divisor d <= largest serves every multiple N >= T(d) = d(d-1)/2;
    sweeping d ascending and overwriting leaves the largest one in place.
    From T(2d) = d(2d-1) on, d is written only at its odd multiples: an even
    multiple N = kd >= T(2d) is a multiple of 2d, and 2d <= m(N) <= largest,
    so 2d, or a larger divisor, overwrites that slot later.  The d with
    T(2d) <= lo, that is 2d <= m(lo), need only that one slice.
    """
    steady = max_baskets(lo) // 2
    for d in range(1, steady + 1):
        n_max[(-(-lo // d) | 1) * d : hi + 1 : 2 * d] = d
    for d in range(steady + 1, largest + 1):
        skip = d * (2 * d - 1)  # T(2d) > lo, an odd multiple of d
        n_max[-(-max(lo, d * (d - 1) // 2) // d) * d : min(hi + 1, skip) : d] = d
        if skip <= hi:
            n_max[skip : hi + 1 : 2 * d] = d


def _check_request(limit: int, thread_count: int | None) -> None:
    """Reject a limit or thread_count below 1 and a limit above the ceiling."""
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if thread_count is not None and thread_count < 1:
        raise ValueError(f"thread_count must be positive, got {thread_count}")
    if limit > SIEVE_CEILING:
        raise CapacityError(f"sweep limit must be at most {SIEVE_CEILING}, got {limit}")


def compute_records(limit: int, sieve: DivisorSieve | None = None,
                    thread_count: int | None = None) -> np.ndarray:
    """The answer for every N in [1, limit]: a uint16 array of length
    limit + 1, 2 bytes per N, whose entry N is n_max(N); entry 0 is unused.

    The fill runs in ascending blocks of ``FILL_BLOCK`` entries, each
    walking every divisor up to m of its end, so each slice of the column
    stays in cache while every divisor strides over it.  ``thread_count`` is
    accepted and checked and has no effect: there is one pass, on the
    calling thread.  Primes and perfect values are not stored: the emitters
    read the primes off ``n_max`` and draw the perfect values from the
    ``perfect_values`` iterator.  ``sieve`` is accepted and not read.
    Raises ValueError for a limit or thread_count below 1, and CapacityError
    above ``SIEVE_CEILING``, before allocating anything.
    """
    _check_request(limit, thread_count)
    # exact: below 2^31 every answer is under 65536 (see arith.SIEVE_CEILING)
    n_max = np.zeros(limit + 1, dtype=np.uint16)
    for lo in range(1, limit + 1, FILL_BLOCK):
        hi = min(lo + FILL_BLOCK - 1, limit)
        _fill_n_max(n_max, lo, hi, max_baskets(hi))
    return n_max


def _floor_masks(n_max: np.ndarray):
    """(lo, mask) for each block of [2, len(n_max) - 1]: mask[i] is True iff
    N = lo + i has answer 1, that is iff N is a prime of 5 or more.

    Block by block, so no whole-range temporary exists.
    """
    for lo in range(2, len(n_max), MASK_BLOCK):
        yield lo, n_max[lo : lo + MASK_BLOCK] == 1


def _floor_primes(n_max: np.ndarray) -> np.ndarray:
    """Every prime in [5, len(n_max) - 1], ascending."""
    blocks = [np.flatnonzero(mask) + lo for lo, mask in _floor_masks(n_max)]
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
        # uint32 holds every 9-digit value, and its division is the cheaper
        rest = column.astype(np.uint32 if width <= 9 else np.uint64)
        for place in range(start + width - 1, start - 1, -1):
            tens = rest // 10
            np.add(rest - 10 * tens, 48, out=grid[:, place], casting="unsafe")
            np.greater(rest, 0, out=keep[:, place])
            rest = tens
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


def _make_output_dir(output_dir, stride: int | None) -> Path:
    """Reject a stride below 1, then create output_dir: both fail before any work."""
    if stride is not None and stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def emit_datasets(n_max: np.ndarray, output_dir, stride: int | None = None) -> list[Path]:
    """Write the datasets of `n_max` (from compute_records, limit len(n_max) - 1)
    under output_dir; stride None samples the 10^4 view by 10 and the full by 997."""
    limit = len(n_max) - 1
    if limit < 1:
        raise ValueError(f"records must cover N = 1, got {len(n_max)} entries")
    out_dir = _make_output_dir(output_dir, stride)

    views = [(min(limit, SMALL_VIEW_LIMIT), stride or SMALL_VIEW_STRIDE, SMALL_VIEW_FILES)]
    if limit > SMALL_VIEW_LIMIT:
        views.append((limit, stride or FULL_VIEW_STRIDE, FULL_VIEW_FILES))
    else:  # a full view left by an earlier, larger sweep would describe another limit
        for name in FULL_VIEW_FILES:
            (out_dir / name).unlink(missing_ok=True)
    # every view starts at N = 1: its series are prefixes of the full ones
    perfect = np.fromiter((n for n, _ in perfect_values(limit)), dtype=np.int64)
    primes = _floor_primes(n_max)
    written = []
    for view_limit, step, names in views:
        series = [np.arange(step, view_limit + 1, step, dtype=np.int64)]
        series += [full[: np.searchsorted(full, view_limit, "right")] for full in (perfect, primes)]
        for name, indices in zip(names, series):
            path = out_dir / name
            _write_series(path, indices, n_max[indices])
            written.append(path)
    return written


def run_sweep(limit: int, output_dir, stride: int | None = None,
              thread_count: int | None = None) -> SweepSummary:
    """Compute records for [1, limit], emit datasets, report counts; every
    argument is checked, and output_dir made, before the records are computed."""
    _check_request(limit, thread_count)
    _make_output_dir(output_dir, stride)
    started = time.perf_counter()
    n_max = compute_records(limit, thread_count=thread_count)
    computed = time.perf_counter()
    paths = emit_datasets(n_max, output_dir, stride)
    emitted = time.perf_counter()
    floor_primes = sum(int(np.count_nonzero(mask)) for _, mask in _floor_masks(n_max))
    return SweepSummary(
        perfect_count=sum(1 for _ in perfect_values(limit)),
        prime_count=floor_primes + sum(p <= limit for p in (2, 3)),
        elapsed_seconds=time.perf_counter() - started,
        paths=tuple(paths),
        phase_seconds={"compute_records": computed - started,
                       "emit_datasets": emitted - computed},
    )
