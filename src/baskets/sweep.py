"""Batch computation of solutions for all N in [1, limit] and CSV emission.

The answer n_max is filled in blocks of ``FILL_BLOCK`` entries, and each
block's rows are read off it while it is in cache: the N > 1 with answer 1
are exactly the primes of 5 or more (``census.classify`` gives the reason),
so only odd entries are scanned, and the perfect values come once from
``census.perfect_values``.  ``run_sweep`` reuses one block buffer, so its
memory is flat in the limit; ``compute_records`` fills views of one whole
column, and ``emit_datasets`` streams slices of it through the same emitter.

The scatter datasets come in two views: a mid-scale view capped at 10^4 and a
full-limit view (written only when the limit exceeds 10^4).  Each view gets a
stride-sampled n_max series plus complete (unsampled) perfect-value and prime
series.  Each file is appended to as a .tmp file, block by block, and all are
renamed after the last block.  The fill runs on the calling thread, so the
output is the same for any thread count: the count is accepted, checked and
has no effect.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from math import lcm
from pathlib import Path

import numpy as np

from .arith import SIEVE_CEILING, CapacityError, DivisorSieve
from .census import perfect_values
from .solver import max_baskets

SMALL_VIEW_LIMIT = 10_000
SMALL_VIEW_STRIDE = 10
FULL_VIEW_STRIDE = 997
MASK_BLOCK = 1 << 16  # rows per CSV write
FILL_BLOCK = 1 << 20  # entries per block of the fill: 2 MiB of uint16, about one L2 cache

SMALL_VIEW_FILES = ("nmax_sampled.csv", "nmax_perfect.csv", "nmax_primes_10k.csv")
FULL_VIEW_FILES = ("nmax_1m_sampled.csv", "nmax_1m_perfect.csv", "nmax_primes_1m.csv")

# The largest d <= 12 dividing N, at index N mod lcm(1..12) = 27720 (55 KB)
SMALL_DIVISOR_TOP = 12
SMALL_PERIOD = lcm(*range(1, SMALL_DIVISOR_TOP + 1))
SMALL_DIVISORS = np.empty(SMALL_PERIOD, dtype=np.uint16)
for _d in range(1, SMALL_DIVISOR_TOP + 1):
    SMALL_DIVISORS[::_d] = _d
del _d


@dataclass(frozen=True)
class SweepSummary:
    perfect_count: int
    prime_count: int
    elapsed_seconds: float
    paths: tuple[Path, ...]
    # seconds of each phase, summed over blocks, keyed "compute_records"
    # (the fill) and "emit_datasets" (everything else)
    phase_seconds: dict[str, float]


def _fill_n_max(block: np.ndarray, lo: int) -> None:
    """Write the answer for N = lo + i into block[i], lo >= 1; every entry is
    written, so the block may hold anything before.

    A divisor d <= m(hi), hi the block's last N, serves every multiple
    N >= T(d) = d(d-1)/2; sweeping d ascending and overwriting leaves the
    largest one in place.  From T(2d) = d(2d-1) on, d is written only at its
    odd multiples: an even multiple N = kd >= T(2d) is a multiple of 2d, and
    2d <= m(N), so 2d, or a larger divisor, overwrites that slot later.  The
    d with T(2d) <= lo, that is 2d <= m(lo), need only that one slice.  Once
    m(lo) >= 12 every d <= 12 serves the whole block, so their net result,
    the largest d <= 12 dividing N, is copied from ``SMALL_DIVISORS``.
    """
    bound = max_baskets(lo)
    steady = bound // 2
    first = 1
    if bound >= SMALL_DIVISOR_TOP:  # N = lo + at is a multiple of the period
        for at in range(-(lo % SMALL_PERIOD), len(block), SMALL_PERIOD):
            block[max(at, 0) : at + SMALL_PERIOD] = SMALL_DIVISORS[max(-at, 0) : len(block) - at]
        first = SMALL_DIVISOR_TOP + 1
    for d in range(first, steady + 1):
        block[(-(-lo // d) | 1) * d - lo :: 2 * d] = d
    end = lo + len(block)
    for d in range(max(first, steady + 1), max_baskets(end - 1) + 1):
        skip = d * (2 * d - 1)  # T(2d) > lo, an odd multiple of d
        block[-(-max(lo, d * (d - 1) // 2) // d) * d - lo : min(end, skip) - lo : d] = d
        if skip < end:
            block[skip - lo :: 2 * d] = d


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

    The fill runs in ascending blocks of ``FILL_BLOCK`` entries, each a view
    of the column that stays in cache while every divisor up to m of its end
    strides over it.  ``thread_count`` is accepted and checked and has no
    effect: there is one pass, on the calling thread.  ``sieve`` is accepted
    and not read.  Raises ValueError for a limit or thread_count below 1, and
    CapacityError above ``SIEVE_CEILING``, before allocating anything.
    """
    _check_request(limit, thread_count)
    # exact: below 2^31 every answer is under 65536 (see arith.SIEVE_CEILING)
    n_max = np.zeros(limit + 1, dtype=np.uint16)
    for lo in range(1, limit + 1, FILL_BLOCK):
        _fill_n_max(n_max[lo : lo + FILL_BLOCK], lo)
    return n_max


def _block_primes(block: np.ndarray, lo: int) -> np.ndarray:
    """The primes of 5 or more among N = lo + i, ascending: the odd N > 1
    with answer 1, since every prime of 5 or more is odd."""
    first = max(lo, 2) | 1
    return np.flatnonzero(block[first - lo :: 2] == 1) * 2 + first


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


def _write_rows(file, ns: np.ndarray, n_max: np.ndarray) -> None:
    """Append the "N,nmax" lines of ns and their answers, MASK_BLOCK at a time."""
    for at in range(0, len(ns), MASK_BLOCK):
        file.write(_format_rows(ns[at : at + MASK_BLOCK], n_max[at : at + MASK_BLOCK]))


def _stream_datasets(blocks, limit: int, out_dir: Path,
                     stride: int | None) -> tuple[list[Path], int, int]:
    """Write the datasets of a sweep to `limit` under out_dir from its blocks;
    return the paths, the perfect count and the prime count.

    `blocks` yields (lo, block), block[i] = n_max(lo + i), in ascending order
    over [1, limit].  Each block's rows go to a .tmp file per dataset; once
    the last block is in, every file is renamed.  On any error no .tmp file
    is left, and an OSError names the dataset it happened on.
    """
    views = [(min(limit, SMALL_VIEW_LIMIT), stride or SMALL_VIEW_STRIDE, SMALL_VIEW_FILES)]
    if limit > SMALL_VIEW_LIMIT:
        views.append((limit, stride or FULL_VIEW_STRIDE, FULL_VIEW_FILES))
    else:  # a full view left by an earlier, larger sweep would describe another limit
        for name in FULL_VIEW_FILES:
            (out_dir / name).unlink(missing_ok=True)
    # every view starts at N = 1: its series are prefixes of the full ones
    perfect = np.fromiter((n for n, _ in perfect_values(limit)), dtype=np.int64)
    prime_count = sum(p <= limit for p in (2, 3))
    paths = [out_dir / name for *_, names in views for name in names]
    tmps = [path.with_name(path.name + ".tmp") for path in paths]
    files = []
    path = paths[0]  # the dataset in hand, named by an OSError
    try:
        for path, tmp in zip(paths, tmps):
            files.append(open(tmp, "wb"))
            files[-1].write(b"N,nmax\n")
        for lo, block in blocks:
            end = lo + len(block)
            primes = _block_primes(block, lo)
            prime_count += len(primes)
            in_block = perfect[np.searchsorted(perfect, lo) : np.searchsorted(perfect, end)]
            series = []
            for view_limit, step, _ in views:
                top = min(end - 1, view_limit)
                series.append(np.arange(-(-lo // step) * step, top + 1, step, dtype=np.int64))
                series += [full[: np.searchsorted(full, top, "right")]
                           for full in (in_block, primes)]
            for path, file, ns in zip(paths, files, series):
                _write_rows(file, ns, block[ns - lo])
        for path, file, tmp in zip(paths, files, tmps):
            file.close()
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing dataset {path}: {exc}") from exc
    finally:
        for file in files:
            file.close()
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
    return paths, len(perfect), prime_count


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
    blocks = ((lo, n_max[lo : lo + FILL_BLOCK]) for lo in range(1, limit + 1, FILL_BLOCK))
    return _stream_datasets(blocks, limit, out_dir, stride)[0]


def run_sweep(limit: int, output_dir, stride: int | None = None,
              thread_count: int | None = None) -> SweepSummary:
    """Fill [1, limit] block by block into one reused buffer, stream each
    block's datasets, and report the counts; every argument is checked, and
    output_dir made, before anything is filled."""
    _check_request(limit, thread_count)
    out_dir = _make_output_dir(output_dir, stride)
    started = time.perf_counter()
    filling = 0.0
    buffer = np.empty(min(limit, FILL_BLOCK), dtype=np.uint16)

    def filled_blocks():
        nonlocal filling
        for lo in range(1, limit + 1, FILL_BLOCK):
            begun = time.perf_counter()
            block = buffer[: limit + 1 - lo]
            _fill_n_max(block, lo)
            filling += time.perf_counter() - begun
            yield lo, block

    paths, perfect_count, prime_count = _stream_datasets(filled_blocks(), limit, out_dir, stride)
    elapsed = time.perf_counter() - started
    return SweepSummary(
        perfect_count=perfect_count,
        prime_count=prime_count,
        elapsed_seconds=elapsed,
        paths=tuple(paths),
        phase_seconds={"compute_records": filling, "emit_datasets": elapsed - filling},
    )
