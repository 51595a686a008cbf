import csv
from math import isqrt
from pathlib import Path

import pytest

from baskets.arith import build_sieve

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def sieve_10k():
    return build_sieve(10_000)


@pytest.fixture(scope="session")
def golden_table():
    """Golden N=1..100 table rows keyed by N."""
    with open(DATA_DIR / "golden_table_1_100.csv", newline="") as f:
        return {int(row["N"]): row for row in csv.DictReader(f)}


def read_series(path) -> list[tuple[int, int]]:
    """Parse an N,nmax CSV into (N, nmax) pairs."""
    with open(path) as f:
        assert f.readline() == "N,nmax\n"
        return [tuple(int(x) for x in line.split(",")) for line in f]


@pytest.fixture(scope="session")
def golden_scatter():
    """Golden (N, nmax) scatter series for N=1..200, corrected at the twenty
    N pinned by test_acceptance.test_scatter_reference_defects."""
    return dict(read_series(DATA_DIR / "golden_nmax_1_200.csv"))


def distinct_sets(total, size, lowest=0):
    """Brute-force: all strictly increasing tuples of `size` non-negative
    integers summing to `total`, lexicographic order, no pruning."""
    if size == 0:
        if total == 0:
            yield ()
        return
    for v in range(lowest, total + 1):
        for rest in distinct_sets(total - v, size - 1, v + 1):
            yield (v,) + rest


def largest_basket_count(limit):
    """The largest n with n(n-1)/2 <= limit, by a downward search."""
    n = isqrt(2 * limit) + 1  # the answer m has (m-1)^2 < m(m-1) <= 2*limit
    while n * (n - 1) // 2 > limit:
        n -= 1
    return n
