"""Acceptance suite: one test per acceptance criterion, in order.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  The golden scatter series behind criterion 2 was corrected at
twenty N whose shipped values contradicted the golden table, the
divisibility constraint and brute-force search;
test_scatter_reference_defects pins every one of them.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from baskets import cli
from baskets.census import count_distributions, enumerate_distributions, perfect_values
from baskets.oracle import brute_force_n_max, verify_range
from baskets.solver import solve
from baskets.sweep import compute_records, run_sweep

from .conftest import DATA_DIR, distinct_sets

# Golden scatter entries that were shipped with impossible values and have
# since been corrected in golden_nmax_1_200.csv, as N: (shipped, corrected).
# The corrected value is the independently verified answer (brute-force
# search; for N <= 100 also the golden table).
SCATTER_DEFECTS = {
    66: (12, 11), 77: (7, 11), 88: (8, 11), 90: (9, 10), 104: (8, 13),
    110: (10, 11), 112: (8, 14), 117: (9, 13), 126: (9, 14), 130: (10, 13),
    140: (8, 14), 143: (11, 13), 150: (10, 15), 156: (12, 13), 168: (8, 14),
    170: (10, 17), 187: (11, 17), 189: (7, 9), 190: (10, 19), 198: (9, 18),
}


@pytest.fixture(scope="module")
def million():
    return compute_records(1_000_000)


def test_criterion_1_table_reproduction(capsys):
    started = time.perf_counter()
    code = cli.main(["table", "1", "100", "--format", "csv"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    golden = (DATA_DIR / "golden_table_1_100.csv").read_text()
    assert code == 0
    assert out == golden, "table output differs from golden bytes"
    assert elapsed < 1.0, f"table took {elapsed:.2f}s"
    print("\ncriterion 1 (table reproduction, byte-exact, <1s): PASS")


def test_criterion_2_scatter_series(golden_scatter):
    computed = {n: solve(n).n_max for n in range(1, 201)}

    # named spot checks
    for n, n_max in ((60, 10), (128, 16), (171, 19), (200, 20)):
        assert computed[n] == n_max == golden_scatter[n]

    # perfect subset
    assert [n for n, _ in perfect_values(200)] == [3, 10, 21, 36, 55, 78, 105, 136, 171]
    for n, n_max in perfect_values(200):
        assert computed[n] == n_max == golden_scatter[n]

    # prime subset: the 44 primes in [5, 199], all on the floor
    floor = sorted(n for n in range(5, 200)
                   if computed[n] == 1 and len([d for d in range(1, n + 1) if n % d == 0]) == 2)
    assert len(floor) == 44
    assert all(golden_scatter[p] == 1 for p in floor)

    # full series, exact
    mismatches = {n: (golden_scatter[n], computed[n])
                  for n in range(1, 201) if golden_scatter[n] != computed[n]}
    assert computed == golden_scatter, (
        f"{len(mismatches)} golden scatter entries disagree with the computed "
        f"series (golden, computed): {mismatches}"
    )
    print("\ncriterion 2 (scatter series 1..200 exact): PASS")


def test_scatter_reference_defects(golden_scatter, golden_table):
    """Every corrected golden scatter entry now holds the true answer, and
    the value it was shipped with is impossible: either not a divisor of N
    or beaten by a larger feasible divisor.  The corrected value matches
    brute-force search, the solver and, for N <= 100, the golden table."""
    for n, (shipped, corrected) in sorted(SCATTER_DEFECTS.items()):
        truth = brute_force_n_max(n)
        assert golden_scatter[n] == corrected == truth == solve(n).n_max
        # the shipped value can never be the answer: non-divisor, or beaten
        # by a larger feasible divisor
        assert n % shipped != 0 or shipped < truth
        # where the two golden files overlap, the table sides with the fix
        if n <= 100:
            assert int(golden_table[n]["n"]) == truth != shipped


def test_criterion_3_million_sweep(tmp_path):
    started = time.perf_counter()
    summary = run_sweep(1_000_000, tmp_path)
    elapsed = time.perf_counter() - started
    assert summary.perfect_count == 706
    assert elapsed < 60.0, f"sweep took {elapsed:.2f}s"
    print(f"\ncriterion 3 (10^6 sweep, 706 perfect, <60s): PASS ({elapsed:.2f}s)")


def test_criterion_4_worked_example():
    s = solve(60)
    assert s.n_max == 10
    assert s.apples_per_basket == 6
    assert s.pear_bound == pytest.approx(11.47, abs=0.01)
    assert s.surplus == 15
    (first,) = enumerate_distributions(s.n_max, 60, 1)
    assert first.counts == (0, 1, 2, 3, 4, 5, 6, 7, 8, 24)
    print("\ncriterion 4 (worked example N=60): PASS")


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    mismatches = verify_range(2000)
    elapsed = time.perf_counter() - started
    assert mismatches == []
    assert elapsed < 300.0, f"oracle run took {elapsed:.2f}s"
    print(f"\ncriterion 5 (brute force == solver, N<=2000): PASS ({elapsed:.2f}s)")


def test_criterion_6_counting_correctness():
    stalls = []
    for n_input in range(1, 41):
        n = 1
        while n * (n - 1) // 2 <= n_input:
            surplus = n_input - n * (n - 1) // 2
            count = count_distributions(n, n_input)
            assert count == sum(1 for _ in distinct_sets(n_input, n)), (n, n_input)
            if surplus == 0:
                assert count == 1
            if n_input > 1 and n * (n - 1) // 2 <= n_input - 1:
                previous = count_distributions(n, n_input - 1)
                assert count >= previous, (n, n_input)
                if n >= 2 and surplus >= 1 and count == previous:
                    stalls.append((n, n_input))
            n += 1
    note = ("strictly increasing" if not stalls
            else f"non-strict, e.g. (n, N)={stalls[0]} repeats the previous count")
    print(f"\ncriterion 6 (counting vs enumeration, N<=40): PASS "
          f"(growth in surplus for n>=2: {note})")


def test_criterion_7_prime_floor(million):
    composite = np.zeros(1_000_001, dtype=bool)
    composite[:2] = True
    for p in range(2, 1001):
        if not composite[p]:
            composite[p * p :: p] = True
    primes = np.nonzero(~composite)[0]
    assert len(primes) == 78498
    assert int(million[2]) == 2
    assert int(million[3]) == 3
    floor_primes = primes[primes >= 5]
    assert np.all(million[floor_primes] == 1)
    # and nothing else sits on the floor except N=1
    on_floor = np.nonzero(million[1:] == 1)[0] + 1
    assert len(on_floor) == 1 + len(floor_primes)
    print("\ncriterion 7 (prime floor across [5, 10^6]): PASS")


def test_criterion_8_exact_ties():
    assert solve(10).n_max == 5
    assert solve(45).n_max == 9
    assert solve(55).n_max == 11
    print("\ncriterion 8 (exact ties at N=10, 45, 55): PASS")


def test_criterion_9_determinism(tmp_path):
    contents = []
    for threads in (1, 4, 8):
        out = Path(tmp_path) / f"threads_{threads}"
        run_sweep(100_000, out, thread_count=threads)
        contents.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
    assert contents[0] == contents[1] == contents[2]
    assert len(contents[0]) == 6
    print("\ncriterion 9 (byte-identical sweeps across 1/4/8 threads): PASS")
