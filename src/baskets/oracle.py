"""Brute-force cross-check for the solver.

Recomputes the answer from scratch: divisors by direct remainder scan, and
achievability of each basket count by subset-sum search over the explicit
value set {0, ..., L}.  No minimum-sum shortcut and no shared code with the
solver, so agreement is meaningful.

One search serves a whole range.  A set of distinct values summing to N
contains no value above N, so the values in (N, L] only ever reach sums
above N: the bits 0..N of the table built for L are exactly those of the
table built for N.  N splits into d baskets iff bit N of row d is set, and
`verify_range(L)` reads every N <= L from one table.
"""

from __future__ import annotations

from .solver import solve

# One subset-sum table over [0, L] costs O(L^2 * sqrt(L)) bit operations.
MAX_LIMIT = 10_000


def reachable_basket_counts(n: int) -> list[int]:
    """Bitmask rows: bit s of row c is set iff some c distinct values in
    [0, n] sum to s.  Row list stops growing once no larger selection fits."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    mask = (1 << (n + 1)) - 1
    rows = [1]  # row 0: empty selection reaches sum 0
    for v in range(n + 1):
        keep = mask >> v  # sums that still fit once v is added
        if rows[-1] & keep:
            rows.append(0)
        for c in range(len(rows) - 1, 0, -1):
            rows[c] |= (rows[c - 1] & keep) << v
    return rows


def _largest_reachable_divisor(n: int, rows: list[int]) -> int:
    """Largest d dividing n with bit n of rows[d] set; rows must cover n."""
    for d in range(min(n, len(rows) - 1), 0, -1):
        if n % d == 0 and rows[d] >> n & 1:
            return d
    raise AssertionError(f"no achievable basket count for n={n}")  # d=1 always works


def brute_force_n_max(n: int) -> int:
    """Largest basket count that divides n and can absorb the pears."""
    return _largest_reachable_divisor(n, reachable_basket_counts(n))


def verify_range(limit: int) -> list[tuple[int, int, int]]:
    """Compare brute force against the solver for every N in [1, limit].

    Returns (N, brute_force, solver) triples for any disagreement.
    """
    if not 1 <= limit <= MAX_LIMIT:
        raise ValueError(f"limit must be in [1, {MAX_LIMIT}], got {limit}")
    rows = reachable_basket_counts(limit)
    mismatches = []
    for n in range(1, limit + 1):
        expected = _largest_reachable_divisor(n, rows)
        got = solve(n).n_max
        if expected != got:
            mismatches.append((n, expected, got))
    return mismatches
