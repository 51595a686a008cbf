"""Classification of N and exact counting/enumeration of pear distributions."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import add, lt

from .arith import is_highly_composite, triangular
from .solver import Solution, max_baskets, require_feasible

# Display precedence when several flags are set (classes are non-exclusive).
DISPLAY_ORDER = ("perfect", "prime", "near_perfect", "highly_composite")


@dataclass(frozen=True)
class PearDistribution:
    """Strictly increasing pear counts, one per basket."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if not self.counts:
            raise ValueError("a distribution needs at least one basket")
        if self.counts[0] < 0:
            raise ValueError("pear counts must be non-negative")
        if not all(map(lt, self.counts, self.counts[1:])):
            raise ValueError("pear counts must be strictly increasing")


def classify(solution: Solution) -> dict:
    """Exactly the object `classify --format json` prints for one N, apart from n_input.

    Its keys, in this order, are the compatibility contract (see README):
    the non-exclusive flags perfect, prime, near_perfect and
    highly_composite, decided in exact integers, then display_class, the
    first set flag in DISPLAY_ORDER or "plain".

    Perfect is surplus 0: then N = n(n-1)/2 with n | N, so (n-1)/2 = N/n is
    an integer and n is odd (n = 1 cannot occur, as T(1) = 0 < N).
    Near-perfect is efficiency > 9/10, i.e. 20n - 9 > 9 sqrt(1 + 8N),
    squared; `efficiency` is for display.
    Prime is read off the answer, as the sweep does: a composite N has its
    least divisor a <= sqrt(N), so a(a-1)/2 < N and n_max >= a >= 2; a prime
    p > 3 has only the divisors 1 and p, with p(p-1)/2 > p, so n_max = 1;
    2 and 3 are their own answers.
    """
    n, n_max = solution.n_input, solution.n_max
    perfect = solution.surplus == 0
    lead = 20 * n_max - 9
    flags = {
        "perfect": perfect,
        "prime": n_max == 1 and n > 1 or n in (2, 3),
        "near_perfect": lead > 0 and lead * lead > 81 * (1 + 8 * n) and not perfect,
        "highly_composite": is_highly_composite(n),
    }
    flags["display_class"] = next((name for name in DISPLAY_ORDER if flags[name]), "plain")
    return flags


def count_distributions(n: int, n_input: int) -> int:
    """Exact number of sets of n distinct non-negative integers summing to n_input.

    Subtracting the forced minimum {0, 1, ..., n-1} leaves a surplus S to
    spread while keeping the counts distinct; the arrangements correspond
    one-to-one with partitions of S into at most n parts, i.e. (conjugating)
    into parts of size at most n.  The dynamic programme adds one part size
    at a time, from min(n, S) down to 2, as ways[s] += ways[s - part] for
    ascending s; largest parts first keep the counts small for longer.  Each
    update runs in C: for part^2 <= S as one running sum per residue class
    mod part, otherwise as one vector add per block of part cells, so a part
    costs min(part, S/part) Python-level steps.  Parts of size 1 then make
    up every total to S, which is sum(ways).  O(S*n) exact bignum adds.
    """
    require_feasible(n, n_input)
    surplus = n_input - triangular(n)
    ways = [1] + [0] * surplus
    for part in range(min(n, surplus), 1, -1):
        if part * part <= surplus:
            for r in range(part):
                ways[r::part] = accumulate(ways[r::part])
        else:
            for lo in range(part, surplus + 1, part):
                ways[lo : lo + part] = map(add, ways[lo : lo + part], ways[lo - part : lo])
    return sum(ways)


def _ascending_counts(n: int, n_input: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing n-tuples summing to n_input, in lexicographic order.

    The first is the canonical list.  Each step makes the successor in place:
    at the last i < n-1 where v = counts[i] + 1 leaves room for the k = n-1-i
    larger values after it (least sum k*v + T(k+1)), counts[i:-1] becomes
    v, ..., v+k-1 and the last count takes the rest.  O(n) memory, O(n) per
    result, no recursion.
    """
    counts = [*range(n - 1), n_input - triangular(n - 1)]
    while True:
        yield tuple(counts)
        tail = counts[-1]
        for i in range(n - 2, -1, -1):
            tail += counts[i]
            v, k = counts[i] + 1, n - 1 - i
            if tail - v >= k * v + triangular(k + 1):
                counts[i:-1] = range(v, v + k)
                counts[-1] = tail - k * v - triangular(k)
                break
        else:
            return


def enumerate_distributions(n: int, n_input: int, limit: int) -> list[PearDistribution]:
    """First `limit` valid distributions in lexicographic order.

    They come from the lexicographic successor `_ascending_counts`: O(n) memory,
    O(n) per result, no recursion.  The first is the canonical distribution;
    when not truncated, the list length equals count_distributions(n, n_input).
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    require_feasible(n, n_input)
    chosen = islice(_ascending_counts(n, n_input), limit)
    return [PearDistribution(counts) for counts in chosen]


def perfect_values(limit: int) -> Iterator[tuple[int, int]]:
    """The (N, n) with N <= limit, N = n(n-1)/2 and n odd, ascending, as an iterator.

    These are the inputs where the pear constraint is exactly tight and the
    tight basket count still divides N; efficiency is exactly 1 there.  This
    is the one statement of the rule; callers read the pairs as they come,
    in O(1) memory.  A limit below 1 raises ValueError at the call.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    return ((triangular(n), n) for n in range(3, max_baskets(limit) + 1, 2))
