"""Seeded request mixes for each workload and the checks of their outputs.

A workload sends its requests in cycles, and every cycle of a run is the
same list.  Each slot of the list is one request kind at one size: the
middle of the slot's size range, moved by the seed within a window PHASE_JITTER
of the range wide.  Ranges are narrow where cost climbs steeply with size.  So
every seed gets its own inputs from the same grid of sizes, every cycle
costs the same, and runs differ in inputs but not in how much work they hold.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import io
import json
import random
import re
import statistics
from dataclasses import dataclass
from itertools import islice
from math import log10
from pathlib import Path
from time import perf_counter

import sympy

import reference as ref

PHASE_JITTER = 0.1


@dataclass(frozen=True)
class Request:
    kind: str  # "cli": args is the argv; "enumerate": args is (n, n_input, limit)
    args: tuple

    def __str__(self) -> str:
        if self.kind == "cli":
            return "baskets " + " ".join(self.args)
        n, n_input, limit = self.args
        return f"enumerate_distributions({n}, {n_input}, limit={limit})"


def _buckets(lo_exp: float, hi_exp: float, count: int) -> list[tuple[float, float]]:
    width = (hi_exp - lo_exp) / count
    return [(lo_exp + i * width, lo_exp + (i + 1) * width) for i in range(count)]


def _cli(*args) -> Request:
    return Request("cli", tuple(str(a) for a in args))


class Workload:
    name = ""
    deadline_s = 0.0
    reference = "python"  # the kind of work whose host speed scales the timings
    # (request, known defect it exposes); run after the measured requests
    probes: tuple[tuple[Request, str], ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self._requests: list[Request] | None = None

    def cycle(self) -> list[Request]:
        """The requests of one cycle, the same for every cycle of a run."""
        if self._requests is None:
            self._requests = self._slots()
        return self._requests

    def _slots(self) -> list[Request]:
        raise NotImplementedError

    def _u(self) -> float:
        """A slot's position in its range, in [0, 1): the middle, moved by the seed."""
        return 0.5 + PHASE_JITTER * (self.rng.random() - 0.5)

    def _log(self, lo_exp: float, hi_exp: float) -> int:
        return int(10 ** (lo_exp + (hi_exp - lo_exp) * self._u()))

    def _int(self, lo: int, hi: int) -> int:
        """An integer in [lo, hi]."""
        return lo + int((hi - lo + 1) * self._u())

    def units(self, request: Request) -> int:
        """Work units a successful request counts towards ops_per_s."""
        return 1

    def check(self, request: Request, result) -> str | None:
        """None when the output is right, else what is wrong with it.

        `result` is the stdout text for a cli request and the returned list
        for an enumeration.
        """
        raise NotImplementedError

    def traced_extras(self) -> tuple[dict, dict]:
        """Per-layer values measured apart from the request list, and their bases."""
        return {}, {}


class Sweep(Workload):
    """The batch path: one fixed sweep per request; the seed is unused."""

    name = "sweep"
    deadline_s = 30.0
    # The sweep's time splits between numpy passes over 10^7-entry arrays and
    # Python code; a Python reference alone tracked it worse than both.
    reference = "python+numpy"
    limit = 10_000_000
    speedup_repeats = 3
    primes = 664_579  # pi(10^7)
    # sha256 of each file the sweep writes, in the order it reports them
    digests = {
        "nmax_sampled.csv": "b777e9a6fc9bedf0b5e9b12c27aedfb5afb069cf954b2466a53bb1e46f1ccb3b",
        "nmax_perfect.csv": "1e3fa5cd7ea76e844b3780b4526dc33c2726bda91a69b9c04b1da0db1755a451",
        "nmax_primes_10k.csv": "9fb57afe74a50075dcd971f90f64ba329316bebbd4e5310685e10cc6a35b6821",
        "nmax_1m_sampled.csv": "8c793f67da5287f9fe82279e14f076d57c199133eba35c0529c255c738ca42d2",
        "nmax_1m_perfect.csv": "2fe31477c3a2cdcefeb5395d0993368a08d3cda6a14dff16a3fdcbd6a9323cab",
        "nmax_primes_1m.csv": "9109a8a7ab8ab84d48be05839d63e6651830a56d23abe087796ff8b30b236300",
    }

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.out = workdir / "sweep"

    def _slots(self) -> list[Request]:
        return [_cli("sweep", "--limit", self.limit, "--threads", 2, "--out", self.out)]

    def units(self, request: Request) -> int:
        return self.limit

    def traced_extras(self) -> tuple[dict, dict]:
        """compute_records on 1 and on 2 threads over one prebuilt sieve."""
        from baskets import arith, sweep

        sieve = arith.build_sieve(self.limit)
        sieve.highly_composite_table()  # built once, so both runs skip it
        times = {1: [], 2: []}
        for _ in range(self.speedup_repeats):
            for threads, samples in times.items():
                start = perf_counter()
                sweep.compute_records(self.limit, sieve, thread_count=threads)
                samples.append(perf_counter() - start)
        one, two = (statistics.median(times[t]) for t in (1, 2))
        values = {"sweep.compute_records.threads1_s": one,
                  "sweep.compute_records.threads2_s": two,
                  "sweep.compute_records.speedup_2v1": one / two}
        notes = {"sweep.compute_records.speedup_2v1":
                 f"base: 1 thread, {one:.4f} s against {two:.4f} s on 2 threads, "
                 f"medians of {self.speedup_repeats} runs each over one prebuilt sieve"}
        return values, notes

    def check(self, request: Request, result: str) -> str | None:
        # perfect values are n(n-1)/2 for odd n >= 3
        perfect = (ref.max_feasible_baskets(self.limit) - 1) // 2
        lines = result.splitlines()
        head = [f"records: {self.limit}", f"perfect values: {perfect}", f"primes: {self.primes}"]
        if lines[:3] != head:
            return f"summary {lines[:3]} != {head}"
        wrote = [f"wrote {self.out / name}" for name in self.digests]
        if len(lines) != 4 + len(wrote) or not lines[3].startswith("elapsed: ") or lines[4:] != wrote:
            return f"unexpected report lines {lines[3:]}"
        for name, digest in self.digests.items():
            if hashlib.sha256((self.out / name).read_bytes()).hexdigest() != digest:
                return f"{name} differs from the recorded bytes"
        return None


class Point(Workload):
    """Single-N requests: solve, classify and short tables."""

    name = "point"
    deadline_s = 4.0
    small_max_exp = 7  # classify and table
    table_rows = 8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.hcn = ref.highly_composite_numbers(10**12)
        self.flags = ref.Flags(self.hcn, 10**self.small_max_exp)

    def _slots(self) -> list[Request]:
        # Slots come in groups of one cost, so that the percentiles fall inside
        # a group, not at the edge between two sizes: the median among
        # fourteen sieves near 10^5.8, the 90th percentile among four near
        # 10^6.5, below only one classify near 10^7 and the longest solve.
        # Large N are solved where the cost follows the size: on a prime
        # (trial division) and on highly composite N (long canonical lists).
        solve = [self._log(lo, hi) for lo, hi in _buckets(0, 7, 9)]
        solve.append(sympy.nextprime(self._log(12, 13)))
        solve.append(self.hcn[bisect.bisect(self.hcn, self._log(10, 11.5)) - 1])
        solve.append(self.hcn[-1])  # the longest canonical list below 10^12
        requests = [_cli("solve", n, "--format", "json") for n in solve]
        cheap, mid, slow = _buckets(0, 5, 2), [(5.75, 5.85)] * 7, [(6.45, 6.55)] * 2
        for lo, hi in cheap + mid + slow + [(6.95, 7.0)]:
            requests.append(_cli("classify", self._log(lo, hi), "--format", "json"))
        for lo, hi in cheap + mid + slow:
            start = self._log(lo, hi)
            end = start + self._int(0, self.table_rows - 1)
            requests.append(_cli("table", start, end, "--format", "csv"))
        return requests

    def check(self, request: Request, result: str) -> str | None:
        command = request.args[0]
        if command == "solve":
            return self._check_solve(int(request.args[1]), result)
        if command == "classify":
            return self._check_classify(int(request.args[1]), result)
        return self._check_table(int(request.args[1]), int(request.args[2]), result)

    def _check_solve(self, n_input: int, text: str) -> str | None:
        # The canonical list can hold millions of ints: compare it in chunks
        # so the check does not outgrow the program in memory.
        key = text.find('"canonical"')
        if key < 0:
            return "no canonical key"
        start = text.index("[", key)
        stop = text.index("]", start)
        payload = json.loads(text[:start] + "[]" + text[stop + 1 :])
        keys = {"n_input", "n_max", "apples_per_basket", "pear_bound", "efficiency",
                "surplus", "canonical"}
        if set(payload) != keys:
            return f"keys {sorted(payload)}"
        n = ref.n_max(n_input)
        bound = ref.pear_bound(n_input)
        expected = {"n_input": n_input, "n_max": n, "apples_per_basket": n_input // n,
                    "surplus": n_input - ref.triangular(n)}
        got = {k: payload[k] for k in expected}
        if got != expected:
            return f"{got} != {expected}"
        if abs(payload["pear_bound"] - bound) > 1e-9 * bound:
            return f"pear_bound {payload['pear_bound']} != {bound}"
        if abs(payload["efficiency"] - n / bound) > 1e-9:
            return f"efficiency {payload['efficiency']} != {n / bound}"
        if not _int_array_matches(text, start + 1, stop, ref.canonical(n, n_input)):
            return "canonical distribution differs"
        return None

    def _check_classify(self, n_input: int, text: str) -> str | None:
        got = json.loads(text)
        expected = {"n_input": n_input, **self.flags(n_input, ref.n_max(n_input))}
        return None if got == expected else f"{got} != {expected}"

    def _check_table(self, start: int, end: int, text: str) -> str | None:
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["N", "Bnd", "n", "k", "Eff", "distribution", "class"]:
            return f"header {rows[0]}"
        if [int(r[0]) for r in rows[1:]] != list(range(start, end + 1)):
            return "rows do not cover the range"
        for n_input, bnd, n, k, eff, dist, cls in rows[1:]:
            n_input, n_exp = int(n_input), ref.n_max(int(n_input))
            bound = ref.pear_bound(n_input)
            flags = self.flags(n_input, n_exp)
            display = "plain" if flags["display_class"] == "highly_composite" else flags["display_class"]
            canon = "{" + ", ".join(map(str, ref.canonical(n_exp, n_input))) + "}"
            if (int(n), int(k), dist, cls) != (n_exp, n_input // n_exp, canon, display):
                return f"row {n_input}: {(n, k, dist, cls)}"
            if abs(float(bnd) - bound) > 0.05 + 1e-9 or abs(float(eff) - n_exp / bound) > 0.005 + 1e-9:
                return f"row {n_input}: Bnd {bnd} Eff {eff}"
        return None


def _int_array_matches(text: str, start: int, stop: int, expected,
                       chunk: int = 1 << 20) -> bool:
    """True iff text[start:stop] is the comma-separated list `expected`."""
    want = iter(expected)
    pos = start
    while pos < stop:
        end = stop if stop - pos <= chunk else text.rindex(",", pos, pos + chunk)
        values = list(map(int, text[pos:end].split(",")))
        if values != list(islice(want, len(values))):
            return False
        pos = end + 1
    return next(want, None) is None


COUNT_LINE = re.compile(r"N=(\d+) baskets=(\d+) surplus=(\d+) count=(\d+)\n")


class Combinatorics(Workload):
    """Counting, enumeration and the brute-force oracle."""

    name = "combinatorics"
    deadline_s = 4.0
    whole_tree_max_n = 22  # a limit above the count stalls from about n = 35 (a probe)
    max_surplus = 10**5
    probes = (
        (Request("enumerate", (1250, 10**6, 1)), "recursion depth grows with n"),
        (Request("enumerate", (40, ref.triangular(40) + 10, 43)),
         "a limit above the count (42) searches the whole tree"),
        (_cli("count", 10**6), "the partition DP is O(S*n): S=219375, n=1250"),
    )

    def _slots(self) -> list[Request]:
        # Slots come in groups of one cost, so that the percentiles fall inside
        # a group: the median among eleven oracle runs near L = 180, the 90th
        # percentile among five near L = 400.  Counts and enumerations of
        # 0.1-0.3 s sit between the two groups.
        requests = [_cli("count", self._log(lo, hi))
                    for lo, hi in _buckets(1, 3, 3)]
        # The DP of `count --baskets n` fills S*min(n, S) cells: draw the cell
        # count, then n <= sqrt(cells) so that S = cells / n >= n.
        for lo, hi in [(5.95, 6.05)] * 3 + [(6.25, 6.35)]:
            cells = self._log(lo, hi)
            n = self._log(log10(max(1, cells / self.max_surplus)), log10(cells) / 2)
            requests.append(_cli("count", ref.triangular(n) + cells // n, "--baskets", n))
        for _ in range(3):  # the largest limit below the count, up to 1000
            n = self._log(2.8, 2.9)
            n_input = ref.triangular(n) + self._int(30, 40)
            limit = min(ref.distribution_count_small(n, n_input) - 1, 1000)
            requests.append(Request("enumerate", (n, n_input, limit)))
        for _ in range(3):  # a limit above the count: the whole tree
            n = self._int(2, self.whole_tree_max_n)
            n_input = ref.triangular(n) + self._int(0, 20)
            above = ref.distribution_count_small(n, n_input) + self._int(1, 1000)
            requests.append(Request("enumerate", (n, n_input, above)))
        for lo, hi in _buckets(1, 1.5, 2) + [(2.23, 2.27)] * 11 + [(2.58, 2.62)] * 5:
            requests.append(_cli("oracle", "--limit", self._log(lo, hi)))
        return requests

    def check(self, request: Request, result) -> str | None:
        if request.kind == "enumerate":
            return self._check_enumeration(*request.args, result)
        if request.args[0] == "oracle":
            expected = f"checked N=1..{request.args[2]}: 0 mismatches\n"
            return None if result == expected else f"oracle printed {result!r}"
        return self._check_count(request.args, result)

    def _check_count(self, args: tuple, text: str) -> str | None:
        match = COUNT_LINE.fullmatch(text)
        if not match:
            return f"unparsed output {text[:200]!r}"
        n_input, baskets, surplus, count = map(int, match.groups())
        expected_baskets = int(args[3]) if len(args) > 2 else ref.n_max(int(args[1]))
        if (n_input, baskets, surplus) != (int(args[1]), expected_baskets,
                                           n_input - ref.triangular(expected_baskets)):
            return f"N, baskets, surplus = {(n_input, baskets, surplus)}"
        if baskets >= surplus:
            expected = ref.distribution_count_small(baskets, n_input)
            return None if count == expected else f"count {count} != p({surplus}) = {expected}"
        for modulus in ref.MODULI:
            residue = ref.distribution_count_mod(baskets, n_input, modulus)
            if count % modulus != residue:
                return f"count {count} mod {modulus} != {residue}"
        return None

    def _check_enumeration(self, n: int, n_input: int, limit: int, result) -> str | None:
        dists = [tuple(d.counts) for d in result]
        expected_len = min(limit, ref.distribution_count_small(n, n_input))
        if len(dists) != expected_len:
            return f"{len(dists)} distributions, expected {expected_len}"
        if dists[0] != tuple(ref.canonical(n, n_input)):
            return "does not start with the canonical distribution"
        if any(a >= b for a, b in zip(dists, dists[1:])):
            return "not strictly ascending"
        for d in dists:
            if len(d) != n or sum(d) != n_input or d[0] < 0 or any(a >= b for a, b in zip(d, d[1:])):
                return f"invalid distribution {d[:10]}..."
        return None


WORKLOADS = {w.name: w for w in (Sweep, Point, Combinatorics)}
