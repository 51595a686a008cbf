"""Command-line front end.

Subcommands: solve, table, classify, count, perfect, sweep, oracle.
Exit codes: 0 success, 1 oracle mismatch, 2 usage error, 3 domain error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Iterator
from decimal import ROUND_HALF_UP, Decimal
from functools import cache

from . import census, oracle
from .arith import CapacityError, triangular
from .solver import InfeasibleError, Solution, solve
from .sweep import run_sweep

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

TABLE_COLUMNS = ("N", "Bnd", "n", "k", "Eff", "distribution", "class")
_CHUNK = 1 << 16


class UsageError(ValueError):
    """Bad command-line arguments that argparse cannot catch on its own."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # CPython 3.11 and 3.10.7+ refuse int() of more digits than this (0: no limit)
        max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if max_digits and len(text) > max_digits:
            raise argparse.ArgumentTypeError(
                f"{len(text)} characters exceed the {max_digits}-digit integer limit "
                "(sys.get_int_max_str_digits())") from None
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _oracle_limit(text: str) -> int:
    value = _positive_int(text)
    if value > oracle.MAX_LIMIT:
        raise argparse.ArgumentTypeError(
            f"limit capped at {oracle.MAX_LIMIT} (exhaustive search), got {value}"
        )
    return value


def round_half_away(value: float, places: int) -> str:
    """Decimal string with ties rounded away from zero (11.466 -> '11.5')."""
    quantum = Decimal(1).scaleb(-places)
    return str(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def _canonical_chunks(solution: Solution) -> Iterator[str]:
    """The canonical list {0, 1, ..., n-2, (n-1)+S} as text, in blocks of 2^16 ints.

    Joined, they are the counts of enumerate_distributions(n_max, N, 1)[0],
    ", "-separated; valid by construction, so neither built nor checked.
    """
    last = solution.n_max - 1
    for lo in range(0, last, _CHUNK):
        yield ", ".join(map(str, range(lo, min(lo + _CHUNK, last)))) + ", "
    yield str(last + solution.surplus)


def table_row(solution: Solution, flags: dict) -> tuple[str, ...]:
    """The cells of one table row, in TABLE_COLUMNS order; `flags` is from census.classify."""
    # the table column mirrors row shading, which has no highly-composite color
    display = flags["display_class"]
    if display == "highly_composite":
        display = "plain"
    return (
        str(solution.n_input),
        round_half_away(solution.pear_bound, 1),
        str(solution.n_max),
        str(solution.apples_per_basket),
        round_half_away(solution.efficiency, 2),
        "{" + "".join(_canonical_chunks(solution)) + "}",
        display,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    solution = solve(args.n)
    out = sys.stdout
    if args.format == "json":
        # the scalar keys are Solution's fields, in order (see README);
        # "canonical" comes last and is written in blocks
        head = json.dumps(vars(solution))
        out.write(head[:-1] + ', "canonical": [')
        out.writelines(_canonical_chunks(solution))
        out.write("]}\n")
        return EXIT_OK
    print(f"N={solution.n_input}: {solution.n_max} baskets, "
          f"{solution.apples_per_basket} apples per basket")
    print(f"pear bound {round_half_away(solution.pear_bound, 2)}, "
          f"efficiency {round_half_away(solution.efficiency, 2)}, "
          f"surplus {solution.surplus}")
    out.write("pears: {")
    out.writelines(_canonical_chunks(solution))
    out.write("}\n")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    flags = census.classify(solve(args.n))
    if args.format == "json":
        print(json.dumps({"n_input": args.n, **flags}))
        return EXIT_OK
    for name, value in flags.items():
        print(f"{name}={value}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    if args.start > args.end:
        raise UsageError(f"empty range: {args.start} > {args.end}")
    rows = (table_row(solution, census.classify(solution))
            for solution in map(solve, range(args.start, args.end + 1)))
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(rows)
    elif args.format == "markdown":
        print("| " + " | ".join(TABLE_COLUMNS) + " |")
        print("|" + "|".join(" --- " for _ in TABLE_COLUMNS) + "|")
        for row in rows:
            print("| " + " | ".join(row) + " |")
    else:
        cells = list(rows)
        widths = [max(len(col), *(len(row[i]) for row in cells))
                  for i, col in enumerate(TABLE_COLUMNS)]
        print("  ".join(col.rjust(widths[i]) for i, col in enumerate(TABLE_COLUMNS)))
        for row in cells:
            print("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    baskets = args.baskets if args.baskets is not None else solve(args.n).n_max
    count = census.count_distributions(baskets, args.n)
    surplus = args.n - triangular(baskets)
    print(f"N={args.n} baskets={baskets} surplus={surplus} count={count}")
    return EXIT_OK


def cmd_perfect(args: argparse.Namespace) -> int:
    pairs = census.perfect_values(args.limit)
    out = sys.stdout
    if args.format == "csv":
        out.write("N,nmax\n")
        out.writelines(f"{n_input},{n}\n" for n_input, n in pairs)
        return EXIT_OK
    count = 0
    for count, (n_input, n) in enumerate(pairs, 1):
        out.write(f"N={n_input} baskets={n}\n")
    out.write(f"{count} perfect values <= {args.limit}\n")
    return EXIT_OK


@cache
def _keep_freed_blocks() -> None:
    """Have glibc keep freed sweep blocks in the heap for reuse.

    The sweep's per-block arrays (0.1-2 MiB each) sit above glibc's default
    128 KiB mmap threshold, so each is mapped, touched page by page and
    unmapped again: about 580 page faults per 10^7 sweep, whose cost
    follows the host's memory load.  Pinning the thresholds at the values
    glibc's own sliding rule caps at (mmap 32 MiB, trim 64 MiB) serves them
    from heap pages already faulted in.  No-op off glibc.
    """
    import ctypes  # only the sweep needs it

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def cmd_sweep(args: argparse.Namespace) -> int:
    _keep_freed_blocks()
    summary = run_sweep(args.limit, args.out, args.stride, args.threads)
    print(f"records: {args.limit}")
    print(f"perfect values: {summary.perfect_count}")
    print(f"primes: {summary.prime_count}")
    print(f"elapsed: {summary.elapsed_seconds:.2f}s")
    for path in summary.paths:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    mismatches = oracle.verify_range(args.limit)
    for n, expected, got in mismatches:
        print(f"MISMATCH N={n}: brute force {expected}, solver {got}")
    print(f"checked N=1..{args.limit}: {len(mismatches)} mismatches")
    return EXIT_MISMATCH if mismatches else EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    Each parse fills a fresh Namespace, and the ``cmd_*`` handlers look up
    the functions they call when they run, so reuse carries no state.
    """
    parser = argparse.ArgumentParser(
        prog="baskets",
        description="Split N apples and N pears into the most baskets with "
                    "equal apples and distinct pears per basket.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a single N")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="classification flags for a single N")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table", help="results table for a range of N")
    p.add_argument("start", type=_positive_int)
    p.add_argument("end", type=_positive_int)
    p.add_argument("--format", choices=("plain", "csv", "markdown"), default="plain")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("count", help="number of valid pear distributions")
    p.add_argument("n", type=_positive_int)
    p.add_argument("--baskets", type=_positive_int, default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("perfect", help="list perfect values up to a limit")
    p.add_argument("--limit", type=_positive_int, required=True)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_perfect)

    p = sub.add_parser("sweep", help="batch-solve [1, limit] and emit CSV datasets")
    p.add_argument("--limit", type=_positive_int, required=True)
    p.add_argument("--stride", type=_positive_int, default=None)
    p.add_argument("--out", default="sweep_out")
    p.add_argument("--threads", type=_positive_int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle", help="cross-check the solver by brute force")
    p.add_argument("--limit", type=_oracle_limit, required=True)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:
        print(f"error: the {args.command} request does not fit in memory", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
