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
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from . import census, oracle
from .arith import CapacityError
from .census import ClassificationFlags
from .solver import InfeasibleError, PearDistribution, Solution, solve
from .sweep import SweepConfig, run_sweep

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

TABLE_COLUMNS = ("N", "Bnd", "n", "k", "Eff", "distribution", "class")


class UsageError(ValueError):
    """Bad command-line arguments that argparse cannot catch on its own."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
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


def format_distribution(dist: PearDistribution) -> str:
    return "{" + ", ".join(str(c) for c in dist.counts) + "}"


def solution_to_dict(solution: Solution) -> dict:
    """JSON payload; key names are a compatibility contract (see README)."""
    return {
        "n_input": solution.n_input,
        "n_max": solution.n_max,
        "apples_per_basket": solution.apples_per_basket,
        "pear_bound": solution.pear_bound,
        "efficiency": solution.efficiency,
        "surplus": solution.surplus,
        "canonical": list(solution.canonical.counts),
    }


def flags_to_dict(flags: ClassificationFlags) -> dict:
    return {
        "perfect": flags.perfect,
        "prime": flags.prime,
        "near_perfect": flags.near_perfect,
        "highly_composite": flags.highly_composite,
        "display_class": flags.display_class,
    }


@dataclass(frozen=True)
class TableRow:
    n_input: int
    bound_display: str
    n_max: int
    apples_per_basket: int
    efficiency_display: str
    distribution_text: str
    display_class: str


def table_row(solution: Solution, flags: ClassificationFlags) -> TableRow:
    # the table column mirrors row shading, which has no highly-composite color
    display = flags.display_class
    if display == "highly_composite":
        display = "plain"
    return TableRow(
        n_input=solution.n_input,
        bound_display=round_half_away(solution.pear_bound, 1),
        n_max=solution.n_max,
        apples_per_basket=solution.apples_per_basket,
        efficiency_display=round_half_away(solution.efficiency, 2),
        distribution_text=format_distribution(solution.canonical),
        display_class=display,
    )


def cmd_solve(args: argparse.Namespace) -> int:
    solution = solve(args.n)
    if args.format == "json":
        print(json.dumps(solution_to_dict(solution)))
        return EXIT_OK
    print(f"N={solution.n_input}: {solution.n_max} baskets, "
          f"{solution.apples_per_basket} apples per basket")
    print(f"pear bound {round_half_away(solution.pear_bound, 2)}, "
          f"efficiency {round_half_away(solution.efficiency, 2)}, "
          f"surplus {solution.surplus}")
    print(f"pears: {format_distribution(solution.canonical)}")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    flags = census.classify(solve(args.n))
    if args.format == "json":
        print(json.dumps({"n_input": args.n, **flags_to_dict(flags)}))
        return EXIT_OK
    for name, value in flags_to_dict(flags).items():
        print(f"{name}={value}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    if args.start > args.end:
        raise UsageError(f"empty range: {args.start} > {args.end}")
    rows = []
    for n in range(args.start, args.end + 1):
        solution = solve(n)
        rows.append(table_row(solution, census.classify(solution)))

    cells = [(str(r.n_input), r.bound_display, str(r.n_max), str(r.apples_per_basket),
              r.efficiency_display, r.distribution_text, r.display_class)
             for r in rows]
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        writer.writerows(cells)
    elif args.format == "markdown":
        print("| " + " | ".join(TABLE_COLUMNS) + " |")
        print("|" + "|".join(" --- " for _ in TABLE_COLUMNS) + "|")
        for row in cells:
            print("| " + " | ".join(row) + " |")
    else:
        widths = [max(len(col), *(len(row[i]) for row in cells))
                  for i, col in enumerate(TABLE_COLUMNS)]
        print("  ".join(col.rjust(widths[i]) for i, col in enumerate(TABLE_COLUMNS)))
        for row in cells:
            print("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    baskets = args.baskets if args.baskets is not None else solve(args.n).n_max
    result = census.count_distributions(baskets, args.n)
    surplus = args.n - baskets * (baskets - 1) // 2
    print(f"N={args.n} baskets={baskets} surplus={surplus} count={result.count}")
    return EXIT_OK


def cmd_perfect(args: argparse.Namespace) -> int:
    pairs = census.perfect_values(args.limit)
    if args.format == "csv":
        print("N,nmax")
        for n_input, n in pairs:
            print(f"{n_input},{n}")
    else:
        for n_input, n in pairs:
            print(f"N={n_input} baskets={n}")
        print(f"{len(pairs)} perfect values <= {args.limit}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(limit=args.limit, output_dir=Path(args.out),
                         stride=args.stride, thread_count=args.threads)
    summary = run_sweep(config)
    print(f"records: {summary.record_count}")
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


def build_parser() -> argparse.ArgumentParser:
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
