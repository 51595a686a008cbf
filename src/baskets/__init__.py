"""Exact solver, classifier, and batch engine for the basket puzzle:
split N apples and N pears into as many baskets as possible, every basket
holding the same number of apples and a distinct number of pears."""

from .arith import (
    CapacityError,
    DivisorList,
    DivisorSieve,
    build_sieve,
    divisors,
    is_highly_composite,
    is_prime,
    triangular,
)
from .census import (
    ClassificationFlags,
    DistributionCount,
    classify,
    count_distributions,
    enumerate_distributions,
    perfect_values,
)
from .oracle import brute_force_n_max, verify_range
from .solver import (
    InfeasibleError,
    PearDistribution,
    Solution,
    canonical_distribution,
    feasible,
    pear_bound,
    solve,
)
from .sweep import (
    SweepConfig,
    SweepData,
    SweepSummary,
    compute_records,
    emit_datasets,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ClassificationFlags",
    "DistributionCount",
    "DivisorList",
    "DivisorSieve",
    "InfeasibleError",
    "PearDistribution",
    "Solution",
    "SweepConfig",
    "SweepData",
    "SweepSummary",
    "brute_force_n_max",
    "build_sieve",
    "canonical_distribution",
    "classify",
    "compute_records",
    "count_distributions",
    "divisors",
    "emit_datasets",
    "enumerate_distributions",
    "feasible",
    "is_highly_composite",
    "is_prime",
    "pear_bound",
    "perfect_values",
    "run_sweep",
    "solve",
    "triangular",
    "verify_range",
]
