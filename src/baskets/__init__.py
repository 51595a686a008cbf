"""Exact solver and classifier for the basket puzzle: split N apples and
N pears into as many baskets as possible, every basket holding the same
number of apples and a distinct number of pears.

The batch engine is :mod:`baskets.sweep`; it needs numpy, so this package
root does not import it.
"""

from .arith import (
    CapacityError,
    divisors,
    is_highly_composite,
    is_prime,
    triangular,
)
from .census import (
    PearDistribution,
    classify,
    count_distributions,
    enumerate_distributions,
    perfect_values,
)
from .oracle import brute_force_n_max, verify_range
from .solver import (
    InfeasibleError,
    Solution,
    feasible,
    pear_bound,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "InfeasibleError",
    "PearDistribution",
    "Solution",
    "brute_force_n_max",
    "classify",
    "count_distributions",
    "divisors",
    "enumerate_distributions",
    "feasible",
    "is_highly_composite",
    "is_prime",
    "pear_bound",
    "perfect_values",
    "solve",
    "triangular",
    "verify_range",
]
