import baskets

# The public names of the package.  Adding or removing one is a deliberate
# change to this set.
PUBLIC = {
    "CapacityError",
    "DivisorSieve",
    "InfeasibleError",
    "PearDistribution",
    "Solution",
    "SweepConfig",
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
}


def test_public_surface():
    assert len(baskets.__all__) == len(PUBLIC)
    assert set(baskets.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(baskets, name) is not None, name
