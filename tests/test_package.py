import os
import re
import subprocess
import sys
from pathlib import Path

import baskets
import baskets.arith
import baskets.sweep

# The public names of the package.  Adding or removing one is a deliberate
# change to this set.
PUBLIC = {
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
}

# Names that live only in their own module, not at the package root.
HOMES = {
    baskets.sweep: ("SweepSummary", "compute_records", "emit_datasets", "run_sweep"),
    baskets.arith: ("DivisorSieve", "build_sieve"),
}


def test_public_surface():
    assert len(baskets.__all__) == len(PUBLIC)
    assert set(baskets.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(baskets, name) is not None, name


def test_batch_names_have_one_home():
    for module, names in HOMES.items():
        for name in names:
            assert getattr(module, name) is not None, name
            assert name not in vars(baskets), name


def test_import_loads_numpy_only_with_the_batch_engine():
    # The benchmark's tracer reads `baskets.sweep` once `baskets.cli` is
    # imported, so the CLI must keep importing the batch engine.
    code = (
        "import sys\n"
        "import baskets\n"
        "assert 'numpy' not in sys.modules, 'import baskets loaded numpy'\n"
        "import baskets.cli\n"
        "assert getattr(baskets, 'sweep', None) is sys.modules['baskets.sweep']\n"
    )
    src = str(Path(baskets.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def test_readme_library_block_runs(tmp_path, monkeypatch):
    # the README's one python block is the library's front page; it runs as
    # written, and its sweep writes the 10^4 view under the working directory
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    [block] = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert sorted(p.name for p in (tmp_path / "datasets").iterdir()) == [
        "nmax_perfect.csv", "nmax_primes_10k.csv", "nmax_sampled.csv"]


def test_pear_distributions_have_one_home():
    # census owns every distribution; the solver answers N
    assert baskets.PearDistribution is baskets.census.PearDistribution
    for name in ("PearDistribution", "canonical_distribution", "_ascending_counts"):
        assert not hasattr(baskets.solver, name), name
