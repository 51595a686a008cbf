"""Robustness matrix: each row runs `python -m baskets.cli` in a subprocess
with a 1 GB address-space limit and a timeout.

A row fails if the process times out, prints a traceback, exits with the
wrong code, or ends stderr with a line that does not start with the row's
prefix.  A row with the prefix "" wants stderr empty.  A sweep row without
`--out` writes to the test's temporary directory; a row with `--out` gets a
file of that name there, in the way of the datasets.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 30

TOO_MANY_DIGITS = "9" * 4301
# two 300-digit primes: N is below the pear-bound cutoff, and rho, charged by
# the size of its cofactor, gives up on it in about the time of 128 bits
SEMIPRIME_600_DIGITS = (10**299 + 669) * (10**299 + 2721)

# argv, exit code, prefix of the last stderr line
ROWS = [
    (["sweep", "--limit", "2147483648"], 3, "error: sweep limit must be at most 2147483647"),
    (["oracle", "--limit", "10001"], 2, "baskets oracle: error: argument --limit: limit capped at"),
    (["table", "5", "4"], 2, "error: empty range: 5 > 4"),
    (["solve", TOO_MANY_DIGITS], 2,
     "baskets solve: error: argument n: 4301 characters exceed the 4300-digit integer limit"),
    (["sweep", "--limit", "1000000"], 0, ""),
    (["count", "1000000000000"], 3, "error: the count request does not fit in memory"),
    (["sweep", "--limit", "2147483647", "--out", "taken"], 4, "error: [Errno 17] File exists"),
    (["count", "60", "--baskets", "12"], 3,
     "error: 12 baskets cannot hold distinct pear counts summing to 60"),
    (["classify", "1000000000039"], 0, ""),
    (["solve", str(2**61 - 1), "--format", "json"], 0, ""),
    (["classify", str(2**61 - 1)], 0, ""),
    (["classify", str(10**30)], 0, ""),
    (["classify", str((10**14 + 31) ** 3)], 0, ""),
    (["classify", "--format", "json", str(10**617)], 3,
     "error: the pear bound exceeds float range for N above about 1.6e616"),
    # "--format text" keeps the id apart from the 10^30 row's
    (["classify", "--format", "text", str(SEMIPRIME_600_DIGITS)], 3, "error: cannot factor"),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("argv,code,prefix", ROWS, ids=[" ".join(row[0])[:40] for row in ROWS])
def test_row(tmp_path, argv, code, prefix):
    if "--out" in argv:  # the row's --out names a file in the way of the datasets
        (tmp_path / argv[argv.index("--out") + 1]).write_text("")
    elif argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path)]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONINTMAXSTRDIGITS": "4300"}
    result = subprocess.run([sys.executable, "-m", "baskets.cli", *argv],
                            capture_output=True, text=True, timeout=TIMEOUT_S,
                            env=env, cwd=tmp_path, preexec_fn=_limit_memory)
    assert "Traceback" not in result.stderr
    assert result.returncode == code, result.stderr
    if not prefix:
        assert result.stderr == ""
    else:
        assert result.stderr.splitlines()[-1].startswith(prefix), result.stderr[-300:]
    assert TOO_MANY_DIGITS not in result.stderr
