"""Host speed reference, and the child process that measures set-up time.

    PYTHONPATH=src python3 perfbench/probe.py

Run as a script, it imports ``baskets`` and writes ``ready`` to stdout at
once, so that the parent can time spawn-to-ready.  Then it writes
`host_slowness("python")`.

The reference loops are fixed work that uses nothing from the package: their
time says how fast the host runs that kind of work at the moment.
"""

import sys
from time import perf_counter

# Seconds each loop takes on the host that scaled times refer to: about the
# quick phases of the 2-vCPU VM the benchmark was written on.
PYTHON_LOOP_S = 0.0030
NUMPY_LOOP_S = 0.0090


def python_loop() -> int:
    """Interpreter work: small-int arithmetic, a list, a sort and a dict."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    values = [(i * 7919) % 1000 for i in range(8_000)]
    values.sort()
    return total + len({v: v for v in values})


def numpy_loop() -> int:
    """Array passes over 4 MB, beyond the caches, as in a sieve."""
    import numpy

    a = numpy.arange(500_000, dtype=numpy.int64)
    return int(numpy.cumsum((a * 3 + 1) % 7)[-1])


def _time(loop) -> float:
    start = perf_counter()
    loop()
    return perf_counter() - start


def host_slowness(kind: str) -> float:
    """How many times slower than the reference host this host now runs the
    `kind` of work: "python", or "python+numpy" (the geometric mean of both)."""
    slowness = _time(python_loop) / PYTHON_LOOP_S
    if kind == "python+numpy":
        slowness = (slowness * _time(numpy_loop) / NUMPY_LOOP_S) ** 0.5
    return slowness


if __name__ == "__main__":
    import baskets  # noqa: F401  (the set-up being timed)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.stdout.write(f"{host_slowness('python')!r}\n")
