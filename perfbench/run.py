"""Benchmark of the baskets package: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload point --seed 1 --seconds 15 --trace 0

The run imports the package from ``src/`` of the checkout it sits in and calls
it only through ``baskets.cli.main(argv)`` (stdout captured) and
``baskets.census.enumerate_distributions``.  One client sends each request
after the previous one returns (a closed loop).  Every output is checked
outside the timed region; a request fails on an exception, a non-zero exit
code, a wrong output or an overrun of the workload's per-request deadline.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` of requests,
with every timing scaled to a reference host speed (see `run_untraced`).
``--trace 1`` runs a fixed request list twice, untraced and then traced, and
reports the per-layer metrics.  Either way the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the metric names
and units are those of ``BENCHMARK.json``.  A fuller record of the run goes
to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout, nullcontext
from pathlib import Path
from time import perf_counter

from probe import host_slowness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

SETUP_SAMPLES = 9
TRACE_CYCLES = 2
READY = b"ready\n"
PROBE = Path(__file__).resolve().parent / "probe.py"


class DeadlineExceeded(Exception):
    pass


class NonZeroExit(Exception):
    def __init__(self, code, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()[:200]}")
        self.code = code


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class Runner:
    """Runs requests in this process and tallies their outcomes."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []  # a failed request counts at least the deadline
        self.wall = 0.0
        self.attempted = 0
        self.units = 0
        self.stdout_bytes = 0
        self.failures: Counter = Counter()
        self.examples: dict[str, str] = {}

    def _execute(self, request):
        """The stdout text of a cli request, or the list an enumeration returns."""
        import baskets.census
        import baskets.cli

        if request.kind == "enumerate":
            return baskets.census.enumerate_distributions(*request.args)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = baskets.cli.main(list(request.args))
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise NonZeroExit(code, stderr.getvalue())
        return stdout.getvalue()

    def run(self, request) -> float:
        """Runs one request; returns the latency it counts (failures: at least the deadline)."""
        self.attempted += 1
        deadline = self.workload.deadline_s
        in_request = self.tracer.request() if self.tracer else nullcontext()
        cause = detail = None
        signal.setitimer(signal.ITIMER_REAL, deadline)
        start = perf_counter()
        try:
            with in_request:
                result = self._execute(request)
        except DeadlineExceeded:
            cause, detail = "deadline", f"over {deadline} s"
        except NonZeroExit as exc:
            cause, detail = f"exit {exc.code}", str(exc)
        except Exception as exc:  # the program's own failure; the run goes on
            cause, detail = type(exc).__name__, str(exc)[:200]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
        self.wall += elapsed

        if cause is None:  # outside the timed region from here on
            if request.kind == "cli":
                self.stdout_bytes += len(result.encode())
            try:
                detail = self.workload.check(request, result)
            except Exception as exc:
                detail = f"unparsable output ({type(exc).__name__}: {exc})"
            if detail is not None:
                cause = "wrong output"
        if cause is None:
            self.units += self.workload.units(request)
        else:
            self.failures[cause] += 1
            self.examples.setdefault(cause, f"{request}: {detail}")
            elapsed = max(elapsed, deadline)
        self.latencies.append(elapsed)
        return elapsed

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def failure_report(self) -> dict:
        return {cause: {"count": n, "example": self.examples[cause]}
                for cause, n in self.failures.items()}


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter to `import baskets` done,
    divided by the host slowness that interpreter measures right after."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(PROBE)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        slowness = proc.stdout.read()
    if line != READY or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed / float(slowness)


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(workload, seconds: float) -> tuple[dict, dict, Runner]:
    """End-to-end values from whole cycles of requests sent for `seconds`.

    The host is shared, and its speed drifts by tens of percent within a
    minute.  So `probe.host_slowness` runs a reference loop between every
    two requests, outside the timed region, and each latency is divided by
    the mean of the slowness measured before and after it.  That gives its
    time on the reference host.
    """
    runner = Runner(workload)
    scaled, slowness, setup = [], [], []  # one setup sample after each cycle
    before = host_slowness(workload.reference)
    slowness.append(before)
    while runner.wall < seconds:
        for request in workload.cycle():
            elapsed = runner.run(request)
            after = host_slowness(workload.reference)
            slowness.append(after)
            scaled.append(elapsed * 2 / (before + after))
            before = after
        setup.append(measure_setup())
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(scaled)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": runner.wall,
        "ops_per_s": runner.units / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_p90_ms": percentile(scaled, 90) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "error_ratio": runner.failed / runner.attempted,
    }
    samples = {
        "setup_s": f"median of {len(setup)} fresh processes, scaled",
        "wall_s": "1 timed loop, not scaled",
        "ops_per_s": f"{runner.units} units / {sum(scaled):.4f} s, scaled",
        "latency_p50_ms": f"{n} requests, scaled",
        "latency_p90_ms": f"{n} requests, {n - int(0.9 * n)} above p90, scaled",
        "peak_rss_mb": "1 process",
        "error_ratio": f"{runner.failed}/{runner.attempted} requests",
        "host_slowness": f"median {statistics.median(slowness):.3f} over {len(slowness)} samples "
                         f"of the {workload.reference} reference",
        "unscaled": {"ops_per_s": runner.units / runner.wall,
                     "latency_p50_ms": statistics.median(runner.latencies) * 1e3,
                     "latency_p90_ms": percentile(runner.latencies, 90) * 1e3},
    }
    return values, samples, runner


def run_probes(workload, tracer=None) -> Runner:
    """Requests that hit known defects, run after the measured requests."""
    runner = Runner(workload, tracer)
    for request, _ in workload.probes:
        runner.run(request)
    return runner


def run_traced(workload, spans_path: Path) -> tuple[dict, dict, Runner, Runner]:
    """Per-layer values from a fixed request list run untraced and traced."""
    from tracing import Tracer

    requests = [r for _ in range(TRACE_CYCLES) for r in workload.cycle()]
    tracer = Tracer()
    plain, traced = Runner(workload), Runner(workload, tracer)
    # each request runs untraced and traced back to back, in alternating
    # order, so that neither side always meets the colder process
    for i, request in enumerate(requests):
        for runner in (plain, traced) if i % 2 == 0 else (traced, plain):
            with tracer.installed() if runner is traced else nullcontext():
                runner.run(request)
    with tracer.installed():
        probes = run_probes(workload, tracer)
    tracer.write(spans_path)

    self_times = tracer.self_times()
    per_request = defaultdict(float)
    root_duration = {}
    self_s = defaultdict(float)
    for (name, start, end, _, request), own in zip(tracer.spans, self_times):
        self_s[name] += own
        per_request[request] += own
        if name == "request":
            root_duration[request] = end - start
    worst = max(abs(per_request[r] - d) for r, d in root_duration.items())
    if worst > 1e-6:
        raise RuntimeError(f"self times miss the request wall time by {worst} s")

    values = {f"{name}.self_s": v for name, v in self_s.items() if name != "request"}
    values.update(tracer.counts)
    values["arith.build_sieve.elements_per_request"] = (
        tracer.counts["arith.build_sieve.elements"] / tracer.requests)
    values["cli.stdout_bytes"] = traced.stdout_bytes + probes.stdout_bytes
    values["trace.overhead"] = traced.wall / plain.wall
    extra_values, extra_notes = workload.traced_extras()
    values.update(extra_values)
    samples = {
        "requests": f"{tracer.requests} traced ({len(requests)} measured + "
                    f"{probes.attempted} probes), {len(requests)} untraced",
        "trace.overhead": f"{traced.wall:.4f} s traced / {plain.wall:.4f} s untraced",
        "self_time_check": f"per request, self times sum to the request span within {worst:.2e} s",
        **extra_notes,
    }
    return values, samples, traced, probes


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    import numpy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "baskets" / "__init__.py").is_file():
        print(f"error: no baskets package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import baskets  # noqa: F401  (fails the run early if the package is broken)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGALRM, _on_alarm)
    TMP_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=TMP_DIR))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            values, samples, runner, probes = run_traced(workload, OUT_DIR / f"{tag}-spans.jsonl")
        else:
            values, samples, runner = run_untraced(workload, args.seconds)
            probes = run_probes(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # the result line carries exactly the metrics BENCHMARK.json names; the
    # printout adds the two end-to-end figures that are not gated
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    units = wanted if args.trace else {**wanted, "wall_s": "s", "error_ratio": "-"}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "machine": machine(),
        "deadline_s": workload.deadline_s,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit,
                           "samples": samples.get(name, "")} for name, unit in units.items()},
        "notes": {k: v for k, v in samples.items() if k not in units},
        "failures": runner.failure_report(),
        "known_defect_probes": {
            "attempted": probes.attempted, "failed": probes.failed,
            "failures": probes.failure_report(),
            "defects": {str(r): why for r, why in workload.probes},
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {report['commit']}  deadline {workload.deadline_s} s")
    print("machine " + json.dumps(report["machine"]))
    for name, m in report["metrics"].items():
        label = "" if not args.trace else ("computed" if m["unit"] in ("count", "bytes") else "measured")
        if args.trace and not values.get(name):
            label = "not reached"
        print(f"  {name:44} {m['value']:>16.6g} {m['unit']:6} {label:11} {m['samples']}")
    for key, note in report["notes"].items():
        print(f"  {key}: {note}")
    print(f"failures: {runner.failed}/{runner.attempted} requests "
          + json.dumps(report["failures"]))
    if probes.attempted:
        print(f"known-defect probes: {probes.failed}/{probes.attempted} failed "
              + json.dumps(report["known_defect_probes"]["failures"]))
    print(json.dumps({
        "correct": "wrong output" not in runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
