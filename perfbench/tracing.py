"""Span tracing for the traced benchmark run.

Wrappers are installed from outside the package: every public function of a
layer module is rebound, in each ``baskets`` module that holds a reference to
it, to a wrapper that records a span.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, request]``; spans live in memory and are
written out once the run ends.  A span's self time is its duration minus the
part of it that its child spans cover, so per request the self times of all
spans sum to the request span's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("arith", "solver", "census", "oracle", "sweep", "cli")

# The cli layer is timed at its entry point only, so its self time is the
# parsing, formatting and printing that happen around the calls into the
# other layers.
CLI_ENTRY_POINTS = ("main",)

# Methods traced besides module-level functions: (module, class, method).
METHODS = (("arith", "DivisorSieve", "highly_composite_table"),)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_build_sieve(counts, args, kwargs, result):
    counts["arith.build_sieve.elements"] += _arg(args, kwargs, 0, "limit")


def _count_canonical(counts, args, kwargs, result):
    counts["solver.canonical.ints"] += len(result.counts)


def _count_dp_cells(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    surplus = _arg(args, kwargs, 1, "n_input") - n * (n - 1) // 2
    counts["census.count_distributions.dp_cells"] += surplus * min(n, surplus)


def _count_yielded(counts, args, kwargs, result):
    counts["census.enumerate_distributions.yielded"] += len(result)


def _count_emitted(counts, args, kwargs, result):
    counts["sweep.emit_datasets.bytes"] += sum(Path(p).stat().st_size for p in result)


# Exact counts derived from the arguments and result of a successful call.
COMPUTED = {
    "arith.build_sieve": _count_build_sieve,
    "solver.canonical_distribution": _count_canonical,
    "census.count_distributions": _count_dp_cells,
    "census.enumerate_distributions": _count_yielded,
    "sweep.emit_datasets": _count_emitted,
}


class Tracer:
    """Records spans and per-function call and failure counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.requests = 0
        self._current: int | None = None
        self._local = threading.local()

    @contextmanager
    def request(self):
        """Root span of one request; spans opened inside it carry its id."""
        self.requests += 1
        self._current = self.requests
        try:
            with self.span("request"):
                yield
        finally:
            self._current = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        index = len(self.spans)
        record = [name, perf_counter(), None, stack[-1] if stack else None, self._current]
        self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        compute = COMPUTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            try:
                with self.span(name):
                    result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".failed"] += 1
                raise
            if compute is not None:
                compute(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced callable for the duration of the block."""
        import baskets

        modules = [baskets] + [getattr(baskets, layer) for layer in LAYERS]
        rebound = []  # (owner, attribute, original)
        for layer in LAYERS:
            module = getattr(baskets, layer)
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                if layer == "cli" and attr not in CLI_ENTRY_POINTS:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            rebound.append((owner, name, fn))
                            setattr(owner, name, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(getattr(baskets, layer), cls_name)
            fn = vars(cls)[method]
            rebound.append((cls, method, fn))
            setattr(cls, method, self.wrap(f"{layer}.{method}", fn))
        try:
            yield self
        finally:
            for owner, name, original in reversed(rebound):
                setattr(owner, name, original)

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus the union of its children."""
        children = defaultdict(list)
        for record in self.spans:
            if record[3] is not None:
                children[record[3]].append((record[1], record[2]))
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for name, start, end, parent, request in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "request": request}) + "\n")
