"""In-memory spans around the benchmark's calls into the library.

A span is (instance, name, parent, start_ns, end_ns).  Spans stay in memory
and are aggregated when the run ends into ``<module>.<call>.<stat>`` metrics:
``calls`` (count), ``total_ms`` (inclusive busy time) and ``p50_us`` (median
per call).  Counters read off call results (trace size, unsqueezed Euler
planes, passive elements) are recorded at the same boundaries.

``intercept`` additionally wraps the library functions listed in NESTED
wherever another library module calls them (for example ``williamson`` inside
``synthesize``), so their spans nest under the benchmark's span.  Only module
globals that still refer to the listed function are wrapped, and every one is
restored on exit.
"""

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from workloads import mm

# Library calls the benchmark makes directly, as <module>.<call>.
DIRECT_CALLS = (
    "core.CovarianceMatrix",
    "core.symplectic_eigenvalues",
    "core.williamson",
    "core.euler_decompose",
    "marginals.local_diagonal",
    "marginals.check_mixed",
    "entropy.entropy_report",
    "synthesis.synthesize",
    "synthesis.synthesize_pure",
    "synthesis.replay_trace",
    "circuits.circuit_from_mixed",
    "circuits.circuit_from_pure",
    "circuits.serialize_parse",
    "circuits.replay_circuit",
)
CALL_STATS = (("calls", "count"), ("total_ms", "ms"), ("p50_us", "us"))

# Functions also timed where other library modules call them.
NESTED = {
    "core.williamson": mm.williamson,
    "core.euler_decompose": mm.euler_decompose,
    "core.symplectic_eigenvalues": mm.symplectic_eigenvalues,
    "marginals.local_diagonal": mm.local_diagonal,
    "marginals.check_mixed": mm.check_mixed,
    "synthesis.replay_trace": mm.replay_trace,
}

COUNTS = (
    "core.euler_decompose.unit_planes",
    "synthesis.trace_steps",
    "synthesis.trace_floats",
    "circuits.passive_ops",
)
UNIT_PLANE_TOL = 1e-9


def _unit_planes(factors) -> dict:
    return {"core.euler_decompose.unit_planes": int(np.sum(factors.z - 1.0 <= UNIT_PLANE_TOL))}


def _trace_counts(trace) -> dict:
    """Steps of a synthesis trace and the float entries in their fields."""
    floats = 0
    for step in trace.steps:
        for value in vars(step).values():
            arr = np.asarray(value)
            if arr.dtype.kind == "f":
                floats += arr.size
    return {"synthesis.trace_steps": len(trace.steps), "synthesis.trace_floats": floats}


def _passive_ops(circuit) -> dict:
    return {"circuits.passive_ops": len(circuit.passive_ops)}


COUNTERS = {
    "core.euler_decompose": _unit_planes,
    "synthesis.synthesize": _trace_counts,
    "synthesis.synthesize_pure": _trace_counts,
    "circuits.circuit_from_mixed": _passive_ops,
    "circuits.circuit_from_pure": _passive_ops,
}


def untraced(name, fn, *args, **kwargs):
    """The ``call`` hook of an untraced instance."""
    return fn(*args, **kwargs)


class Tracer:
    """Collects spans and counters; ``call`` is the traced ``call`` hook."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.instance = 0
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((self.instance, name, parent, start, end))
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(result).items():
                self.counts[key] += value
        return result

    def add(self, key: str, value: float):
        self.counts[key] += value

    def durations_ns(self) -> dict:
        out = defaultdict(list)
        for _, name, _, start, end in self.spans:
            out[name].append(end - start)
        return out

    def call_metrics(self) -> dict:
        """calls / total_ms / p50_us for every DIRECT_CALLS name."""
        durations = self.durations_ns()
        metrics = {}
        for name in DIRECT_CALLS:
            ns = durations.get(name, [])
            metrics[f"{name}.calls"] = len(ns)
            metrics[f"{name}.total_ms"] = sum(ns) / 1e6
            metrics[f"{name}.p50_us"] = statistics.median(ns) / 1e3 if ns else 0.0
        for key in COUNTS:
            metrics[key] = self.counts.get(key, 0)
        return metrics

    @contextmanager
    def intercept(self):
        """Wrap NESTED functions in every loaded library module, then restore."""
        patched = []
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("modematch.") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                for name, fn in NESTED.items():
                    if value is fn:
                        setattr(module, attr, self._wrap(name, fn))
                        patched.append((module, attr, fn))
        try:
            yield
        finally:
            for module, attr, fn in patched:
                setattr(module, attr, fn)

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced
