"""modematch benchmark: one command prints every metric with its unit and
checks every output.

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0

Workloads are closed loops with one client in one process (see
``workloads.py`` and README.md in this directory).  A run measures whole
cycles of its workload until ``--seconds`` have passed and at least
MIN_INSTANCES instances were timed, so the p90 has ten samples beyond it.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics and the tracing overhead, and
on ``cli_roundtrip`` the in-process synthesis layers of one synth_prepare
cycle at the default and at one BLAS thread.  BLAS thread settings are left
as the user's environment has them, except in that one-thread cycle.  A run
that cannot time MIN_INSTANCES instances within MAX_MEASURE_S seconds exits 1
without a result.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
WORKLOADS = ("census", "cli_roundtrip")
MIN_INSTANCES = 100
MAX_MEASURE_S = 120.0
SETUP_PROBES = 21
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import modematch; "
    "v = modematch.check_mixed([1.5, 1.5], [1.0, 2.0]); "
    "sys.stdout.write('feasible\\n' if v.feasible else 'infeasible\\n'); sys.stdout.flush()"
)

CLI_STATS = (("calls", "count"), ("wall_ms", "ms"), ("elapsed_ms", "ms"))
CLI_EXTRA = {"cli.startup_ms": "ms", "cli.trace_bytes": "bytes",
             "cli.circuit_bytes": "bytes", "cli.matrix_bytes": "bytes"}
HEALTH = (
    "health.necessity_slack_min",
    "health.williamson_defect_max",
    "health.euler_defect_max",
    "health.roundtrip_defect_max",
    "health.trace_replay_defect_max",
    "health.circuit_replay_defect_max",
    "health.entropy_defect_max",
    "health.cli_self_check_defect_max",
    "health.cli_nonzero_exits",
    "health.verify_violations",
)
OVERHEAD = ("throughput_per_s", "latency_p50_ms", "latency_p90_ms")
BLAS_CALLS = (
    "synthesis.synthesize", "synthesis.synthesize_pure", "synthesis.replay_trace",
    "circuits.circuit_from_mixed", "circuits.circuit_from_pure", "circuits.replay_circuit",
    "core.williamson", "core.euler_decompose",
)


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    from tracing import CALL_STATS, COUNTS, DIRECT_CALLS
    from workloads import CLI_STEPS

    units = {f"{call}.{stat}": unit for call in DIRECT_CALLS for stat, unit in CALL_STATS}
    units.update({key: "count" for key in COUNTS})
    units.update({f"cli.{step}.{stat}": unit for step in CLI_STEPS for stat, unit in CLI_STATS})
    units.update(CLI_EXTRA)
    units.update({key: "count" if key.endswith(("exits", "violations")) else "1"
                  for key in HEALTH})
    units.update({f"trace_overhead.{key}": END_TO_END[key] for key in OVERHEAD})
    units["traced_cycles"] = "count"
    units.update({f"blas1.{call}.total_ms": "ms" for call in BLAS_CALLS})
    units["blas1.blas_threads"] = "count"
    return units


# ------------------------------------------------------------- conditions

def blas_threads():
    """Thread count of the OpenBLAS numpy loaded, read through ctypes."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "modematch").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def conditions() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "blas_threads": blas_threads(),
    }


# ----------------------------------------------------------------- set-up

def setup_probe() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    modematch and finished a first 2-mode check_mixed."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or line != b"feasible\n":
        raise RuntimeError("set-up probe failed: modematch did not import or check")
    return elapsed


# -------------------------------------------------------------- measuring

def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta(p (n+1), (1-p) (n+1))-weighted mean of all order statistics.  A
    workload cycles through instance classes of very different cost, so the
    plain sample median sits on the gap between two classes and jumps with
    the single fastest or slowest instance of either; the weighted form
    spreads over the neighbouring ranks and is far steadier between runs.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    k = 16  # integration points per rank interval
    t = (np.arange(n * k) + 0.5) / (n * k)
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, k).sum(axis=1)
    return float(np.dot(w, x) / w.sum())


def latency_summary(positions, walls_ns) -> dict:
    """End-to-end timings of instances, given by position in the cycle and
    wall time in ns.

    Throughput is instances per second of a cycle at typical cost: the
    median wall time of each position of the workload's cycle (one instance
    class, such as ``prepare`` on an n = 40 target), summed over the
    positions.  A plain count over the summed time would move with every
    stretch of the run that other tenants of the host slowed; a per-class
    median does not while that stretch is under half the run, yet moves with
    every class the program makes faster or slower."""
    ms = [wall / 1e6 for wall in walls_ns]
    by_position = {}
    for pos, wall in zip(positions, walls_ns):
        by_position.setdefault(pos, []).append(wall / 1e9)
    cycle_s = sum(statistics.median(walls) for walls in by_position.values())
    return {
        "throughput_per_s": len(by_position) / cycle_s,
        "latency_p50_ms": hd_quantile(ms, 0.5),
        "latency_p90_ms": hd_quantile(ms, 0.9),
    }


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "census":
        return workloads.Census(seed)
    return workloads.CliRoundtrip(seed, workdir)


class Outcome:
    """Per-run tallies: attempts, failures, worst health values, latencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.health = {}
        # keyed by traced: (positions in cycle, wall ns); a census run times
        # tens of thousands of instances
        self.latencies = {traced: (array("i"), array("q")) for traced in (False, True)}
        self.child_rss_kib = 0

    def record(self, wl, inp, result, error):
        self.attempted += 1
        checks = [] if error else wl.check(inp, result)
        for chk in checks:
            worst = self.health.get(chk.health)
            if worst is None or (chk.value > worst if chk.upper else chk.value < worst):
                self.health[chk.health] = chk.value
        if error or not all(chk.ok for chk in checks):
            self.failed += 1
            bad = [f"{c.health}={c.value:.3g} (limit {c.limit:g})"
                   for c in checks if not c.ok] if not error else [error]
            print(f"FAILED {wl.name} instance {self.attempted}: {'; '.join(bad)}",
                  file=sys.stderr)
            return False
        if isinstance(result, dict) and "maxrss_kib" in result:
            self.child_rss_kib = max(self.child_rss_kib, result["maxrss_kib"])
        return True


def run_instance(wl, inp, call):
    """Run one instance; return (result, wall ns, error text or None).

    An instance that raises is a failed instance, never a dropped one."""
    start = time.perf_counter_ns()
    try:
        result = wl.run(inp, call)
    except Exception as exc:  # noqa: BLE001 - the loop must count it and go on
        import traceback

        traceback.print_exc(file=sys.stderr)
        return None, time.perf_counter_ns() - start, f"{type(exc).__name__}: {exc}"
    return result, time.perf_counter_ns() - start, None


def measure(wl, seconds: float, trace: bool, tracer, outcome: Outcome, setup=None):
    """Closed loop over whole cycles; in a traced run odd cycles are traced.

    Returns the number of traced cycles.  If ``setup`` is a list, SETUP_PROBES
    set-up probes are spread evenly over the measuring time (at most one
    between two instances) and their seconds appended to it; time spent in
    probes does not count towards ``seconds``."""
    from tracing import untraced

    for inp in wl.warm_up_inputs():
        result, _, error = run_instance(wl, inp, untraced)
        outcome.record(wl, inp, result, error)
    if setup is not None:
        setup_probe()  # untimed: the first spawn may write bytecode caches
    start = time.perf_counter()
    probing = 0.0
    cycle = 0
    while True:
        traced = trace and cycle % 2 == 1
        with tracer.intercept() if traced else contextlib.nullcontext():
            for pos in range(wl.cycle):
                inp = wl.next_input()
                tracer.instance += traced
                result, wall, error = run_instance(wl, inp, tracer.call if traced else untraced)
                if traced and error is None and hasattr(wl, "counters"):
                    for key, value in wl.counters(inp, result, wall).items():
                        tracer.add(key, value)
                if outcome.record(wl, inp, result, error):
                    outcome.latencies[traced][0].append(pos)
                    outcome.latencies[traced][1].append(wall)
                due = SETUP_PROBES * (time.perf_counter() - start - probing) / seconds
                if setup is not None and len(setup) < min(due, SETUP_PROBES):
                    t0 = time.perf_counter()
                    setup.append(setup_probe())
                    probing += time.perf_counter() - t0
        cycle += 1
        elapsed = time.perf_counter() - start - probing
        timed = len(outcome.latencies[False][1]) + len(outcome.latencies[True][1])
        if (elapsed >= seconds and timed >= MIN_INSTANCES) or elapsed >= MAX_MEASURE_S:
            break
    while setup is not None and len(setup) < SETUP_PROBES:
        setup.append(setup_probe())
    return cycle // 2 if trace else 0


def layer_cycle(seed: int, **env) -> dict:
    """Run layer_cycle.py in a fresh process with ``env`` added."""
    out = subprocess.run([sys.executable, str(BENCH / "layer_cycle.py"), str(seed)],
                         env=dict(os.environ, **env), capture_output=True, text=True,
                         timeout=150)
    if out.returncode != 0:
        raise RuntimeError(f"synth_prepare layer cycle failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def synth_layers(seed: int) -> dict:
    """Per-layer metrics of one traced synth_prepare cycle, each in a fresh
    process: at the default BLAS threads, and as ``blas1.*`` at one thread,
    the single-threaded baseline.  Its end-to-end figures are not gated (see
    README.md), so the cycle runs only in a traced run."""
    default = layer_cycle(seed)
    single = layer_cycle(seed, OPENBLAS_NUM_THREADS="1")
    metrics = dict(default["metrics"])
    metrics.update({f"blas1.{call}.total_ms": single["metrics"][f"{call}.total_ms"]
                    for call in BLAS_CALLS})
    metrics["blas1.blas_threads"] = single["blas_threads"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modematch" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import workloads
    from tracing import Tracer

    if Path(workloads.mm.__file__).resolve().parent != SRC / "modematch":
        print(f"error: imported modematch from {workloads.mm.__file__}", file=sys.stderr)
        return 2

    conds = conditions()
    print(json.dumps({"conditions": conds}))

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        tracer = Tracer()
        outcome = Outcome()
        setup = None if args.trace else []
        traced_cycles = measure(wl, args.seconds, bool(args.trace), tracer, outcome, setup)
        # read before the summaries below, whose arrays grow with the sample count
        self_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    timed = len(outcome.latencies[False][1]) + len(outcome.latencies[True][1])
    if timed < MIN_INSTANCES:
        print(f"error: only {timed} instances timed in {MAX_MEASURE_S:g} s; a run needs "
              f"{MIN_INSTANCES} so that the p90 has ten samples beyond it", file=sys.stderr)
        return 1
    plain = latency_summary(*outcome.latencies[False])
    if args.trace:
        units = per_layer_units()
        metrics = dict.fromkeys(units, 0.0)
        metrics.update(tracer.call_metrics())
        metrics.update(wl.layer_metrics(tracer) if hasattr(wl, "layer_metrics") else {})
        metrics.update(outcome.health)
        traced = latency_summary(*outcome.latencies[True])
        metrics.update({f"trace_overhead.{k}": traced[k] - plain[k] for k in OVERHEAD})
        metrics["traced_cycles"] = traced_cycles
        if args.workload == "cli_roundtrip":
            metrics.update(synth_layers(args.seed))
        samples = len(outcome.latencies[True][1])
    else:
        units = END_TO_END
        rss_kib = outcome.child_rss_kib if args.workload == "cli_roundtrip" else self_rss_kib
        metrics = dict(plain, success_rate=1.0 - outcome.failed / outcome.attempted,
                       setup_s=min(setup), peak_rss_mb=rss_kib / 1024.0)
        samples = len(outcome.latencies[False][1])

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {samples} "
          f"{'traced' if args.trace else 'timed'} instances, "
          f"{outcome.attempted} attempted, {outcome.failed} failed; "
          f"BLAS threads {conds['blas_threads']} (OPENBLAS_NUM_THREADS "
          f"{conds['OPENBLAS_NUM_THREADS']})", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
