"""Benchmark workloads: seeded input generators, the timed pipelines and the
correctness checks applied to every instance.

The generators are the benchmark's own.  They never call the library's
``random_symplectic`` or ``sample_feasible_pair``, so a change to how the
library draws random numbers cannot change what the benchmark feeds it.

Each workload is a closed loop with one client: ``next_input`` draws the next
instance, ``run`` makes the timed calls into the library through ``call`` (a
tracer hook, see ``tracing.py``), and ``check`` compares the outputs against
the repository's stated tolerances.  Generation and checks stay outside the
timed region.
"""

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import modematch as mm  # noqa: E402

# Tolerances stated by the repository (README "Tolerances", acceptance suite).
NECESSITY_SLACK = -1e-8   # C1: feasibility slack of a state's own (c, d)
RECON = 1e-8              # Williamson and Euler reconstruction defects
ROUNDTRIP = 1e-7          # C2: (c, d) of a synthesized witness vs. its targets
REPLAY_REL = 1e-8         # trace and circuit replay, relative to max(1, |gamma|)

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass
class Check:
    """One correctness check: ``value`` must stay on the good side of ``limit``.

    ``health`` names the per-layer metric that reports the worst raw value.
    ``upper`` means value <= limit is required, otherwise value >= limit.
    """

    health: str
    value: float
    limit: float
    upper: bool = True

    @property
    def ok(self) -> bool:
        if not np.isfinite(self.value):
            return False
        return self.value <= self.limit if self.upper else self.value >= self.limit


# ---------------------------------------------------------------- generators

def _realify(u: np.ndarray) -> np.ndarray:
    """2n x 2n orthosymplectic matrix of an n x n unitary, xpxp ordering."""
    n = u.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[0::2, 0::2] = u.real
    out[0::2, 1::2] = u.imag
    out[1::2, 0::2] = -u.imag
    out[1::2, 1::2] = u.real
    return out


def haar_passive(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed passive transform (QR of a complex Ginibre matrix)."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return _realify(q * (diag / np.abs(diag)))


def random_state(rng: np.random.Generator, n: int, squeeze: float = 5.0):
    """Physical covariance O Q V diag(d) V^T Q O^T with d in [1, 3], z in [1, squeeze].

    Same distribution family as the C1 acceptance fixture.
    """
    d = np.sort(rng.uniform(1.0, 3.0, n))
    O = haar_passive(rng, n)
    V = haar_passive(rng, n)
    z = rng.uniform(1.0, squeeze, n)
    S = (O * np.column_stack([z, 1.0 / z]).ravel()) @ V
    gamma = S @ np.diag(np.repeat(d, 2)) @ S.T
    return 0.5 * (gamma + gamma.T), d


def feasible_pair(rng: np.random.Generator, n: int):
    """Physical feasible (c, d): d in [1, 3] sorted, c = d plus a linear ramp.

    c_j = d_j + a (j + 1) / n with a in [0.2, 1] is n raises of c_j..c_n by
    a / n.  Every partial-sum slack is positive, and the last condition's
    left side changes by a (3 - n) / 2, so for n >= 4 each pair lies strictly
    inside the feasible cone.  The ramp keeps the number of unsqueezed Euler
    planes, and so the cost of a target, nearly fixed per n.
    """
    d = np.sort(rng.uniform(1.0, 3.0, n))
    c = d + rng.uniform(0.2, 1.0) * np.arange(1, n + 1) / n
    return c, d


def pure_excitations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sorted b >= 0 inside the pure cone b_max <= sum of the others."""
    b = np.sort(rng.uniform(0.0, 2.0, n))
    b[-1] = min(b[-1], float(np.sum(b[:-1])))
    return b


def pair_slacks(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The n + 1 feasibility slacks of a sorted pair, computed with numpy only."""
    partial = np.cumsum(c) - np.cumsum(d)
    last = (2.0 * d[-1] - np.sum(d)) - (2.0 * c[-1] - np.sum(c))
    return np.append(partial, last)


# ----------------------------------------------------- reference quantities

def local_values(gamma: np.ndarray) -> np.ndarray:
    """Sorted sqrt(det) of the 2x2 diagonal blocks."""
    a = np.diagonal(gamma)[0::2]
    b = np.diagonal(gamma)[1::2]
    off = np.diagonal(gamma, offset=1)[0::2]
    return np.sort(np.sqrt(a * b - off * off))


def symplectic_spectrum(gamma: np.ndarray) -> np.ndarray:
    """Sorted symplectic eigenvalues from i sqrt(g) sigma sqrt(g)."""
    n = gamma.shape[0] // 2
    w, U = np.linalg.eigh(gamma)
    root = (U * np.sqrt(w)) @ U.T
    sig = np.kron(np.eye(n), _J)
    lam = np.linalg.eigvalsh(1j * (root @ sig @ root))
    return np.sort(lam[n:])


def entropy_bits(c: np.ndarray) -> np.ndarray:
    c = np.maximum(np.asarray(c, dtype=float), 1.0)
    up, down = 0.5 * (c + 1.0), 0.5 * (c - 1.0)
    safe = np.where(down > 0, down, 1.0)
    return up * np.log2(up) - np.where(down > 0, down * np.log2(safe), 0.0)


def _max_abs(a) -> float:
    return float(np.max(np.abs(a)))


def _scale(gamma: np.ndarray) -> float:
    return max(1.0, _max_abs(gamma))


def roundtrip_defect(gamma: np.ndarray, c: np.ndarray, d: np.ndarray) -> float:
    return max(_max_abs(local_values(gamma) - np.sort(c)),
               _max_abs(symplectic_spectrum(gamma) - np.sort(d)))


# ----------------------------------------------------------------- census

class Census:
    """Random physical states, n = 2..8 cycled as in the C1 fixture."""

    name = "census"
    cycle = 7

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])
        self.count = 0

    def next_input(self):
        n = 2 + self.count % 7
        self.count += 1
        gamma, d = random_state(self.rng, n)
        return {"n": n, "gamma": gamma, "d": d}

    def warm_up_inputs(self):
        rng = np.random.default_rng(0)
        return [dict(zip(("gamma", "d"), random_state(rng, n)), n=n) for n in range(2, 9)]

    @staticmethod
    def run(inp, call):
        cov = call("core.CovarianceMatrix", mm.CovarianceMatrix, inp["gamma"])
        local = call("marginals.local_diagonal", mm.local_diagonal, cov)
        spectrum = call("core.symplectic_eigenvalues", mm.symplectic_eigenvalues, cov)
        verdict = call("marginals.check_mixed", mm.check_mixed, local.values, spectrum)
        S, d_w = call("core.williamson", mm.williamson, cov)
        factors = call("core.euler_decompose", mm.euler_decompose, S)
        report = call("entropy.entropy_report", mm.entropy_report, c=local.values.values)
        return {
            "gamma": cov.entries, "c": local.values.values, "d": spectrum.values,
            "feasible": verdict.feasible, "min_slack": verdict.min_slack,
            "S": S.entries, "d_w": d_w.values,
            "O": factors.O.entries, "z": factors.z, "V": factors.V.entries,
            "entropies": report.per_mode_entropies,
        }

    @staticmethod
    def check(inp, res):
        gamma = inp["gamma"]
        S = res["S"]
        q = np.column_stack([res["z"], 1.0 / res["z"]]).ravel()
        slack = min(float(np.min(pair_slacks(res["c"], res["d"]))), res["min_slack"])
        return [
            Check("health.necessity_slack_min", slack if res["feasible"] else -np.inf,
                  NECESSITY_SLACK, upper=False),
            Check("health.williamson_defect_max",
                  _max_abs(S @ gamma @ S.T - np.diag(np.repeat(res["d_w"], 2))), RECON),
            Check("health.euler_defect_max", _max_abs((res["O"] * q) @ res["V"] - S), RECON),
            Check("health.roundtrip_defect_max",
                  max(_max_abs(res["c"] - local_values(gamma)), _max_abs(res["d"] - inp["d"]),
                      _max_abs(res["d_w"] - inp["d"])), ROUNDTRIP),
            Check("health.entropy_defect_max",
                  _max_abs(res["entropies"] - entropy_bits(res["c"])), RECON),
        ]


# ----------------------------------------------------------- synth_prepare

SYNTH_SIZES = (8, 16, 24, 32, 40, 48)


class SynthPrepare:
    """Feasible physical pairs, n cycling over SYNTH_SIZES, mixed then pure."""

    name = "synth_prepare"
    cycle = 2 * len(SYNTH_SIZES)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        self.count = 0

    def _make(self, rng, n: int, kind: str):
        if kind == "mixed":
            c, d = feasible_pair(rng, n)
            return {"kind": kind, "n": n, "c": c, "d": d}
        b = pure_excitations(rng, n)
        return {"kind": kind, "n": n, "c": b + 1.0, "d": np.ones(n), "b": b}

    def next_input(self):
        i = self.count
        self.count += 1
        kind = "mixed" if i % 2 == 0 else "pure"
        return self._make(self.rng, SYNTH_SIZES[(i // 2) % len(SYNTH_SIZES)], kind)

    def warm_up_inputs(self):
        # the largest size first-touches the memory every later instance reuses
        rng = np.random.default_rng(0)
        return [self._make(rng, SYNTH_SIZES[-1], kind) for kind in ("mixed", "pure")]

    @staticmethod
    def run(inp, call):
        if inp["kind"] == "mixed":
            trace = call("synthesis.synthesize", mm.synthesize, inp["c"], inp["d"])
            replayed = call("synthesis.replay_trace", mm.replay_trace, trace)
            circuit = call("circuits.circuit_from_mixed", mm.circuit_from_mixed, trace)
            circuit = call("circuits.serialize_parse",
                           lambda circ: mm.parse_circuit(mm.serialize_circuit(circ)), circuit)
        else:
            trace = call("synthesis.synthesize_pure", mm.synthesize_pure, inp["b"])
            replayed = None
            circuit = call("circuits.circuit_from_pure", mm.circuit_from_pure,
                           trace.final_matrix)
        prepared = call("circuits.replay_circuit", mm.replay_circuit, circuit)
        return {"gamma": trace.final_matrix.entries, "trace_replay": replayed,
                "circuit_replay": prepared}

    @staticmethod
    def check(inp, res):
        gamma = res["gamma"]
        scale = _scale(gamma)
        checks = [
            Check("health.roundtrip_defect_max", roundtrip_defect(gamma, inp["c"], inp["d"]),
                  ROUNDTRIP),
            Check("health.circuit_replay_defect_max",
                  _max_abs(res["circuit_replay"] - gamma) / scale, REPLAY_REL),
        ]
        if res["trace_replay"] is not None:
            checks.append(Check("health.trace_replay_defect_max",
                                _max_abs(res["trace_replay"] - gamma) / scale, REPLAY_REL))
        return checks


# ------------------------------------------------------------ cli_roundtrip

CLI_SIZES = (8, 24, 40)
CLI_STEPS = ("synth", "check", "entropy", "prepare", "replay", "verify")
VERIFY_ARGS = ("--trials", "40", "--n-max", "4")


def read_matrix_file(path: Path) -> np.ndarray:
    """Body of a plain-text matrix file (three header lines, then rows)."""
    rows = [ln.split() for ln in path.read_text().splitlines()[3:] if ln.strip()]
    return np.array(rows, dtype=float)


def _vector_arg(values) -> str:
    return ",".join(f"{v:.17g}" for v in values)


class CliRoundtrip:
    """One CLI invocation in a fresh interpreter per instance.

    Each target runs CLI_STEPS in order on its own files; n cycles over
    CLI_SIZES.  ``run`` returns the child's exit code, record and wall time.
    """

    name = "cli_roundtrip"
    cycle = len(CLI_STEPS) * len(CLI_SIZES)

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.count = 0
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.target = None
        self.startup_ms = []

    def _target(self, rng, n: int, tag: str):
        c, d = feasible_pair(rng, n)
        base = self.workdir / tag
        return {"n": n, "c": c, "d": d, "mat": base.with_suffix(".mat"),
                "trace": base.with_suffix(".trace"), "circuit": base.with_suffix(".circ"),
                "replayed": base.with_suffix(".replayed.mat"),
                "verify_seed": int(rng.integers(0, 2**31 - 1))}

    def _argv(self, step: str, t) -> list[str]:
        if step == "synth":
            return ["synth", "--c", _vector_arg(t["c"]), "--d", _vector_arg(t["d"]),
                    "--out", str(t["mat"]), "--emit-trace", str(t["trace"])]
        if step in ("check", "entropy"):
            return [step, "--matrix", str(t["mat"])]
        if step == "prepare":
            return ["prepare", "--matrix", str(t["mat"]), "--out", str(t["circuit"])]
        if step == "replay":
            return ["replay", "--circuit", str(t["circuit"]), "--out", str(t["replayed"])]
        return ["verify", *VERIFY_ARGS, "--seed", str(t["verify_seed"])]

    def next_input(self):
        i = self.count
        self.count += 1
        k = i % len(CLI_STEPS)
        if k == 0:
            n = CLI_SIZES[(i // len(CLI_STEPS)) % len(CLI_SIZES)]
            self.target = self._target(self.rng, n, "target")
        return {"step": CLI_STEPS[k], "target": self.target}

    def warm_up_inputs(self):
        # compiles the CLI modules' bytecode before anything is timed
        t = self._target(np.random.default_rng(0), 4, "warm")
        return [{"step": step, "target": t} for step in CLI_STEPS]

    def run(self, inp, call):
        argv = [sys.executable, "-m", "modematch.cli",
                *self._argv(inp["step"], inp["target"])]
        return call(f"cli.{inp['step']}", spawn, argv, self.env, self.workdir)

    def counters(self, inp, res, wall_ns: int) -> dict:
        """Traced-cycle counters: in-process time from the record, file sizes."""
        step, t = inp["step"], inp["target"]
        elapsed_ms = 1e3 * float((res["record"] or {}).get("elapsed_s", 0.0))
        self.startup_ms.append(wall_ns / 1e6 - elapsed_ms)
        out = {f"cli.{step}.elapsed_ms": elapsed_ms}
        if step == "synth":
            out["cli.trace_bytes"] = t["trace"].stat().st_size
            out["cli.matrix_bytes"] = t["mat"].stat().st_size
        elif step == "prepare":
            out["cli.circuit_bytes"] = t["circuit"].stat().st_size
        return out

    def layer_metrics(self, tracer) -> dict:
        """cli.<step>.{calls,wall_ms,elapsed_ms}, median start-up, bytes per file."""
        durations = tracer.durations_ns()
        out = {}
        for step in CLI_STEPS:
            ns = durations.get(f"cli.{step}", [])
            out[f"cli.{step}.calls"] = len(ns)
            out[f"cli.{step}.wall_ms"] = sum(ns) / 1e6
            out[f"cli.{step}.elapsed_ms"] = tracer.counts.get(f"cli.{step}.elapsed_ms", 0.0)
        out["cli.startup_ms"] = float(np.median(self.startup_ms)) if self.startup_ms else 0.0
        for key, step in (("cli.trace_bytes", "synth"), ("cli.matrix_bytes", "synth"),
                          ("cli.circuit_bytes", "prepare")):
            out[key] = tracer.counts.get(key, 0) / max(1, out[f"cli.{step}.calls"])
        return out

    @staticmethod
    def check(inp, res):
        t = inp["target"]
        step = inp["step"]
        record = res["record"]
        checks = [Check("health.cli_nonzero_exits", float(res["returncode"] != 0), 0.0)]
        if res["returncode"] != 0 or record is None:
            return checks
        if step == "synth":
            gamma = read_matrix_file(t["mat"])
            # every trace line must be a JSON record
            with open(t["trace"]) as fh:
                lines = sum(1 for line in fh if json.loads(line))
            checks += [
                Check("health.roundtrip_defect_max",
                      roundtrip_defect(gamma, t["c"], t["d"]) if lines else np.inf, ROUNDTRIP),
                Check("health.cli_self_check_defect_max", record["verification_defect"], RECON),
            ]
        elif step == "check":
            slack = min(s["slack"] for s in record["slacks"]) if record["feasible"] else -np.inf
            checks.append(Check("health.necessity_slack_min", slack, NECESSITY_SLACK,
                                upper=False))
        elif step == "entropy":
            c = local_values(read_matrix_file(t["mat"]))
            checks.append(Check("health.entropy_defect_max",
                                _max_abs(np.array(record["per_mode_bits"]) - entropy_bits(c)),
                                RECON))
        elif step == "prepare":
            checks.append(Check("health.circuit_replay_defect_max", record["replay_defect"],
                                REPLAY_REL))
        elif step == "replay":
            checks.append(Check("health.roundtrip_defect_max",
                                roundtrip_defect(read_matrix_file(t["replayed"]), t["c"], t["d"]),
                                ROUNDTRIP))
        else:
            checks.append(Check("health.verify_violations", float(record["violations"]), 0.0))
        return checks


def spawn(argv, env, cwd) -> dict:
    """Run one child to completion; return its exit code, last JSON record,
    elapsed_s and peak RSS in KiB (from wait4, so only this child counts)."""
    with open(os.devnull, "wb") as devnull:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                                stderr=devnull)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    lines = out.decode(errors="replace").strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    return {"returncode": proc.returncode, "record": record, "maxrss_kib": usage.ru_maxrss}
