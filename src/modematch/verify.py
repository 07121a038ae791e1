"""Sampled end-to-end property suites.

Drives random instances through the full pipeline and counts violations:
necessity of the feasibility conditions on random states, the symplectic
trace and spread bounds, Williamson and Euler reconstruction defects,
synthesis round-trips, and circuit replay.  Used by the ``verify`` CLI
subcommand; a clean build reports zero violations.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .circuits import circuit_from_pure, replay_circuit
from .config import DEFAULT, Tolerances
from .core import (
    CovarianceMatrix,
    euler_decompose,
    interleaved_diagonal,
    random_symplectic,
    symplectic_eigenvalues,
    williamson,
)
from .errors import ModeMatchError
from .marginals import check_mixed, local_diagonal
from .synthesis import sample_feasible_pair, synthesize

NECESSITY_TOL = 1e-8
RECON_TOL = 1e-8
ROUNDTRIP_TOL = 1e-7


@dataclass
class SuiteResult:
    name: str
    trials: int = 0
    violations: int = 0
    worst: float = np.inf  # most negative slack or largest-defect margin

    def record(self, margin: float):
        """Margin convention: negative means violated."""
        self.trials += 1
        self.worst = min(self.worst, margin)
        if margin < 0:
            self.violations += 1


@dataclass
class VerificationSummary:
    suites: list[SuiteResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def total_violations(self) -> int:
        return sum(s.violations for s in self.suites)


def random_physical_covariance(rng: "np.random.Generator", n: int,
                               squeeze_bound: float, d_high: float = 3.0):
    """Random physical covariance gamma = S D S^T with d >= 1."""
    d = np.sort(rng.uniform(1.0, d_high, n))
    S = random_symplectic(n, squeeze_bound, rng)
    gamma = S.entries @ interleaved_diagonal(d) @ S.entries.T
    return CovarianceMatrix(gamma), d, S


def necessity_margin(gamma, tol: Tolerances = DEFAULT) -> float:
    """Min slack of the matrix's own (c, d) feasibility check."""
    verdict = check_mixed(local_diagonal(gamma, tol).values,
                          symplectic_eigenvalues(gamma, tol), tol)
    return verdict.min_slack + NECESSITY_TOL


def trace_bound_margin(gamma, tol: Tolerances = DEFAULT) -> float:
    """Slack of sum(d) <= sum(c)."""
    c = local_diagonal(gamma, tol).values.values
    d = symplectic_eigenvalues(gamma, tol).values
    return float(np.sum(c) - np.sum(d)) + NECESSITY_TOL


def spread_bound_margin(gamma, tol: Tolerances = DEFAULT) -> float:
    """Slack of c_n - sum(c_j<n) <= sum(d_j>=2) + (3 - 2n) d_1."""
    c = local_diagonal(gamma, tol).values.values
    d = symplectic_eigenvalues(gamma, tol).values
    n = c.size
    lhs = 2.0 * c[-1] - np.sum(c)
    rhs = np.sum(d[1:]) + (3.0 - 2.0 * n) * d[0]
    return float(rhs - lhs) + NECESSITY_TOL


def williamson_margin(gamma, tol: Tolerances = DEFAULT) -> float:
    S, d = williamson(gamma, tol)
    g = gamma.entries if isinstance(gamma, CovarianceMatrix) else gamma
    defect = float(np.max(np.abs(S.entries @ g @ S.entries.T
                                 - interleaved_diagonal(d.values))))
    return RECON_TOL - defect


def euler_margin(S, tol: Tolerances = DEFAULT) -> float:
    factors = euler_decompose(S, tol)
    entries = S.entries if hasattr(S, "entries") else S
    defect = float(np.max(np.abs(factors.reconstruct() - entries)))
    return RECON_TOL - defect


def roundtrip_margin(c, d, final, tol: Tolerances = DEFAULT) -> float:
    """Reconstruction margin of a synthesized matrix against its targets."""
    _, d_out = williamson(final, tol)
    c_out = local_diagonal(final, tol).values.values
    defect = max(float(np.max(np.abs(d_out.values - d))),
                 float(np.max(np.abs(c_out - np.sort(c)))))
    return ROUNDTRIP_TOL - defect


def circuit_margin(gamma, tol: Tolerances = DEFAULT) -> float:
    circ = circuit_from_pure(gamma, tol)
    g = gamma.entries if isinstance(gamma, CovarianceMatrix) else gamma
    scale = max(1.0, float(np.max(np.abs(g))))
    defect = float(np.max(np.abs(replay_circuit(circ) - g))) / scale
    n = circ.n
    if len(circ.passive_ops) > n * (n - 1) // 2 + n:
        return -1.0
    return ROUNDTRIP_TOL - defect


def run_verification(trials: int, n_max: int, seed=None, squeeze_bound: float = 5.0,
                     tol: Tolerances = DEFAULT, corrupt=None) -> VerificationSummary:
    """Run every suite over ``trials`` sampled instances.

    ``corrupt``, when given, is applied to each synthesized matrix before
    re-verification; it exists so the harness itself can be sanity-checked
    against an intentionally broken pipeline.
    """
    if trials < 1 or n_max < 1:
        raise ValueError("trials and n_max must be positive")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    necessity = SuiteResult("necessity")
    trace_bound = SuiteResult("symplectic_trace_bound")
    spread_bound = SuiteResult("spread_bound")
    recon = SuiteResult("williamson_euler_reconstruction")
    roundtrip = SuiteResult("synthesis_roundtrip")
    circuits = SuiteResult("circuit_replay")

    for trial in range(trials):
        n = 2 + trial % max(1, n_max - 1) if n_max > 1 else 1
        gamma, _, _ = random_physical_covariance(rng, n, squeeze_bound)
        necessity.record(necessity_margin(gamma, tol))
        trace_bound.record(trace_bound_margin(gamma, tol))
        spread_bound.record(spread_bound_margin(gamma, tol))
        S_w, _ = williamson(gamma, tol)
        recon.record(min(williamson_margin(gamma, tol), euler_margin(S_w, tol)))

        if trial % 5 == 0:
            c, d = sample_feasible_pair(rng, int(rng.integers(1, n_max + 1)))
            final = synthesize(c, d, tol).final_matrix.entries
            if corrupt is not None:
                final = corrupt(final)
            try:
                roundtrip.record(roundtrip_margin(c, d, CovarianceMatrix(final), tol))
            except ModeMatchError:
                # a matrix that no longer validates counts as a violation
                roundtrip.record(-1.0)

        if trial % 10 == 0:
            m = int(rng.integers(1, min(n_max, 6) + 1))
            Sp = random_symplectic(m, min(squeeze_bound, 3.0), rng)
            pure = CovarianceMatrix(Sp.entries @ Sp.entries.T)
            circuits.record(circuit_margin(pure, tol))

    summary = VerificationSummary(
        suites=[necessity, trace_bound, spread_bound, recon, roundtrip, circuits],
        elapsed_s=time.perf_counter() - start,
    )
    return summary
