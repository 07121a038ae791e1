"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines.  Criteria 1, 5 and 8 share one sampled set of 10^4 random physical
covariance matrices, built once per session.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from modematch import (
    CovarianceMatrix,
    check_mixed,
    check_pure,
    circuit_from_pure,
    entropy_report,
    entropy_s,
    euler_decompose,
    local_diagonal,
    random_symplectic,
    replay_circuit,
    sample_feasible_pair,
    solve_two_mode,
    symplectic_eigenvalues,
    synthesize,
    synthesize_pure,
    two_mode_eigenvalues_closed_form,
    williamson,
)
from modematch.core import interleaved_diagonal
from modematch.synthesis import assemble_two_mode

TRIALS_MATRICES = 10_000
TRIALS_SYNTH = 1_000
TRIALS_TWO_MODE = 10_000
TRIALS_CIRCUITS = 100


def report(criterion: str, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return line


@dataclass
class MatrixTrialStats:
    """Aggregates from the shared 10^4-matrix sample."""

    trials: int = 0
    necessity_worst: float = np.inf       # min feasibility slack
    trace_bound_worst: float = np.inf     # min slack of sum(c) - sum(d)
    spread_bound_worst: float = np.inf    # min slack of the spread bound
    williamson_worst: float = 0.0         # max reconstruction defect
    euler_worst: float = 0.0              # max reconstruction defect
    invariance_worst: float = 0.0         # max spectrum shift under congruence
    infeasible: int = 0
    elapsed_s: float = 0.0


@pytest.fixture(scope="session")
def matrix_trials():
    rng = np.random.default_rng(20240817)
    stats = MatrixTrialStats()
    start = time.perf_counter()
    for trial in range(TRIALS_MATRICES):
        n = 2 + trial % 7
        d_in = np.sort(rng.uniform(1.0, 3.0, n))
        S = random_symplectic(n, 5.0, rng)
        gamma = S.entries @ interleaved_diagonal(d_in) @ S.entries.T
        cov = CovarianceMatrix(gamma)
        c = local_diagonal(cov).values.values
        d = symplectic_eigenvalues(cov).values

        verdict = check_mixed(c, d)
        if not verdict.feasible:
            stats.infeasible += 1
        stats.necessity_worst = min(stats.necessity_worst, verdict.min_slack)

        stats.trace_bound_worst = min(stats.trace_bound_worst,
                                      float(np.sum(c) - np.sum(d)))
        spread = (np.sum(d[1:]) + (3.0 - 2.0 * n) * d[0]) - (2.0 * c[-1] - np.sum(c))
        stats.spread_bound_worst = min(stats.spread_bound_worst, float(spread))

        S_w, d_w = williamson(cov)
        recon = S_w.entries @ gamma @ S_w.entries.T - interleaved_diagonal(d_w.values)
        stats.williamson_worst = max(stats.williamson_worst,
                                     float(np.max(np.abs(recon))))
        factors = euler_decompose(S_w)
        stats.euler_worst = max(stats.euler_worst,
                                float(np.max(np.abs(factors.reconstruct()
                                                    - S_w.entries))))

        if trial % 4 == 0:
            mover = random_symplectic(n, 3.0, rng)
            moved = symplectic_eigenvalues(
                CovarianceMatrix(mover.entries @ gamma @ mover.entries.T)).values
            stats.invariance_worst = max(stats.invariance_worst,
                                         float(np.max(np.abs(moved - d))))
        stats.trials += 1
    stats.elapsed_s = time.perf_counter() - start
    return stats


def test_criterion_1_necessity(matrix_trials):
    s = matrix_trials
    ok = (s.infeasible == 0 and s.necessity_worst >= -1e-8
          and s.elapsed_s < 60.0)
    report("C1 necessity on random states",
           ok, f"{s.trials} trials, worst slack {s.necessity_worst:.3g}, "
               f"infeasible {s.infeasible}, shared loop {s.elapsed_s:.1f}s")
    assert s.infeasible == 0
    assert s.necessity_worst >= -1e-8
    assert s.elapsed_s < 60.0


def test_criterion_2_sufficiency_round_trip():
    rng = np.random.default_rng(20240818)
    start = time.perf_counter()
    worst = 0.0
    failures = 0
    for trial in range(TRIALS_SYNTH):
        n = 1 + trial % 8
        c, d = sample_feasible_pair(rng, n)
        trace = synthesize(c, d)
        _, d_out = williamson(trace.final_matrix)
        c_out = local_diagonal(trace.final_matrix).values.values
        defect = max(float(np.max(np.abs(d_out.values - d))),
                     float(np.max(np.abs(c_out - np.sort(c)))))
        worst = max(worst, defect)
        if defect > 1e-7:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 120.0
    report("C2 synthesis round-trip",
           ok, f"{TRIALS_SYNTH} pairs, worst defect {worst:.3g}, "
               f"failures {failures}, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 120.0


def test_criterion_3_two_mode_closed_form():
    rng = np.random.default_rng(20240819)
    worst_formula = 0.0
    for _ in range(TRIALS_TWO_MODE):
        c1, c2 = rng.uniform(0.3, 4.0, 2)
        bound = np.sqrt(c1 * c2)
        e = 0.98 * rng.uniform(-bound, bound)
        f = 0.98 * rng.uniform(-bound, bound)
        d_formula = two_mode_eigenvalues_closed_form(c1, c2, e, f)
        d_eigen = symplectic_eigenvalues(assemble_two_mode(c1, c2, e, f)).values
        worst_formula = max(worst_formula, float(np.max(np.abs(d_formula - d_eigen))))

    worst_solve = 0.0
    for _ in range(TRIALS_TWO_MODE):
        c, d = sample_feasible_pair(rng, 2)
        e, f = solve_two_mode(c[0], c[1], d[0], d[1])
        d_back = two_mode_eigenvalues_closed_form(c[0], c[1], e, f)
        worst_solve = max(worst_solve, float(np.max(np.abs(np.array(d_back) - d))))

    worst_boundary = 0.0
    for _ in range(200):
        v = np.sort(rng.uniform(0.4, 4.0, 2))
        e, f = solve_two_mode(v[0], v[1], v[0], v[1])
        worst_boundary = max(worst_boundary, abs(e), abs(f))

    ok = worst_formula <= 1e-10 and worst_solve <= 1e-9 and worst_boundary <= 1e-12
    report("C3 two-mode closed form",
           ok, f"formula vs eigensolver {worst_formula:.3g}, "
               f"solve round-trip {worst_solve:.3g}, "
               f"boundary couplings {worst_boundary:.3g}")
    assert worst_formula <= 1e-10
    assert worst_solve <= 1e-9
    assert worst_boundary <= 1e-12


def test_criterion_4_pure_cone_grid():
    grid = np.arange(0.0, 3.25, 0.25)
    mismatches = 0
    worst_purity = 0.0
    feasible_points = 0
    for b1 in grid:
        for b2 in grid:
            for b3 in grid:
                b = np.array([b1, b2, b3])
                verdict = check_pure(np.sort(b))
                brute = np.max(b) <= np.sum(b) - np.max(b)
                if verdict.feasible != brute:
                    mismatches += 1
                    continue
                if verdict.feasible:
                    feasible_points += 1
                    trace = synthesize_pure(b)
                    d = symplectic_eigenvalues(trace.final_matrix).values
                    worst_purity = max(worst_purity, float(np.max(np.abs(d - 1.0))))
    ok = mismatches == 0 and worst_purity <= 1e-7
    report("C4 pure cone grid",
           ok, f"{grid.size ** 3} points, {feasible_points} feasible, "
               f"mismatches {mismatches}, worst purity defect {worst_purity:.3g}")
    assert mismatches == 0
    assert worst_purity <= 1e-7


def test_criterion_5_trace_and_spread_bounds(matrix_trials):
    s = matrix_trials
    ok = s.trace_bound_worst >= -1e-8 and s.spread_bound_worst >= -1e-8
    report("C5 symplectic trace and spread bounds",
           ok, f"worst trace slack {s.trace_bound_worst:.3g}, "
               f"worst spread slack {s.spread_bound_worst:.3g}")
    assert s.trace_bound_worst >= -1e-8
    assert s.spread_bound_worst >= -1e-8


def test_criterion_6_entropy_bound_worked_example():
    bound = entropy_report(c=[1.5, 1.5, 2.0]).global_upper_bound
    expected = 3.0 * np.log2(3.0) - 2.0
    ok = abs(bound - expected) <= 1e-12
    report("C6 entropy bound worked example",
           ok, f"bound {bound!r} vs 3 log2(3) - 2, error {abs(bound - expected):.3g}")
    assert abs(bound - expected) <= 1e-12


def test_criterion_6_entropy_chain_on_random_states():
    """Chain sum_j s(d_j) <= s(sum d_j) <= s(sum c_j) on random physical states.

    The middle step is usually argued from concavity of s with s(1) = 0, but
    concavity with a zero at one gives the reverse comparison once the
    spectrum is moderately mixed: already for d = (2, 2), sum_j s(d_j)
    = 2.7549 exceeds s(4) = 2.4274, and the product of two thermal modes
    with c = d = (2, 2) is a counterexample to the end-to-end aggregate
    bound itself.  The criterion is implemented as stated here and fails
    honestly rather than being weakened to pass.
    """
    rng = np.random.default_rng(20240820)
    worst = np.inf
    violations = 0
    for trial in range(500):
        n = 2 + trial % 7
        d_in = np.sort(rng.uniform(1.0, 3.0, n))
        S = random_symplectic(n, 5.0, rng)
        cov = CovarianceMatrix(S.entries @ interleaved_diagonal(d_in) @ S.entries.T)
        c = local_diagonal(cov).values.values
        d = symplectic_eigenvalues(cov).values
        first = entropy_s(float(np.sum(d))) - sum(entropy_s(max(v, 1.0)) for v in d)
        second = entropy_s(float(np.sum(c))) - entropy_s(float(np.sum(d)))
        worst = min(worst, first, second)
        if min(first, second) < -1e-9:
            violations += 1
    ok = worst >= -1e-9
    report("C6 entropy chain on random states",
           ok, f"500 trials, {violations} violations, worst slack {worst:.3g}; "
               "middle step of the chain is false for moderately mixed spectra")
    assert worst >= -1e-9, (
        "sum_j s(d_j) <= s(sum_j d_j) fails for moderately mixed spectra; "
        "concavity with s(1) = 0 bounds s of the shifted sum from above by "
        "the per-mode sum, not below (counterexample d = (2, 2)): "
        f"worst slack {worst:.3g} over 500 sampled states"
    )


def test_criterion_7_preparation_soundness():
    rng = np.random.default_rng(20240821)
    worst = 0.0
    count_violations = 0
    for trial in range(TRIALS_CIRCUITS):
        n = 1 + trial % 6
        S = random_symplectic(n, 3.0, rng)
        gamma = CovarianceMatrix(S.entries @ S.entries.T)
        circuit = circuit_from_pure(gamma)
        scale = max(1.0, float(np.max(np.abs(gamma.entries))))
        defect = float(np.max(np.abs(replay_circuit(circuit) - gamma.entries))) / scale
        worst = max(worst, defect)
        if len(circuit.passive_ops) > n * (n - 1) // 2 + n:
            count_violations += 1
    ok = worst <= 1e-7 and count_violations == 0
    report("C7 preparation soundness",
           ok, f"{TRIALS_CIRCUITS} pure targets, worst replay defect {worst:.3g}, "
               f"count violations {count_violations}")
    assert worst <= 1e-7
    assert count_violations == 0


def test_criterion_8_reconstruction_and_invariance(matrix_trials):
    s = matrix_trials
    ok = (s.williamson_worst <= 1e-8 and s.euler_worst <= 1e-8
          and s.invariance_worst <= 1e-8)
    report("C8 Williamson/Euler reconstruction",
           ok, f"williamson {s.williamson_worst:.3g}, euler {s.euler_worst:.3g}, "
               f"spectrum invariance {s.invariance_worst:.3g}")
    assert s.williamson_worst <= 1e-8
    assert s.euler_worst <= 1e-8
    assert s.invariance_worst <= 1e-8
