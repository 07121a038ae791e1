"""Sampled end-to-end property suites.

Drives random instances through the full pipeline and holds each raw result
to the rule the rest of the program uses: the feasibility conditions on
random states to their verdict, whose shortfall, minus its smallest slack
over its ``scale``, is reported beside ``tol_ineq``, and the Williamson and
Euler reconstruction, synthesis round-trip and circuit replay defects, pure
and mixed targets alike, relative to max(1, the largest reference entry), to
``tol_recon``, measured by the same defect functions the CLI's self-checks
call.  Each suite reports ``worst``, the largest defect it saw, beside its
positive ``bound``.  Used by the ``verify`` CLI subcommand; a clean build
reports zero violations.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .circuits import circuit_from_matrix, replay_defect
from .config import TOL_INEQ, TOL_RECON, _generator, _int_at_least, valid_tol_ineq
from .core import (
    CovarianceMatrix,
    euler_decompose,
    euler_defect,
    interleaved_diagonal,
    random_symplectic,
    williamson,
    williamson_defect,
)
from .errors import InvalidInput, ModeMatchError
from .marginals import check_matrix_consistency
from .synthesis import sample_feasible_pair, synthesis_defect, synthesize


@dataclass
class SuiteResult:
    """Raw defects of one property, held to ``bound`` from above, or shown
    beside it and judged by their verdict's ``held``.

    ``worst`` is the largest defect seen.  A result that failed validation,
    or is not finite, counts as a violation and leaves ``worst`` as it was.
    """

    name: str
    bound: float
    trials: int = 0
    violations: int = 0
    worst: float | None = None

    def record(self, value: float | None, held: bool | None = None):
        self.trials += 1
        if value is None or not math.isfinite(value):
            self.violations += 1
            return
        self.worst = value if self.worst is None else max(self.worst, value)
        if not (value <= self.bound if held is None else held):
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
    S = random_symplectic(n, squeeze_bound, rng).entries
    return CovarianceMatrix(S @ interleaved_diagonal(d) @ S.T)


def run_verification(trials: int, n_max: int, seed=None, squeeze_bound: float = 5.0,
                     corrupt=None, *, tol_ineq: float = TOL_INEQ) -> VerificationSummary:
    """Run every suite over ``trials`` sampled instances, drawn from the
    generator of ``seed`` (``config._generator``).

    ``corrupt``, when given, maps each synthesized witness to the matrix
    ``synthesis_defect`` measures; it exists so the harness itself can be
    sanity-checked against an intentionally broken pipeline.
    """
    if not (_int_at_least(trials) and _int_at_least(n_max)):
        raise InvalidInput(f"trials and n_max must be positive integers, got {trials}, {n_max}")
    tol_ineq = valid_tol_ineq(tol_ineq)
    rng = _generator(seed)
    start = time.perf_counter()
    necessity = SuiteResult("necessity", tol_ineq)
    recon = SuiteResult("williamson_euler_reconstruction", TOL_RECON)
    roundtrip = SuiteResult("synthesis_roundtrip", TOL_RECON)
    circuits = SuiteResult("circuit_replay", TOL_RECON)

    for trial in range(trials):
        n = 2 + trial % max(1, n_max - 1) if n_max > 1 else 1
        gamma = random_physical_covariance(rng, n, squeeze_bound)
        verdict = check_matrix_consistency(gamma, tol_ineq=tol_ineq)
        necessity.record(-verdict.min_slack / verdict.scale, verdict.feasible)
        S_w, d_w = williamson(gamma)
        # np.max, unlike max, keeps a NaN defect
        recon.record(float(np.max((williamson_defect(gamma, S_w, d_w),
                                   euler_defect(S_w, euler_decompose(S_w))))))

        if trial % 5 == 0:
            c, d = sample_feasible_pair(rng, int(rng.integers(1, n_max + 1)))
            witness = synthesize(c, d, tol_ineq=tol_ineq).final_matrix
            try:
                if corrupt is not None:
                    witness = CovarianceMatrix(corrupt(witness.entries))
                roundtrip.record(synthesis_defect(witness, c, d))
            except ModeMatchError:
                # a matrix that no longer validates counts as a violation
                roundtrip.record(None)

        if trial % 10 == 0:
            # pure targets (d = 1) and mixed ones in turn; a Reck mesh has at
            # most m(m - 1)/2 rotations and m phases, and a mixed circuit two
            m, pure = int(rng.integers(1, min(n_max, 6) + 1)), trial % 20 == 0
            target = random_physical_covariance(rng, m, min(squeeze_bound, 3.0),
                                                d_high=1.0 if pure else 3.0)
            circ = circuit_from_matrix(target)
            meshed = len(circ.passive_ops) <= (1 if pure else 2) * (m * (m - 1) // 2 + m)
            circuits.record(replay_defect(circ, target.entries) if meshed else None)

    return VerificationSummary(suites=[necessity, recon, roundtrip, circuits],
                               elapsed_s=time.perf_counter() - start)
