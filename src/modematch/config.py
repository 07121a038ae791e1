"""Default numerical tolerances.

All tolerances can be overridden per call; the CLI additionally honours the
``MODEMATCH_TOL_INEQ`` environment variable (a decimal value) for the
inequality slack tolerance.
"""

import os
from dataclasses import dataclass, replace

ENV_TOL_INEQ = "MODEMATCH_TOL_INEQ"


@dataclass(frozen=True)
class Tolerances:
    """Bundle of tolerances used across the library.

    Attributes:
        tol_sym: symmetry defect, relative to max(1, matrix max-norm).
        tol_sympl: max-norm of S sigma S^T - sigma, relative to
            max(1, max|S|^2), since the form is quadratic in S.
        tol_pos: strict-positivity threshold on the smallest eigenvalue.
        tol_psd: slack allowed in the uncertainty (physicality) test.
        tol_recon: allowed reconstruction defect of decompositions.
        tol_ineq: slack below which a feasibility inequality counts as violated.
        tol_pair_rel: relative tolerance for pairing the skew spectrum into
            doublets (scaled by the largest symplectic eigenvalue).
    """

    tol_sym: float = 1e-10
    tol_sympl: float = 1e-10
    tol_pos: float = 1e-12
    tol_psd: float = 1e-9
    tol_recon: float = 1e-8
    tol_ineq: float = 1e-9
    tol_pair_rel: float = 1e-8

    def with_tol_ineq(self, tol_ineq: float) -> "Tolerances":
        return replace(self, tol_ineq=tol_ineq)


DEFAULT = Tolerances()


def from_environment() -> Tolerances:
    """Default tolerances with the environment override applied, if any."""
    raw = os.environ.get(ENV_TOL_INEQ)
    if raw is None:
        return DEFAULT
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_TOL_INEQ} must be a decimal value, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{ENV_TOL_INEQ} must be positive, got {value}")
    return DEFAULT.with_tol_ineq(value)
