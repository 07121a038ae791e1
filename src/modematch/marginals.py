"""Local mode data and the feasibility gate.

The central question: given a target symplectic spectrum d and per-mode
local symplectic values c (both positive, non-decreasing), does a strictly
positive matrix exist realising both?  The answer is yes exactly when the n
partial-sum conditions

    c_1 + ... + c_k >= d_1 + ... + d_k        (k = 1, ..., n)

and the anti-majorization condition

    c_n - (c_1 + ... + c_{n-1}) <= d_n - (d_1 + ... + d_{n-1})

hold.  Verdicts expose signed slacks, negative meaning violated, so boundary
cases stay testable.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .core import CovarianceMatrix, SpectrumVector, _as_covariance, symplectic_eigenvalues
from .errors import (
    LengthMismatch,
    NegativeEntry,
    NonPositive,
    NonPositiveTemperature,
    NotPositive,
    NotSorted,
)

PARTIAL_SUM = "partial_sum"
LAST_CONDITION = "last_condition"


@dataclass
class ConstraintSlack:
    """Signed distance to one feasibility inequality (negative = violated)."""

    name: str
    index: int | None
    slack: float

    def label(self) -> str:
        if self.name == PARTIAL_SUM:
            return f"{PARTIAL_SUM}({self.index})"
        if self.index is None:
            return self.name
        return f"{self.name}(j={self.index})"


@dataclass
class FeasibilityVerdict:
    """Outcome of a feasibility check with per-constraint slacks."""

    feasible: bool
    slacks: list[ConstraintSlack]
    tol_ineq: float

    @property
    def violated(self) -> list[ConstraintSlack]:
        return [s for s in self.slacks if s.slack < -self.tol_ineq]

    @property
    def min_slack(self) -> float:
        return min(s.slack for s in self.slacks)


@dataclass
class LocalDiagonal:
    """Per-mode local symplectic values of a matrix, sorted non-decreasing.

    ``order`` maps sorted positions back to original mode indices, and
    ``transforms`` stacks one determinant-one 2x2 matrix per original mode,
    shape (n, 2, 2), mapping that mode's diagonal block to c_j * I.
    """

    values: SpectrumVector
    order: np.ndarray
    transforms: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))
    raw: np.ndarray | None = None


@dataclass
class TemperatureVector:
    """Per-mode temperatures in standard-oscillator units.

    Entries are strictly positive except for exact zeros, which mark modes
    whose local excitation b vanished (a pure local mode).
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < 0):
            raise NegativeEntry("temperatures must be non-negative")

    @property
    def zero_mask(self) -> np.ndarray:
        return self.values == 0.0


def _as_vector(values, what: str) -> np.ndarray:
    if isinstance(values, SpectrumVector):
        return values.values
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-d vector")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has non-finite entries")
    return arr


def local_diagonal(gamma, tol: Tolerances = DEFAULT) -> LocalDiagonal:
    """Local symplectic values c_j = sqrt(det of the j-th 2x2 diagonal block).

    The returned values are sorted non-decreasing with the permutation
    recorded; the stored per-mode transforms bring each diagonal block to
    c_j * I without touching other modes.
    """
    g = _as_covariance(gamma, tol).entries
    xx, pp, xp = np.diag(g)[0::2], np.diag(g)[1::2], np.diag(g, 1)[0::2]
    det = xx * pp - xp * xp
    bad = (det <= 0) | (xx <= 0)
    if bad.any():
        j = int(np.argmax(bad))
        raise NotPositive(f"diagonal block of mode {j} is not positive (det {det[j]:.3g})")
    raw = np.sqrt(det)
    # determinant-one L = sqrt(c) chol(block)^-1, so L block L^T = c * I
    transforms = np.zeros((raw.size, 2, 2))
    transforms[:, 0, 0] = np.sqrt(raw / xx)
    transforms[:, 1, 0] = -xp / np.sqrt(xx * raw)
    transforms[:, 1, 1] = np.sqrt(xx / raw)
    order = np.argsort(raw, kind="stable")
    values = SpectrumVector(raw[order], kind="local_diagonal")
    return LocalDiagonal(values=values, order=order, transforms=transforms, raw=raw)


def local_normal_form(gamma, tol: Tolerances = DEFAULT):
    """Apply the per-mode transforms so every diagonal block becomes c_j * I.

    Returns the transformed covariance matrix (mode order unchanged) together
    with the LocalDiagonal record used.
    """
    cov = _as_covariance(gamma, tol)
    local = local_diagonal(cov, tol)
    modes = np.arange(cov.n)
    L = np.zeros((cov.n, 2, cov.n, 2))
    L[modes, :, modes, :] = local.transforms
    L = L.reshape(2 * cov.n, 2 * cov.n)
    return CovarianceMatrix(L @ cov.entries @ L.T, tol=tol), local


def _validate_pair(c: np.ndarray, d: np.ndarray):
    if c.size != d.size:
        raise LengthMismatch(f"vectors have lengths {c.size} and {d.size}")
    for name, v in (("c", c), ("d", d)):
        if v.min() <= 0:
            raise NonPositive(f"{name} must be strictly positive")
        if (v[1:] < v[:-1]).any():
            raise NotSorted(f"{name} must be non-decreasing")


def check_mixed(c, d, tol: Tolerances = DEFAULT) -> FeasibilityVerdict:
    """Feasibility gate for a (local values, spectrum) pair.

    Both vectors must be sorted non-decreasing and strictly positive.  The
    verdict carries one slack per partial-sum condition plus the final
    anti-majorization condition.
    """
    c = _as_vector(c, "c")
    d = _as_vector(d, "d")
    _validate_pair(c, d)
    partial = (np.cumsum(c) - np.cumsum(d)).tolist()
    last = float((2.0 * d[-1] - np.sum(d)) - (2.0 * c[-1] - np.sum(c)))
    slacks = [ConstraintSlack(PARTIAL_SUM, k, s) for k, s in enumerate(partial, start=1)]
    slacks.append(ConstraintSlack(LAST_CONDITION, None, last))
    feasible = all(s.slack >= -tol.tol_ineq for s in slacks)
    return FeasibilityVerdict(feasible=feasible, slacks=slacks, tol_ineq=tol.tol_ineq)


def check_pure(b, tol: Tolerances = DEFAULT) -> FeasibilityVerdict:
    """Feasibility of local excitations b >= 0 against a pure global state.

    Equivalent to check_mixed(b + 1, (1, ..., 1)); only the binding
    constraint for the largest entry is reported, the others being implied.
    """
    b = _as_vector(b, "b")
    if np.any(b < 0):
        raise NegativeEntry("b entries must be non-negative")
    return _pure_verdict(b, tol)


def _pure_verdict(b: np.ndarray, tol: Tolerances) -> FeasibilityVerdict:
    """check_pure on an already validated vector b >= 0."""
    j = int(np.argmax(b))
    slack = float(np.sum(b) - 2.0 * b[j])
    return FeasibilityVerdict(
        feasible=slack >= -tol.tol_ineq,
        slacks=[ConstraintSlack(LAST_CONDITION, j, slack)],
        tol_ineq=tol.tol_ineq,
    )


def check_matrix_consistency(gamma, tol: Tolerances = DEFAULT) -> FeasibilityVerdict:
    """Run the feasibility gate on a matrix's own (c, d) data.

    Every valid strictly positive matrix must pass; a failing verdict
    signals numerical corruption of the input.
    """
    cov = _as_covariance(gamma, tol)
    c = local_diagonal(cov, tol).values
    d = symplectic_eigenvalues(cov, tol)
    return check_mixed(c, d, tol)


def temperature_to_b(T) -> np.ndarray:
    """Local excitation b = 2 / (exp(1/T) - 1) per mode.

    Monotone increasing in T; tiny temperatures underflow to b = 0.
    """
    values = T.values if isinstance(T, TemperatureVector) else np.asarray(T, dtype=float)
    if np.any(values <= 0):
        raise NonPositiveTemperature("temperatures must be strictly positive")
    with np.errstate(over="ignore"):
        return 2.0 / np.expm1(1.0 / values)


def b_to_temperature(b) -> TemperatureVector:
    """Invert the excitation map: T = 1 / log(1 + 2/b).

    b = 0 maps to an exact zero-temperature marker.
    """
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise NegativeEntry("b entries must be non-negative")
    out = np.zeros_like(b)
    positive = b > 0
    out[positive] = 1.0 / np.log1p(2.0 / b[positive])
    return TemperatureVector(out)
