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

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .config import DEFAULT, Tolerances
from .core import (
    CovarianceMatrix,
    SpectrumVector,
    _as_covariance,
    _descends,
    symplectic_eigenvalues,
)
from .errors import InvalidInput

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


def _as_vector(values, what: str) -> list:
    """A non-empty 1-d vector of finite values, as a list of Python floats.

    Vectors here have one entry per mode, so checks and reductions run on
    floats: at these sizes each numpy dispatch costs more than the work.
    """
    if isinstance(values, SpectrumVector):
        values = values.values
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput(f"{what} must be a non-empty 1-d vector")
    out = arr.tolist()
    if not all(map(math.isfinite, out)):
        raise InvalidInput(f"{what} has non-finite entries")
    return out


def local_diagonal(gamma, tol: Tolerances = DEFAULT) -> LocalDiagonal:
    """Local symplectic values c_j = sqrt(det of the j-th 2x2 diagonal block).

    The returned values are sorted non-decreasing with the permutation
    recorded; the stored per-mode transforms bring each diagonal block to
    c_j * I without touching other modes.
    """
    g = _as_covariance(gamma, tol).entries
    # the block diagonals (2k, 2k), (2k + 1, 2k + 1) and (2k, 2k + 1) are
    # strided views of the flat array; per mode, the work is on floats
    m = g.shape[0]
    flat = g.ravel()
    blocks = zip(flat[:: 2 * m + 2].tolist(), flat[m + 1 :: 2 * m + 2].tolist(),
                 flat[1 :: 2 * m + 2].tolist())
    raw, transforms = [], []
    for j, (xx, pp, xp) in enumerate(blocks):
        det = xx * pp - xp * xp
        if det <= 0 or xx <= 0:
            raise InvalidInput(f"diagonal block of mode {j} is not positive (det {det:.3g})")
        c = math.sqrt(det)
        raw.append(c)
        # determinant-one L = sqrt(c) chol(block)^-1, so L block L^T = c * I
        transforms += (math.sqrt(c / xx), 0.0, -xp / math.sqrt(xx * c), math.sqrt(xx / c))
    order = sorted(range(len(raw)), key=raw.__getitem__)
    values = SpectrumVector([raw[j] for j in order], kind="local_diagonal")
    return LocalDiagonal(values=values, order=np.array(order),
                         transforms=np.array(transforms).reshape(-1, 2, 2), raw=np.array(raw))


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


def _validate_pair(c: list, d: list):
    if len(c) != len(d):
        raise InvalidInput(f"vectors have lengths {len(c)} and {len(d)}")
    for name, v in (("c", c), ("d", d)):
        if min(v) <= 0:
            raise InvalidInput(f"{name} must be strictly positive")
        if _descends(v):
            raise InvalidInput(f"{name} must be non-decreasing")


def check_mixed(c, d, tol: Tolerances = DEFAULT) -> FeasibilityVerdict:
    """Feasibility gate for a (local values, spectrum) pair.

    Both vectors must be sorted non-decreasing and strictly positive.  The
    verdict carries one slack per partial-sum condition plus the final
    anti-majorization condition.
    """
    c = _as_vector(c, "c")
    d = _as_vector(d, "d")
    _validate_pair(c, d)
    # running sums in order, as np.cumsum forms them; the last one is the total
    sum_c, sum_d = list(accumulate(c)), list(accumulate(d))
    values = [a - b for a, b in zip(sum_c, sum_d)]
    values.append((2.0 * d[-1] - sum_d[-1]) - (2.0 * c[-1] - sum_c[-1]))
    slacks = [ConstraintSlack(PARTIAL_SUM, k, s) for k, s in enumerate(values[:-1], start=1)]
    slacks.append(ConstraintSlack(LAST_CONDITION, None, values[-1]))
    feasible = all(s >= -tol.tol_ineq for s in values)
    return FeasibilityVerdict(feasible=feasible, slacks=slacks, tol_ineq=tol.tol_ineq)


def check_pure(b, tol: Tolerances = DEFAULT) -> FeasibilityVerdict:
    """Feasibility of local excitations b >= 0 against a pure global state.

    Equivalent to check_mixed(b + 1, (1, ..., 1)); only the binding
    constraint for the largest entry is reported, the others being implied.
    """
    b = _as_vector(b, "b")
    if min(b) < 0:
        raise InvalidInput("b entries must be non-negative")
    top = max(b)
    j = b.index(top)
    slack = sum(b) - 2.0 * top
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
    values = np.asarray(T, dtype=float)
    if np.any(values <= 0):
        raise InvalidInput("temperatures must be strictly positive")
    with np.errstate(over="ignore"):
        return 2.0 / np.expm1(1.0 / values)


def b_to_temperature(b) -> np.ndarray:
    """Invert the excitation map: T = 1 / log(1 + 2/b).

    b = 0 maps to T = 0 exactly, which marks a pure local mode.
    """
    b = np.asarray(b, dtype=float)
    if np.any(b < 0):
        raise InvalidInput("b entries must be non-negative")
    out = np.zeros_like(b)
    positive = b > 0
    out[positive] = 1.0 / np.log1p(2.0 / b[positive])
    return out
