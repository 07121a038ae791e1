"""Local mode data of a covariance matrix.

The local symplectic values c_j of a matrix, the feasibility gate run on a
matrix's own (c, d), and the maps between local excitations and
temperatures.  The gate itself is in ``gate``, which needs no numpy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL_INEQ, _as_vector
from .core import SpectrumVector, _as_covariance, symplectic_eigenvalues
from .errors import InvalidInput
from .gate import FeasibilityVerdict, check_mixed


@dataclass(eq=False)
class LocalDiagonal:
    """Per-mode local symplectic values of a matrix, sorted non-decreasing."""

    values: SpectrumVector


def local_diagonal(gamma) -> LocalDiagonal:
    """Local symplectic values c_j = sqrt(det of the j-th 2x2 diagonal block),
    sorted non-decreasing."""
    g = _as_covariance(gamma).entries
    # the entries (2k, 2k), (2k + 1, 2k + 1) and (2k, 2k + 1) of each block
    # are strided views of the diagonals; per mode, the work is on floats
    diag, upper = g.diagonal(), g.diagonal(1)
    blocks = zip(diag[0::2].tolist(), diag[1::2].tolist(), upper[0::2].tolist())
    values = []
    for j, (xx, pp, xp) in enumerate(blocks):
        det = xx * pp - xp * xp
        if det <= 0 or xx <= 0:
            raise InvalidInput(f"diagonal block of mode {j} is not positive (det {det:.3g})")
        values.append(math.sqrt(det))
    return LocalDiagonal(SpectrumVector(sorted(values)))


def check_matrix_consistency(gamma, *, tol_ineq: float = TOL_INEQ) -> FeasibilityVerdict:
    """Run the feasibility gate on a matrix's own (c, d) data.

    Every valid strictly positive matrix must pass; a failing verdict
    signals numerical corruption of the input.
    """
    cov = _as_covariance(gamma)
    c = local_diagonal(cov).values
    d = symplectic_eigenvalues(cov)
    return check_mixed(c, d, tol_ineq=tol_ineq)


def temperature_to_b(T) -> np.ndarray:
    """Local excitation b = 2 / (exp(1/T) - 1) per mode, for a vector of
    temperatures (``config._as_vector``); monotone increasing in T, and tiny
    temperatures underflow to b = 0."""
    T = _as_vector(T, "temperatures")
    if min(T) <= 0:
        raise InvalidInput("temperatures must be strictly positive")
    with np.errstate(over="ignore"):
        return 2.0 / np.expm1(1.0 / np.array(T))


def b_to_temperature(b) -> np.ndarray:
    """Invert the excitation map for a vector b >= 0 (``config._as_vector``):
    T = 1 / log(1 + 2/b), and b = 0 maps to T = 0 exactly, which marks a
    pure local mode.  Where 2/b overflows, for a subnormal b, the log is
    taken as log 2 - log b, so every positive b has a finite positive T."""
    b = _as_vector(b, "b")
    if min(b) < 0:
        raise InvalidInput("b entries must be non-negative")
    b = np.array(b)
    out = np.zeros_like(b)
    positive = b[b > 0]
    with np.errstate(over="ignore"):
        ratio = 2.0 / positive
    out[b > 0] = 1.0 / np.where(ratio < math.inf, np.log1p(ratio), math.log(2.0) - np.log(positive))
    return out
