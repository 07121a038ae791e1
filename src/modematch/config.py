"""Numerical tolerances.

Six are fixed constants.  One, the feasibility slack ``tol_ineq``, is
settable: the functions that evaluate the feasibility inequalities take it
as a keyword, defaulting to ``TOL_INEQ``, and the CLI reads it from
``--tol-ineq`` or the ``MODEMATCH_TOL_INEQ`` environment variable (a decimal
value).  Wherever it enters, ``valid_tol_ineq`` requires it to be finite and
positive.  ``real_float`` states the one rule on real inputs.
"""

import math
import numbers
import os

from .errors import InvalidInput

ENV_TOL_INEQ = "MODEMATCH_TOL_INEQ"

# symmetry defect, relative to max(1, matrix max-norm)
TOL_SYM = 1e-10
# max-norm of S sigma S^T - sigma, relative to max(1, max|S|^2), since the
# form is quadratic in S
TOL_SYMPL = 1e-10
# strict-positivity threshold on the smallest eigenvalue
TOL_POS = 1e-12
# slack of a symplectic or local mode value against the vacuum value 1
TOL_PSD = 1e-9
# allowed reconstruction defect of decompositions
TOL_RECON = 1e-8
# relative tolerance for pairing the skew spectrum into doublets, scaled by
# the largest symplectic eigenvalue
TOL_PAIR_REL = 1e-8
# default slack below which a feasibility inequality counts as violated
TOL_INEQ = 1e-9


def real_float(value, what: str) -> float:
    """A real input as a Python float.  A value of complex type is rejected
    whatever its imaginary part, which ``float()`` of a numpy complex scalar
    drops with only a warning; numpy registers its complex scalars as
    ``numbers.Complex`` and its real ones as ``numbers.Real``."""
    if value.__class__ is float:
        return value
    if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
        raise InvalidInput(f"{what} must be real, got {value}")
    return float(value)


def valid_tol_ineq(value, what: str = "tol_ineq") -> float:
    """The feasibility slack tolerance, which must be finite and positive."""
    value = real_float(value, what)
    if not 0.0 < value < math.inf:
        raise InvalidInput(f"{what} must be finite and positive, got {value}")
    return value


def from_environment() -> float:
    """The feasibility slack tolerance, from the environment if it is set."""
    raw = os.environ.get(ENV_TOL_INEQ)
    if raw is None:
        return TOL_INEQ
    try:
        value = float(raw)
    except ValueError:
        raise InvalidInput(f"{ENV_TOL_INEQ} must be a decimal value, got {raw!r}") from None
    return valid_tol_ineq(value, ENV_TOL_INEQ)
