"""Numerical tolerances.

Five are fixed constants.  One, the feasibility slack ``tol_ineq``, is
settable: the functions that evaluate the feasibility inequalities take it
as a keyword, defaulting to ``TOL_INEQ``, and the CLI reads it from
``--tol-ineq`` or the ``MODEMATCH_TOL_INEQ`` environment variable (a decimal
value).  Wherever it enters, ``valid_tol_ineq`` requires it to be finite and
positive.  ``real_float`` is the one test of what a real number is.
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
# slack of a symplectic or local mode value against the vacuum value 1
TOL_PSD = 1e-9
# allowed self-check defect, relative to max(1, the largest entry checked)
TOL_RECON = 1e-8
# relative tolerance for pairing the skew spectrum into doublets, scaled by
# the largest symplectic eigenvalue
TOL_PAIR_REL = 1e-8
# default slack below which a feasibility inequality counts as violated, as a
# fraction of max(1, the largest value of the pair judged)
TOL_INEQ = 1e-9


def real_float(value, what: str) -> float:
    """A real number, by type, as a Python float: a ``float``, or any other
    ``numbers.Real`` (ints, bools, fractions, numpy's real scalars) through
    ``float()``, an int or fraction past the float range as +/-inf.  Complex
    values, text, ``Decimal``, None, sequences, numpy's bool and 0-d arrays are not."""
    if value.__class__ is float:
        return value
    if not isinstance(value, numbers.Real):
        raise InvalidInput(f"{what} must be real, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
