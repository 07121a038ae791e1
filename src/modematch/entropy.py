"""Thermal entropy function, entanglement sharing, and the aggregate expression.

The per-mode entropy of a thermal mode with local symplectic value c is

    s(c) = ((c + 1) / 2) log2((c + 1) / 2) - ((c - 1) / 2) log2((c - 1) / 2),

a monotone increasing concave function on [1, inf) with s(1) = 0, measured
in bits.  For a globally pure state the entanglement of mode j with the rest
is s(c_j), and the attainable entanglement profiles form the image of the
cone c_j - 1 <= sum_{k != j} (c_k - 1).

The aggregate s(sum c_k) is the paper's expression for a global entropy
bound from local values.  It is not a bound for mixed states: a product of
two thermal modes with c = d = (2, 2) has entropy 2 s(2) = 2.755 bits, more
than s(4) = 2.427 bits.  It is kept under its historical name,
``EntropyReport.global_upper_bound``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import TOL_INEQ, _as_vector, real_float, valid_tol_ineq
from .core import _as_covariance, symplectic_eigenvalues
from .errors import InvalidInput
from .gate import _pure_verdict, at_vacuum, below_vacuum, check_pure
from .marginals import local_diagonal

_LN2, _FLOAT_MAX = math.log(2.0), math.nextafter(math.inf, 0.0)


@dataclass(eq=False)
class EntropyReport:
    """Per-mode entropies, their sum, and the paper's aggregate expression.

    ``total_local_sum`` = sum_j s(c_j) is the quantity that bounds the global
    entropy of any state with local values c: at fixed second moments a
    Gaussian state has the largest entropy, so mode j alone has entropy at
    most s(c_j), and subadditivity adds these up.  ``global_upper_bound``
    holds the paper's aggregate s(sum c), which is not a bound for mixed
    states despite its name.
    """

    per_mode_entropies: np.ndarray
    total_local_sum: float
    global_upper_bound: float
    purity_consistent: bool


def entropy_s(c: float) -> float:
    """Thermal entropy in bits of a mode with local symplectic value c >= 1.

    Values below one but not below the vacuum, that is within TOL_PSD of
    it, are clamped to one; s(1) = 0 by the 0 log 0 = 0 convention.  The
    defining difference cancels two terms of size c log2(c) and loses every
    bit near c = 1e16, so with down = (c - 1) / 2 it is evaluated as
    (log1p(down) + down log1p(1 / down)) / ln 2, within a few ulp from
    c = 1 to the largest float.  A c that is not a finite real (``real_float``) is rejected.
    """
    c = real_float(c, "entropy argument")
    if not math.isfinite(c):
        raise InvalidInput(f"entropy argument {c} is not finite")
    if below_vacuum(c):
        raise InvalidInput(f"entropy argument {c} lies below 1")
    down = 0.5 * (max(c, 1.0) - 1.0)
    return (math.log1p(down) + down * math.log1p(1.0 / down)) / _LN2 if down else 0.0


def entropy_s_inverse(value: float) -> float:
    """Monotone inverse of entropy_s by bisection.

    Brackets the root by geometric growth of the upper end, capped at the
    largest float, whose s of about 1024.4 bits bounds the values accepted,
    then bisects the interval down to 1e-12 (absolute, with a relative
    floor for large arguments).
    """
    value = real_float(value, "entropy value")
    if not math.isfinite(value):
        raise InvalidInput(f"entropy value {value} is not finite")
    if value < 0.0:
        raise InvalidInput(f"entropy value {value} is negative")
    if value == 0.0:
        return 1.0
    hi = 2.0
    while entropy_s(hi) < value:
        if hi == _FLOAT_MAX:
            raise InvalidInput(f"entropy value {value} exceeds s of the largest float")
        hi = min(2.0 * hi, _FLOAT_MAX)
    lo = 1.0
    # halves before the sum, which is exact and cannot overflow at the cap
    while hi - lo > 1e-12 * max(1.0, lo):
        mid = 0.5 * lo + 0.5 * hi
        if entropy_s(mid) < value:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def entanglement_profile(gamma) -> np.ndarray:
    """Entropies (s(c_1), ..., s(c_n)) of the single-mode reductions.

    Requires a physical pure-state covariance; for such states the per-mode
    entropy equals the entanglement of that mode with the rest.
    """
    cov = _as_covariance(gamma)
    d = symplectic_eigenvalues(cov).values
    if not all(map(at_vacuum, d.tolist())):
        raise InvalidInput(f"matrix is not pure: symplectic spectrum {d}")
    c = local_diagonal(cov).values.values.tolist()
    return np.array([entropy_s(v) for v in c])


def sharing_feasible(E, *, tol_ineq: float = TOL_INEQ):
    """Can entanglement entropies E arise from one pure global state?

    Inverts the entropy function mode by mode and applies the pure-state
    feasibility cone to the recovered local excitations.
    """
    E = _as_vector(E, "E")
    if min(E) < 0:
        raise InvalidInput("entanglement entropies must be non-negative")
    return check_pure([max(entropy_s_inverse(v) - 1.0, 0.0) for v in E], tol_ineq=tol_ineq)


def entropy_report(c, *, tol_ineq: float = TOL_INEQ) -> EntropyReport:
    """Assemble the entropy summary from local values c alone; a caller
    with a matrix passes ``local_diagonal(gamma).values``.

    c is validated once, here; the per-mode entropies check c >= 1, and the
    aggregate s(sum c) and the purity test then run on the validated vector.
    The purity test is check_pure's verdict on the excitations b = c - 1,
    which need no second validation.
    """
    tol_ineq = valid_tol_ineq(tol_ineq)
    c = _as_vector(c, "c")
    c.sort()
    per_mode = [entropy_s(v) for v in c]
    return EntropyReport(
        per_mode_entropies=np.array(per_mode),
        total_local_sum=sum(per_mode),
        global_upper_bound=entropy_s(sum(max(v, 1.0) for v in c)),
        purity_consistent=_pure_verdict([max(v - 1.0, 0.0) for v in c], tol_ineq).feasible,
    )
