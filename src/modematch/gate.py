"""The feasibility gate.

The central question: given a target symplectic spectrum d and per-mode
local symplectic values c (both positive, non-decreasing), does a strictly
positive matrix exist realising both?  The answer is yes exactly when the n
partial-sum conditions

    c_1 + ... + c_k >= d_1 + ... + d_k        (k = 1, ..., n)

and the anti-majorization condition

    c_n - (c_1 + ... + c_{n-1}) <= d_n - (d_1 + ... + d_{n-1})

hold.  Verdicts expose signed slacks, negative meaning violated, so boundary
cases stay testable.

It also holds the rules on per-mode values: ``_as_vector`` (finite real
vectors), ``_check_positive_sorted`` (spectra), ``_check_total`` (totals the
slacks can double without overflow), and ``below_vacuum`` and ``at_vacuum``,
each one comparison of a value with the vacuum value 1 within ``TOL_PSD``.

The gate is n + 1 sums of Python floats, so this module must stay free of
numpy and of the matrix modules: ``modematch.check_mixed`` and ``modematch
check --c --d`` load only ``config``, ``errors`` and this module.  Its two
records are plain ``__slots__`` classes, since ``dataclasses`` imports
``inspect``.  ``tests/test_startup.py`` enforces this in fresh interpreters.
"""

import math
import sys
from itertools import accumulate

from .config import TOL_INEQ, TOL_PSD, real_float, valid_tol_ineq
from .errors import InvalidInput

PARTIAL_SUM = "partial_sum"
LAST_CONDITION = "last_condition"

# a SpectrumVector exists only once modematch.core is loaded, so its class
# is looked up in sys.modules rather than imported
_MODULES = sys.modules
_CORE = f"{__package__}.core"


class _Record:
    """Repr and equality over ``__slots__``, as a dataclass has them."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, key) for key in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{key}={getattr(self, key)!r}" for key in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class ConstraintSlack(_Record):
    """Signed distance to one feasibility inequality (negative = violated):
    ``name``, ``index`` (None or an int) and ``slack``."""

    __slots__ = ("name", "index", "slack")

    def __init__(self, name: str, index: int | None, slack: float):
        self.name, self.index, self.slack = name, index, slack

    def label(self) -> str:
        if self.name == PARTIAL_SUM:
            return f"{PARTIAL_SUM}({self.index})"
        if self.index is None:
            return self.name
        return f"{self.name}(j={self.index})"


class FeasibilityVerdict(_Record):
    """Outcome of a feasibility check: ``feasible``, the per-constraint
    ``slacks`` and the ``tol_ineq`` they were judged against."""

    __slots__ = ("feasible", "slacks", "tol_ineq")

    def __init__(self, feasible: bool, slacks: list[ConstraintSlack], tol_ineq: float):
        self.feasible, self.slacks, self.tol_ineq = feasible, slacks, tol_ineq

    @property
    def violated(self) -> list[ConstraintSlack]:
        return [s for s in self.slacks if s.slack < -self.tol_ineq]

    @property
    def min_slack(self) -> float:
        return min(s.slack for s in self.slacks)


def _as_vector(values, what: str) -> list:
    """A non-empty 1-d vector of finite values, as a list of Python floats.

    Vectors here have one entry per mode, so checks and reductions run on
    floats: at these sizes each numpy dispatch costs more than the work.  An
    array or a SpectrumVector goes through ``tolist()``; any other iterable
    of reals goes through ``real_float``.
    """
    ndim = getattr(values, "ndim", None)
    if ndim is None:
        core = _MODULES.get(_CORE)
        if core is not None and isinstance(values, core.SpectrumVector):
            values = values.values
            ndim = values.ndim
    if ndim is None:
        if isinstance(values, (str, bytes)):
            raise InvalidInput(f"{what} must be a non-empty 1-d vector")
        try:
            out = list(values)
        except TypeError:  # a scalar or None
            raise InvalidInput(f"{what} must be a non-empty 1-d vector") from None
        out = _real_entries(out, what)
    elif ndim == 1:
        out = values.tolist()
        # a float64 array lists Python floats already
        if values.dtype.char != "d":
            out = _real_entries(out, what)
    else:
        raise InvalidInput(f"{what} must be a non-empty 1-d vector")
    if not out:
        raise InvalidInput(f"{what} must be a non-empty 1-d vector")
    if not all(map(math.isfinite, out)):
        raise InvalidInput(f"{what} has non-finite entries")
    return out


def _real_entries(items: list, what: str) -> list:
    """The entries as Python floats; an entry of complex type or a string
    that is no number makes the vector not real, a nested sequence or None
    not 1-d."""
    try:
        return [real_float(v, what) for v in items]
    except ValueError:  # InvalidInput, raised for a complex entry, is one
        raise InvalidInput(f"{what} must have real entries") from None
    except TypeError:
        raise InvalidInput(f"{what} must be a non-empty 1-d vector") from None


def _check_positive_sorted(values: list, what: str):
    """Require a list of floats to be strictly positive and non-decreasing."""
    if min(values) <= 0:
        raise InvalidInput(f"{what} must be strictly positive")
    if any(b < a for a, b in zip(values, values[1:])):
        raise InvalidInput(f"{what} must be non-decreasing")


def _check_total(total: float, what: str):
    """Require twice a total to be finite: no slack forms more than that."""
    if not math.isfinite(2.0 * total):
        raise InvalidInput(f"{what} is too large: its total must stay below 8.99e+307")


def below_vacuum(value: float) -> bool:
    """Whether a mode value lies below the vacuum value 1 by more than TOL_PSD."""
    return value < 1.0 - TOL_PSD


def at_vacuum(value: float) -> bool:
    """Whether a mode value lies within TOL_PSD of the vacuum value 1."""
    return abs(value - 1.0) <= TOL_PSD


def check_mixed(c, d, *, tol_ineq: float = TOL_INEQ) -> FeasibilityVerdict:
    """Feasibility gate for a (local values, spectrum) pair.

    Both vectors must be sorted non-decreasing and strictly positive.  The
    verdict carries one slack per partial-sum condition plus the final
    anti-majorization condition.
    """
    tol_ineq = valid_tol_ineq(tol_ineq)
    c = _as_vector(c, "c")
    d = _as_vector(d, "d")
    if len(c) != len(d):
        raise InvalidInput(f"vectors have lengths {len(c)} and {len(d)}")
    _check_positive_sorted(c, "c")
    _check_positive_sorted(d, "d")
    # running sums in order, as np.cumsum forms them; the last one is the total
    sum_c, sum_d = list(accumulate(c)), list(accumulate(d))
    _check_total(sum_c[-1], "c")
    _check_total(sum_d[-1], "d")
    values = [a - b for a, b in zip(sum_c, sum_d)]
    values.append((2.0 * d[-1] - sum_d[-1]) - (2.0 * c[-1] - sum_c[-1]))
    slacks = [ConstraintSlack(PARTIAL_SUM, k, s) for k, s in enumerate(values[:-1], start=1)]
    slacks.append(ConstraintSlack(LAST_CONDITION, None, values[-1]))
    feasible = all(s >= -tol_ineq for s in values)
    return FeasibilityVerdict(feasible=feasible, slacks=slacks, tol_ineq=tol_ineq)


def pure_cone_slack(b: list) -> float:
    """sum(b) - 2 max(b): the slack of the binding pure-cone condition for
    validated excitations b >= 0."""
    return sum(b) - 2.0 * max(b)


def check_pure(b, *, tol_ineq: float = TOL_INEQ) -> FeasibilityVerdict:
    """Feasibility of local excitations b >= 0 against a pure global state.

    Equivalent to check_mixed(b + 1, (1, ..., 1)); only the binding
    constraint for the largest entry is reported, the others being implied.
    """
    tol_ineq = valid_tol_ineq(tol_ineq)
    b = _as_vector(b, "b")
    if min(b) < 0:
        raise InvalidInput("b entries must be non-negative")
    _check_total(sum(b), "b")
    slack = pure_cone_slack(b)
    return FeasibilityVerdict(
        feasible=slack >= -tol_ineq,
        slacks=[ConstraintSlack(LAST_CONDITION, b.index(max(b)), slack)],
        tol_ineq=tol_ineq,
    )
