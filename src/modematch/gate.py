"""The feasibility gate.

The central question: given a target symplectic spectrum d and per-mode
local symplectic values c (both positive, non-decreasing), does a strictly
positive matrix exist realising both?  The answer is yes exactly when the n
partial-sum conditions

    c_1 + ... + c_k >= d_1 + ... + d_k        (k = 1, ..., n)

and the anti-majorization condition

    c_n - (c_1 + ... + c_{n-1}) <= d_n - (d_1 + ... + d_{n-1})

hold.  Verdicts expose signed slacks, negative meaning violated, so boundary
cases stay testable.  The verdict alone judges them, at its ``threshold``,
``tol_ineq`` times ``_scale``; ``synthesis`` reads both for its own checks.

It also holds the rules on per-mode values: ``_as_vector`` (the vector rule
on every per-mode vector), ``_check_positive_sorted`` (spectra),
``_check_total`` (totals the slacks can double without overflow), and
``below_vacuum`` and ``at_vacuum``, each one comparison of a value with the
vacuum value 1, a physical constant and no unit, within an absolute ``TOL_PSD``.

The gate is n + 1 sums of Python floats, so this module must stay free of
numpy and of the matrix modules: ``modematch.check_mixed`` and ``modematch
check --c --d`` load only ``config``, ``errors`` and this module.  Its two
records are plain ``__slots__`` classes, since ``dataclasses`` imports
``inspect``.  ``tests/test_startup.py`` enforces this in fresh interpreters.
"""

import math
from itertools import accumulate

from .config import TOL_INEQ, TOL_PSD, real_float, valid_tol_ineq
from .errors import InvalidInput

PARTIAL_SUM = "partial_sum"
LAST_CONDITION = "last_condition"


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
    """Outcome of a feasibility check: the ``slacks``, judged at ``tol_ineq``
    and ``scale``, and ``feasible``, whether none is below ``-threshold``."""

    __slots__ = ("feasible", "slacks", "tol_ineq", "scale")

    def __init__(self, slacks: list[ConstraintSlack], tol_ineq: float, scale: float):
        self.slacks, self.tol_ineq, self.scale = slacks, tol_ineq, scale
        self.feasible = not self.violated

    @property
    def threshold(self) -> float:
        """How far below zero a slack may fall: ``tol_ineq`` times ``scale``."""
        return self.tol_ineq * self.scale

    @property
    def violated(self) -> list[ConstraintSlack]:
        return [s for s in self.slacks if s.slack < -self.threshold]

    @property
    def min_slack(self) -> float:
        return min(s.slack for s in self.slacks)


def _scale(*largest: float) -> float:
    """max(1, the largest value judged), as ``core._square_input`` scales a
    matrix: the unit of a slack, so values below 1 keep the absolute tolerance."""
    return max(1.0, *largest)


def _as_vector(values, what: str) -> list:
    """A non-empty 1-d vector of finite values, as a list of Python floats.

    Vectors here have one entry per mode, so checks and reductions run on
    floats: at these sizes each numpy dispatch costs more than the work.  An
    array goes through ``tolist()``; any other iterable of reals, a
    spectrum's Python floats included, goes through ``real_float``.
    """
    ndim = getattr(values, "ndim", None)
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
    """The entries as Python floats (``real_float``); a nested sequence makes
    the vector not 1-d, and any other entry that is no real number not real."""
    try:
        return [real_float(v, what) for v in items]
    except InvalidInput:
        nested = any(hasattr(v, "__iter__") and not isinstance(v, (str, bytes)) for v in items)
        raise InvalidInput(f"{what} must be a non-empty 1-d vector" if nested
                           else f"{what} must have real entries") from None


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
    c, d = _as_vector(c, "c"), _as_vector(d, "d")
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
    return FeasibilityVerdict(slacks, tol_ineq, _scale(c[-1], d[-1]))


def check_pure(b, *, tol_ineq: float = TOL_INEQ) -> FeasibilityVerdict:
    """Feasibility of local excitations b >= 0 against a pure global state.

    Equivalent to check_mixed(b + 1, (1, ..., 1)), and judged at its scale
    1 + max(b), the largest c; only the binding constraint for the largest
    entry is reported, the others being implied.
    """
    tol_ineq = valid_tol_ineq(tol_ineq)
    b = _as_vector(b, "b")
    if min(b) < 0:
        raise InvalidInput("b entries must be non-negative")
    _check_total(sum(b), "b")
    return _pure_verdict(b, tol_ineq)


def _pure_verdict(b: list, tol_ineq: float) -> FeasibilityVerdict:
    """``check_pure``'s verdict on validated excitations b >= 0: the slack
    sum(b) - 2 max(b) at the scale 1 + max(b)."""
    top = max(b)
    slack = ConstraintSlack(LAST_CONDITION, b.index(top), sum(b) - 2.0 * top)
    return FeasibilityVerdict([slack], tol_ineq, 1.0 + top)
