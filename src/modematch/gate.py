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

It also holds ``below_vacuum`` and ``at_vacuum``, each one comparison of a
mode value with the vacuum value 1, a physical constant and no unit, within
an absolute ``TOL_PSD``.  Its inputs pass the rules of ``config``.

The gate is n + 1 sums of Python floats, so this module must stay free of
numpy and of the matrix modules: ``modematch.check_mixed`` and ``modematch
check --c --d`` load only ``config``, ``errors`` and this module.  Its two
records are plain ``__slots__`` classes, since ``dataclasses`` imports
``inspect``.  ``tests/test_startup.py`` enforces this in fresh interpreters.
"""

from itertools import accumulate

from .config import (TOL_INEQ, TOL_PSD, _as_vector, _check_positive_sorted, _check_total,
                     valid_tol_ineq)
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
    """max(1, the largest value judged), as ``config._square_input`` scales a
    matrix: the unit of a slack, so values below 1 keep the absolute tolerance."""
    return max(1.0, *largest)


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
