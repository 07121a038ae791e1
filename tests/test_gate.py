"""The numpy-free vector rule the gate applies against the numpy form it
replaced, the vacuum predicates it holds for the package, and its plain records."""

import math
import struct
import sys

import numpy as np
import pytest

from modematch import CovarianceMatrix, SpectrumVector, circuit_from_matrix, entropy_s
from modematch.circuits import PURE_SOURCE
from modematch.config import TOL_PSD, _as_vector
from modematch.errors import InvalidInput
from modematch.gate import (
    PARTIAL_SUM,
    ConstraintSlack,
    FeasibilityVerdict,
    at_vacuum,
    below_vacuum,
    check_mixed,
    check_pure,
)


def reference_as_vector(values, what: str) -> list:
    """The numpy body ``_as_vector`` had before the gate left the matrix core."""
    if isinstance(values, SpectrumVector):
        values = values.values
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput(f"{what} must be a non-empty 1-d vector")
    out = arr.tolist()
    if not all(map(math.isfinite, out)):
        raise InvalidInput(f"{what} has non-finite entries")
    return out


def _outcome(fn, values):
    """The float64 bit patterns returned, or the exception class and message."""
    try:
        out = fn(values, "c")
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    assert type(out) is list and all(type(v) is float for v in out)
    return [struct.pack("<d", v) for v in out]


ACCEPTED = {
    "list": [1.0, 2.5, 1e-300, 3],
    "tuple": (0.1, 0.2, 0.30000000000000004),
    "int-array": np.array([1, 2, 2**53 + 1, -7]),
    "float-array": np.array([1.0, 1.0 + 2**-52, 5e-324, -0.0]),
    "float32-array": np.array([0.1, 2.5], dtype=np.float32),
    "strided-array": np.arange(12.0)[::3],
    "range": range(1, 4),
    "spectrum": SpectrumVector(np.array([1.0, 1.5, 1.5 + 2**-40])),
}
REJECTED = {
    "0-d-array": np.array(1.5),
    "float64-scalar": np.float64(2.0),
    "python-float": 1.5,
    "string": "12",
    "bytes": b"12",
    "2-d-array": np.ones((2, 2)),
    "column": np.ones((3, 1)),
    "nested-list": [[1.0, 2.0], [3.0, 4.0]],
    "empty-list": [],
    "empty-array": np.array([]),
    "none": None,
    "nan": [1.0, float("nan")],
    "inf-array": np.array([np.inf, 1.0]),
    "minus-inf": (1.0, -math.inf),
}


@pytest.mark.parametrize("name", [*ACCEPTED, *REJECTED])
def test_matches_numpy_reference(name):
    values = {**ACCEPTED, **REJECTED}[name]
    ours, theirs = _outcome(_as_vector, values), _outcome(reference_as_vector, values)
    assert ours == theirs
    assert isinstance(ours, list) == (name in ACCEPTED)


def test_any_iterable_of_reals():
    # numpy cannot size an iterator, so the reference rejects this one
    assert _as_vector(iter([1, 2.5]), "c") == [1.0, 2.5]


def test_records_behave_as_their_dataclass_forms_did():
    slack = ConstraintSlack(PARTIAL_SUM, 1, 0.5)
    assert repr(slack) == "ConstraintSlack(name='partial_sum', index=1, slack=0.5)"
    assert slack == ConstraintSlack(name=PARTIAL_SUM, index=1, slack=0.5)
    assert slack != ConstraintSlack(PARTIAL_SUM, 2, 0.5)
    assert slack.label() == "partial_sum(1)"
    verdict = FeasibilityVerdict([slack, ConstraintSlack("x", None, -1.0)], 1e-9, 1.0)
    assert repr(verdict) == (
        "FeasibilityVerdict(feasible=False, slacks=[ConstraintSlack(name='partial_sum', "
        "index=1, slack=0.5), ConstraintSlack(name='x', index=None, slack=-1.0)], "
        "tol_ineq=1e-09, scale=1.0)")
    assert verdict.violated == [ConstraintSlack("x", None, -1.0)]
    assert verdict.min_slack == -1.0
    assert check_mixed([1.5, 1.5], [1.0, 2.0]) == check_mixed((1.5, 1.5), (1.0, 2.0))
    # plain __slots__ classes: no instance dict, and unhashable like a dataclass
    for record in (slack, verdict):
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("offset, below, at", [
    (-2.0, True, False), (-0.5, False, True), (0.0, False, True),
    (0.5, False, True), (2.0, False, False),
])
def test_vacuum_predicates_at_their_boundaries(offset, below, at):
    value = 1.0 + offset * TOL_PSD
    assert below_vacuum(value) is below
    assert at_vacuum(value) is at
    # the callers draw the same lines: the thermal state value * I
    assert CovarianceMatrix(value * np.eye(2)).is_physical() is not below
    if below:
        with pytest.raises(InvalidInput):
            entropy_s(value)
        with pytest.raises(InvalidInput):
            circuit_from_matrix(value * np.eye(2))
    else:
        assert entropy_s(value) >= 0.0
        assert (circuit_from_matrix(value * np.eye(2)).source == PURE_SOURCE) is at


@pytest.mark.parametrize("values", [
    [], [1.0, math.nan], [0.0, 1.0], [2.0, 1.0],
    np.array([1 + 0j, 2 + 0j]), np.array([1.0, 2 + 0j], dtype=object),
], ids=["empty", "non-finite", "non-positive", "unsorted", "complex", "object-complex"])
def test_spectrum_and_gate_apply_the_same_vector_rules(values):
    with pytest.raises(InvalidInput) as spectrum:
        SpectrumVector(values)
    with pytest.raises(InvalidInput) as gate:
        check_mixed(values, values)
    assert str(gate.value) == str(spectrum.value).replace("spectrum", "c")


@pytest.mark.parametrize("check, values", [
    (lambda v: check_mixed(v, [1.0, 1.0]), [1e308, 1e308]),
    (lambda v: check_mixed([1.0, 1.0], v), [1e308, 1e308]),
    # a finite total whose double, formed by the last condition, overflows
    (lambda v: check_mixed(v, v), [1.0, 1e308]),
    (check_pure, [1e308, 1e308]),
], ids=["mixed-c", "mixed-d", "mixed-doubled", "pure"])
def test_totals_the_slacks_cannot_double_are_rejected(check, values):
    with pytest.raises(InvalidInput, match="is too large"):
        check(values)
    # with a total of half the largest float the slacks stay finite
    half = [0.25 * sys.float_info.max] * 2
    assert all(math.isfinite(s.slack) for s in check(half).slacks)
