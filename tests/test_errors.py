"""The exception hierarchy: one class per outcome.

Every validation failure is an ``InvalidInput``, which is also a
``ValueError``; infeasible requests and numerical failures are neither.
"""

import numpy as np
import pytest

from modematch import (
    CovarianceMatrix,
    SpectrumVector,
    SymplecticTransform,
    check_mixed,
    check_pure,
    circuit_from_mixed,
    circuit_from_pure,
    entanglement_profile,
    entropy_s,
    entropy_s_inverse,
    solve_two_mode,
    temperature_to_b,
    two_mode_eigenvalues_closed_form,
)
from modematch import errors
from modematch.circuits import orthosymplectic_to_unitary
from modematch.errors import Infeasible, InvalidInput, ModeMatchError, NumericalFailure
from modematch.matrixio import MatrixParseError, parse_matrix
from modematch.synthesis import SynthesisTrace
from modematch.verify import run_verification

# one rejection per former validation class, with the message it keeps
REJECTIONS = {
    "asymmetric-matrix": (lambda: CovarianceMatrix([[2.0, 1.0], [0.0, 2.0]]), "not symmetric"),
    "non-positive-matrix": (lambda: CovarianceMatrix(-np.eye(2)), "not strictly positive"),
    "odd-matrix": (lambda: CovarianceMatrix(np.eye(3)), "even dimension"),
    "non-finite-matrix": (lambda: CovarianceMatrix([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
    "non-symplectic": (lambda: SymplecticTransform(2.0 * np.eye(2)), "symplectic defect"),
    "unsorted-spectrum": (lambda: SpectrumVector([2.0, 1.0]), "non-decreasing"),
    "non-positive-spectrum": (lambda: SpectrumVector([0.0, 1.0]), "strictly positive"),
    "empty-vector": (lambda: check_mixed([], []), "non-empty 1-d"),
    "non-numeric-string": (lambda: check_mixed(["1.5", "x"], [1, 2]), "c must have real"),
    "non-numeric-b": (lambda: check_pure([1, "nan?"]), "b must have real"),
    "complex-in-list": (lambda: check_mixed([1.5, 1j], [1, 2]), "c must have real"),
    "complex128-in-list": (lambda: check_mixed([1.5, np.complex128(2 + 1j)], [1, 2]),
                           "c must have real"),
    "complex64-in-list": (lambda: check_mixed([1.5, np.complex64(2 + 1j)], [1, 2]),
                          "c must have real"),
    "length-mismatch": (lambda: check_mixed([1.0, 2.0], [1.0]), "lengths 2 and 1"),
    "non-positive-c": (lambda: check_mixed([0.0, 1.0], [1.0, 1.0]), "c must be strictly"),
    "negative-b": (lambda: check_pure([-1.0, 1.0]), "b entries must be non-negative"),
    "zero-temperature": (lambda: temperature_to_b([0.0]), "temperatures must be strictly"),
    "entropy-below-one": (lambda: entropy_s(0.5), "lies below 1"),
    "complex-entropy": (lambda: entropy_s(np.complex128(2 + 1j)), "entropy argument must be real"),
    "non-finite-entropy": (lambda: entropy_s_inverse(np.inf), "is not finite"),
    "mixed-not-pure": (lambda: entanglement_profile(2.0 * np.eye(2)), "not pure"),
    "unphysical": (lambda: circuit_from_pure(0.5 * np.eye(2)), "uncertainty bound"),
    "non-passive": (lambda: orthosymplectic_to_unitary(np.diag([2.0, 0.5])),
                    "not orthogonal-symplectic"),
    "indefinite-two-mode": (lambda: two_mode_eigenvalues_closed_form(1.0, 1.0, 2.0, 0.0),
                            "not strictly positive"),
    "misordered-two-mode": (lambda: solve_two_mode(2.0, 1.0, 1.0, 2.0), "0 < c1 <= c2"),
    "matrix-file": (lambda: parse_matrix(""), "header lines"),
    "trace": (lambda: circuit_from_mixed(SynthesisTrace(n=1, seed=np.ones(1))), "no final matrix"),
}


@pytest.mark.parametrize("reject, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_every_rejection_is_an_invalid_input_and_a_value_error(reject, message):
    with pytest.raises(InvalidInput, match=message) as err:
        reject()
    assert isinstance(err.value, ValueError)


def test_outcomes_are_distinct():
    assert issubclass(MatrixParseError, InvalidInput)
    for outcome in (Infeasible, NumericalFailure):
        assert issubclass(outcome, ModeMatchError)
        assert not issubclass(outcome, (ValueError, InvalidInput))
    assert not issubclass(Infeasible, NumericalFailure)


def test_module_defines_exactly_four_classes():
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == {"ModeMatchError", "InvalidInput", "Infeasible", "NumericalFailure"}


@pytest.mark.parametrize("corrupt", [
    lambda m: m + np.triu(np.ones_like(m), 1) * 1e-3,
    lambda m: np.where(np.eye(m.shape[0]) == 1, np.inf, m),
], ids=["asymmetric", "non-finite"])
def test_verify_counts_an_invalid_corruption_as_a_violation(corrupt):
    summary = run_verification(5, 3, seed=1, corrupt=corrupt)
    assert summary.total_violations > 0
