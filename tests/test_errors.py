"""The exception hierarchy: one class per outcome.

Every validation failure is an ``InvalidInput``, which is also a
``ValueError``; infeasible requests and numerical failures are neither.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from modematch import (
    CovarianceMatrix,
    EulerFactors,
    PreparationCircuit,
    SpectrumVector,
    SymplecticTransform,
    b_to_temperature,
    check_mixed,
    check_pure,
    circuit_from_pure,
    entanglement_profile,
    entropy_s,
    entropy_s_inverse,
    parse_circuit,
    passive_to_two_mode_rotations,
    random_symplectic,
    sample_feasible_pair,
    solve_two_mode,
    symplectic_form,
    temperature_to_b,
    two_mode_eigenvalues_closed_form,
    williamson,
)
from modematch import errors
from modematch.config import valid_tol_ineq
from modematch.circuits import PhaseShift, Rotation, Squeezer, orthosymplectic_to_unitary
from modematch.errors import Infeasible, InvalidInput, ModeMatchError, NumericalFailure
from modematch.matrixio import MatrixParseError, format_matrix, parse_matrix
from modematch.synthesis import SynthesisTrace, TwoModeStep
from modematch.verify import run_verification

NAN_PASSIVE = np.diag([1.0, 1.0, np.nan, 1.0])
INF_PASSIVE = np.diag([1.0, 1.0, np.inf, 1.0])
IDENTITY = SymplecticTransform(np.eye(2))
SQUEEZE_GATE = np.diag([2.0, 0.5, 1.0, 1.0])
OBJECT_COMPLEX = np.array([[2.0, np.complex128(0.5)], [np.complex128(0.5), 2.0]], dtype=object)
OBJECT_NONE = np.array([[2.0, None], [None, 2.0]], dtype=object)


def circuit(*elements, n=2, seed=(1.0, 1.0), source="mixed_OQV"):
    return PreparationCircuit(n=n, seed=np.array(seed), elements=list(elements), source=source)


def trace(modes, gate=SQUEEZE_GATE):
    return SynthesisTrace(n=2, seed=np.array([1.0, 2.0]), steps=[TwoModeStep(modes, gate)])


# one rejection per former validation class, with the message it keeps
REJECTIONS = {
    "asymmetric-matrix": (lambda: CovarianceMatrix([[2.0, 1.0], [0.0, 2.0]]), "not symmetric"),
    "non-positive-matrix": (lambda: CovarianceMatrix(-np.eye(2)), "not strictly positive"),
    "odd-matrix": (lambda: CovarianceMatrix(np.eye(3)), "even dimension"),
    "empty-matrix": (lambda: CovarianceMatrix(np.zeros((0, 0))), "positive even dimension"),
    "non-finite-matrix": (lambda: CovarianceMatrix([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
    "non-symplectic": (lambda: SymplecticTransform(2.0 * np.eye(2)), "symplectic defect"),
    "complex-matrix": (lambda: CovarianceMatrix(np.array([[2, 0.5j], [-0.5j, 2]])),
                       "covariance matrix must have real"),
    "complex-transform": (lambda: SymplecticTransform(np.eye(2) * (1 + 0.5j)),
                          "symplectic transform must have real"),
    "complex-williamson": (lambda: williamson(np.diag([2.0, 2, 3, 3]) + 0.3j * np.eye(4)),
                           "covariance matrix must have real"),
    "complex-in-nested-list": (lambda: CovarianceMatrix([[2, 0.5j], [-0.5j, 2]]),
                               "covariance matrix must have real"),
    "string-matrix": (lambda: CovarianceMatrix([["a", "b"], ["c", "d"]]),
                      "covariance matrix must have real"),
    "string-as-matrix": (lambda: SymplecticTransform("ab"), "symplectic transform must have real"),
    "ragged-matrix": (lambda: CovarianceMatrix([[2.0, 0.0], [0.0]]), "rectangular array"),
    # an object array is read entry by entry, so numpy casts no complex entry
    # to its real part and no None to NaN
    "complex-in-object-array": (lambda: CovarianceMatrix(OBJECT_COMPLEX),
                                "covariance matrix must have real"),
    "none-in-object-array": (lambda: CovarianceMatrix(OBJECT_NONE),
                             "covariance matrix must have real"),
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
    "none-in-list": (lambda: check_mixed([1.5, None], [1, 2]), "c must have real"),
    "list-in-list": (lambda: check_mixed([1.5, [2.0]], [1, 2]),
                     "c must be a non-empty 1-d vector"),
    "length-mismatch": (lambda: check_mixed([1.0, 2.0], [1.0]), "lengths 2 and 1"),
    "non-positive-c": (lambda: check_mixed([0.0, 1.0], [1.0, 1.0]), "c must be strictly"),
    "negative-b": (lambda: check_pure([-1.0, 1.0]), "b entries must be non-negative"),
    "zero-temperature": (lambda: temperature_to_b([0.0]), "temperatures must be strictly"),
    "complex-temperature": (lambda: temperature_to_b([np.complex128(1 + 1j)]),
                            "temperatures must have real"),
    "complex-b-to-temperature": (lambda: b_to_temperature([np.complex128(1 + 0j)]),
                                 "b must have real"),
    "empty-temperatures": (lambda: temperature_to_b([]),
                           "temperatures must be a non-empty 1-d vector"),
    "nested-temperatures": (lambda: temperature_to_b([[1.0, 2.0]]),
                            "temperatures must be a non-empty 1-d vector"),
    "entropy-below-one": (lambda: entropy_s(0.5), "lies below 1"),
    "complex-entropy": (lambda: entropy_s(np.complex128(2 + 1j)), "entropy argument must be real"),
    "non-finite-entropy": (lambda: entropy_s_inverse(np.inf), "is not finite"),
    "mixed-not-pure": (lambda: entanglement_profile(2.0 * np.eye(2)), "not pure"),
    "unphysical": (lambda: circuit_from_pure(0.5 * np.eye(2)), "uncertainty bound"),
    "non-passive": (lambda: orthosymplectic_to_unitary(np.diag([2.0, 0.5])),
                    "not orthogonal-symplectic"),
    "complex-passive": (lambda: orthosymplectic_to_unitary(np.eye(2) + 0.1j),
                        "passive transform must have real"),
    "nan-passive": (lambda: orthosymplectic_to_unitary(NAN_PASSIVE),
                    "passive transform has non-finite"),
    "inf-passive": (lambda: orthosymplectic_to_unitary(INF_PASSIVE),
                    "passive transform has non-finite"),
    "nan-reck": (lambda: passive_to_two_mode_rotations(NAN_PASSIVE),
                 "passive transform has non-finite"),
    "inf-reck": (lambda: passive_to_two_mode_rotations(INF_PASSIVE),
                 "passive transform has non-finite"),
    "odd-passive": (lambda: orthosymplectic_to_unitary(np.eye(3)),
                    "passive transform must have positive even dimension"),
    "non-square-passive": (lambda: orthosymplectic_to_unitary(np.ones((2, 4))),
                           "passive transform must be a square matrix"),
    "ragged-passive": (lambda: orthosymplectic_to_unitary([[1.0, 0.0], [0.0]]),
                       "passive transform must be a rectangular array"),
    "complex-euler-z": (lambda: EulerFactors(IDENTITY, np.array([1 + 1j]), IDENTITY),
                        "squeezing magnitudes must have real"),
    "nan-euler-z": (lambda: EulerFactors(IDENTITY, np.array([np.nan]), IDENTITY),
                    "squeezing magnitudes has non-finite"),
    "complex-seed": (lambda: PreparationCircuit(n=1, seed=np.array([1 + 1j])),
                     "seed must have real"),
    "nested-seed": (lambda: PreparationCircuit(n=2, seed=[[1.0, 2.0]]),
                    "seed must be a non-empty 1-d vector"),
    "complex-matrix-file": (lambda: format_matrix(np.eye(2) * (1 + 0.5j), "covariance"),
                            "matrix must have real"),
    "indefinite-two-mode": (lambda: two_mode_eigenvalues_closed_form(1.0, 1.0, 2.0, 0.0),
                            "not strictly positive"),
    "misordered-two-mode": (lambda: solve_two_mode(2.0, 1.0, 1.0, 2.0), "0 < c1 <= c2"),
    "infinite-two-mode": (lambda: solve_two_mode(1.0, np.inf, 1.0, np.inf),
                          r"\(c1, c2, d1, d2\) has non-finite entries"),
    "complex-two-mode": (lambda: solve_two_mode(np.complex128(1.5 + 1j), 2, 1, 2),
                         r"\(c1, c2, d1, d2\) must have real entries"),
    "none-two-mode": (lambda: solve_two_mode(1.0, None, 1.0, 2.0),
                      r"\(c1, c2, d1, d2\) must have real entries"),
    "infinite-closed-form": (lambda: two_mode_eigenvalues_closed_form(1.0, np.inf, 0, 0),
                             r"\(c1, c2, e, f\) has non-finite entries"),
    "nan-closed-form": (lambda: two_mode_eigenvalues_closed_form(np.nan, 2, 0, 0),
                        r"\(c1, c2, e, f\) has non-finite entries"),
    "non-finite-matrix-file": (lambda: format_matrix(np.full((2, 2), np.inf), "covariance"),
                               "matrix has non-finite"),
    "odd-matrix-file": (lambda: format_matrix(np.eye(3), "covariance"),
                        "matrix must have positive even dimension"),
    "circuit-negative-mode": (lambda: circuit(Squeezer(-1, 2.0)), "mode -1 is outside 0..1"),
    "circuit-mode-past-n": (lambda: circuit(PhaseShift(2, 0.3)), "mode 2 is outside 0..1"),
    "circuit-repeated-modes": (lambda: circuit(Rotation((1, 1), 0.1, 0.0)),
                               "two distinct modes"),
    "circuit-nan-z": (lambda: circuit(Squeezer(0, np.nan)), "z=nan.*z finite and positive"),
    "circuit-zero-z": (lambda: circuit(Squeezer(0, 0.0)), "z=0.0.*z finite and positive"),
    "circuit-infinite-angle": (lambda: circuit(Rotation((0, 1), 0.1, np.inf)),
                               "phi=inf.*angles must be finite"),
    "circuit-complex-z": (lambda: PreparationCircuit(n=1, seed=[1.0],
                                                     elements=[Squeezer(0, 1j)]),
                          "z=1j.*z finite and positive"),
    "circuit-complex128-z": (lambda: circuit(Squeezer(0, np.complex128(2))),
                             r"z=.*2\+0j.*z finite and positive"),
    "circuit-string-z": (lambda: circuit(Squeezer(0, "2")), "z='2'.*z finite and positive"),
    "circuit-complex-angle": (lambda: circuit(Rotation((0, 1), 1j, 0.0)),
                              "theta=1j.*angles must be finite"),
    "circuit-none-angle": (lambda: circuit(PhaseShift(0, None)),
                           "alpha=None.*angles must be finite"),
    "circuit-list-modes": (lambda: circuit(Rotation([0, 1], 0.3, 0.0)),
                           r"modes \[0, 1\] are not a tuple of two distinct modes"),
    "circuit-negative-seed": (lambda: circuit(seed=(1.0, -1.0)),
                              "seed values must be finite and positive"),
    "circuit-seed-length": (lambda: circuit(seed=(1.0, 1.0, 1.0)), "seed has 3 values for 2"),
    "circuit-unknown-source": (lambda: circuit(source="bogus"), "unknown source"),
    "circuit-no-modes": (lambda: circuit(n=0, seed=()), "mode count 0 is not a positive integer"),
    "trace-negative-mode": (lambda: trace((0, -1)), "mode -1 is outside 0..1"),
    "trace-repeated-modes": (lambda: trace((1, 1)), "two distinct modes"),
    "trace-list-modes": (lambda: trace([0, 1]),
                         r"modes \[0, 1\] are not a tuple of two distinct modes"),
    "trace-non-symplectic": (lambda: trace((0, 1), 2.0 * np.eye(4)), "symplectic defect"),
    "trace-one-mode-gate": (lambda: TwoModeStep((0, 1), np.eye(2)), "two-mode gate must be 4x4"),
    "matrix-file": (lambda: parse_matrix(""), "header lines"),
    "circuit-file": (lambda: parse_circuit("n 2\nseed 1 1\nsqueezer mode=0 z=x\n"),
                     "circuit line 3: could not convert"),
    "verify-fractional-trials": (lambda: run_verification(2.5, 3), "positive integers"),
    "random-symplectic-fractional-n": (lambda: random_symplectic(1.5), "mode count 1.5"),
    "random-symplectic-squeeze-bound": (lambda: random_symplectic(2, 0.5), "squeeze_bound"),
    "random-symplectic-complex-bound": (lambda: random_symplectic(2, 1j),
                                        "squeeze_bound must be real"),
    "symplectic-form-no-modes": (lambda: symplectic_form(0),
                                 "mode count 0 is not a positive integer"),
    "symplectic-form-fractional-n": (lambda: symplectic_form(1.5), "mode count 1.5"),
    "identity-fractional-n": (lambda: CovarianceMatrix.identity(1.5), "mode count 1.5"),
    "sampler-fractional-n": (lambda: sample_feasible_pair(np.random.default_rng(0), 2.5),
                             "mode count 2.5"),
    "matrix-file-kind": (lambda: format_matrix(np.eye(2), "bogus"), "kind must be one of"),
    "squeezer-negative-z": (lambda: Squeezer(0, -1.0), "z=-1.0.*z finite and positive"),
    "phase-nan-angle": (lambda: PhaseShift(0, np.nan), "alpha=nan.*angles must be finite"),
    "rotation-complex-angle": (lambda: Rotation((0, 1), 1j, 0), "theta=1j.*angles must be finite"),
    "symplectic-form-bool-n": (lambda: symplectic_form(True),
                               "mode count True is not a positive integer"),
    "circuit-bool-n": (lambda: PreparationCircuit(n=True, seed=[1.5], source="mixed_OQV"),
                       "mode count True is not a positive integer"),
    "circuit-bool-mode": (lambda: circuit(Squeezer(True, 2.0)), "mode True is outside 0..1"),
    "trace-bool-mode": (lambda: trace((False, 1)), "mode False is outside 0..1"),
    "verify-bool-trials": (lambda: run_verification(True, 2), "positive integers"),
    "random-symplectic-fractional-seed": (lambda: random_symplectic(2, 1.0, seed=1.5),
                                          "seed 1.5 is not a valid random seed"),
    "random-symplectic-negative-seed": (lambda: random_symplectic(2, 1.0, seed=-1),
                                        "seed -1 is not a valid random seed"),
    "verify-fractional-seed": (lambda: run_verification(2, 2, seed=1.5),
                               "seed 1.5 is not a valid random seed"),
    # config.real_float decides realness by type, so numeric text, Decimal,
    # None and sequences are no real numbers, and an int or fraction past the
    # float range reads as infinite
    "numeric-strings-in-list": (lambda: check_mixed(["1.5", "2"], [b"1", "2"]),
                                "c must have real entries"),
    "numeric-string-matrix": (lambda: CovarianceMatrix(np.array([["2", "0"], ["0", "2"]])),
                              "covariance matrix must have real entries"),
    "numeric-string-transform": (lambda: SymplecticTransform(np.array([["1", "0"], ["0", "1"]])),
                                 "symplectic transform must have real entries"),
    "string-entropy": (lambda: entropy_s("3"), "entropy argument must be real, got '3'"),
    "decimal-entropy": (lambda: entropy_s(Decimal("3")),
                        r"entropy argument must be real, got Decimal\('3'\)"),
    "none-entropy": (lambda: entropy_s(None), "entropy argument must be real, got None"),
    "string-squeeze-bound": (lambda: random_symplectic(2, "2.0"),
                             "squeeze_bound must be real, got '2.0'"),
    "none-squeeze-bound": (lambda: random_symplectic(2, None),
                           "squeeze_bound must be real, got None"),
    "verify-none-squeeze-bound": (lambda: run_verification(2, 2, squeeze_bound=None),
                                  "squeeze_bound must be real, got None"),
    "list-tol-ineq": (lambda: check_pure([1.0], tol_ineq=[1e-9]),
                      r"tol_ineq must be real, got \[1e-09\]"),
    "string-tol-ineq": (lambda: check_mixed([1], [1], tol_ineq="abc"),
                        "tol_ineq must be real, got 'abc'"),
    "int-past-float-in-list": (lambda: check_mixed([10**400], [1]), "c has non-finite entries"),
    "squeezer-int-past-float": (lambda: Squeezer(0, 10**400), r"z=10*\).*z finite and positive"),
    "phase-fraction-past-float": (lambda: PhaseShift(0, Fraction(10**400)),
                                  r"alpha=Fraction\(10*, 1\).*angles must be finite"),
    # a bool is no number, whatever holds it
    "bool-array": (lambda: check_mixed(np.array([True, True]), [1.0, 1.0]),
                   "c must have real entries"),
    "bool-matrix": (lambda: CovarianceMatrix(np.eye(2, dtype=bool)),
                    "covariance matrix must have real entries"),
    "bool-seed": (lambda: run_verification(2, 2, seed=True),
                  "seed True is not a valid random seed: a bool is no integer"),
}


@pytest.mark.parametrize("reject, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_every_rejection_is_an_invalid_input_and_a_value_error(reject, message):
    with pytest.raises(InvalidInput, match=message) as err:
        reject()
    assert isinstance(err.value, ValueError)


def _object_matrix(value):
    m = np.full((2, 2), 0.0, dtype=object)
    m[0, 0] = m[1, 1] = value
    return m


# each kind of numeric entry, fed one value; all of them judge it by
# config.real_float
NUMERIC_ENTRIES = {
    "scalar-entropy": entropy_s,
    "scalar-tol-ineq": valid_tol_ineq,
    "vector-entry": lambda v: check_mixed([v, 2.0], [1.0, 2.0]),
    "matrix-entry": lambda v: CovarianceMatrix(_object_matrix(v)),
    "circuit-value": lambda v: Squeezer(0, v),
}
REAL_VALUES = {"float": 2.0, "int": 2, "fraction": Fraction(2), "float32": np.float32(2),
               "int64": np.int64(2)}
NOT_REAL_VALUES = {"complex": 1j, "complex128": np.complex128(2), "str": "2", "bytes": b"2",
                   "decimal": Decimal("2"), "none": None, "list": [2.0], "bool": True,
                   "numpy-bool": np.bool_(True), "0-d-array": np.array(2.0),
                   "int-past-float": 10**400}


@pytest.mark.parametrize("value", REAL_VALUES.values(), ids=REAL_VALUES.keys())
@pytest.mark.parametrize("entry", NUMERIC_ENTRIES.values(), ids=NUMERIC_ENTRIES.keys())
def test_every_numeric_entry_accepts_a_real_number_of_any_real_type(entry, value):
    entry(value)


@pytest.mark.parametrize("value", NOT_REAL_VALUES.values(), ids=NOT_REAL_VALUES.keys())
@pytest.mark.parametrize("entry", NUMERIC_ENTRIES.values(), ids=NUMERIC_ENTRIES.keys())
def test_every_numeric_entry_rejects_what_is_no_finite_real_as_invalid_input(entry, value):
    with pytest.raises(InvalidInput):
        entry(value)


def _object_vector(value):
    v = np.empty(2, dtype=object)
    v[0] = v[1] = value
    return v


# each container a value can arrive in, as a vector or a matrix entry
CONTAINERS = {
    "list-entry": lambda v: check_mixed([v, v], [1.0, 1.0]),
    "array": lambda v: check_mixed(np.array([v, v]), [1.0, 1.0]),
    "object-array": lambda v: check_mixed(_object_vector(v), [1.0, 1.0]),
    "matrix-entry": lambda v: CovarianceMatrix([[v, 0.0], [0.0, v]]),
    "object-matrix-entry": lambda v: CovarianceMatrix(_object_matrix(v)),
}


def _verdict(build, value) -> str:
    try:
        build(value)
    except InvalidInput:
        return "rejected"
    return "accepted"


@pytest.mark.parametrize("name", [*REAL_VALUES, *NOT_REAL_VALUES])
def test_one_verdict_per_value_whatever_its_container(name):
    value = {**REAL_VALUES, **NOT_REAL_VALUES}[name]
    # numpy builds a float64 array from 0-d arrays, so that array holds none
    forms = {form: build for form, build in CONTAINERS.items()
             if not (form == "array" and isinstance(value, np.ndarray))}
    expected = "accepted" if name in REAL_VALUES else "rejected"
    assert {form: _verdict(build, value) for form, build in forms.items()} == \
        dict.fromkeys(forms, expected)


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
