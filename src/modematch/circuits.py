"""Preparation circuits: a seed state and one ordered tuple of elements.

A circuit applies squeezers, two-mode rotations and phases to its seed, one
covariance value per mode, in tuple order.  A physical target S D S^T (D
its Williamson spectrum d, S = O Q V by Bloch-Messiah, O and V passive) is
V's Reck mesh, n squeezers and O's mesh on the thermal seed d; V leaves the
vacuum seed of a pure target unchanged and is left out.  A synthesized
target can instead follow its trace: each two-mode gate g = O Q V gives V's
elements, its non-unit squeezers, then O's elements on the gate's modes; at
most 8 elements per gate, so O(n) in all, where the dense form has O(n^2).

Passive elements live in the unitary picture: an orthogonal-symplectic
matrix in interleaved ordering is an n x n unitary U through the 2x2 blocks
[[Re U_jk, Im U_jk], [-Im U_jk, Re U_jk]].  On the complex rows x - i p of
a matrix it acts as U itself, so the Reck sweep and the replay apply every
passive element as one update of the rows of its modes.

Each element checks its own values when built, and a ``PreparationCircuit``
its source, seed and modes against n; replay and writer see no other circuit.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import _finite, _mode_input
from .core import (
    SymplecticTransform,
    _as_covariance,
    _complex_rows,
    _real_rows,
    euler_decompose,
    orthosymplectic_to_unitary,
    relative_defect,
    symplectic_inverse,
    williamson,
)
from .errors import InvalidInput
from .gate import at_vacuum

PURE_SOURCE = "pure_OPO"
MIXED_SOURCE = "mixed_OQV"

_ELEMENT_DROP = 1e-14


@dataclass(frozen=True)
class Squeezer:
    """Single-mode squeezer; z is the covariance of the anti-squeezed x
    quadrature, so the symplectic action is diag(sqrt(z), 1/sqrt(z))."""

    mode: int
    z: float

    def __post_init__(self):
        _check_values(self, _finite(self.z) and self.z > 0)


@dataclass(frozen=True)
class Rotation:
    """Two-mode passive rotation, unitary picture
    [[cos(theta), -exp(i phi) sin(theta)], [exp(-i phi) sin(theta), cos(theta)]]."""

    modes: tuple[int, int]
    theta: float
    phi: float

    def __post_init__(self):
        _check_values(self, _finite(self.theta) and _finite(self.phi))


@dataclass(frozen=True)
class PhaseShift:
    """Single-mode phase rotation exp(i alpha) in the unitary picture."""

    mode: int
    alpha: float

    def __post_init__(self):
        _check_values(self, _finite(self.alpha))


PassiveElement = Rotation | PhaseShift
Element = Squeezer | Rotation | PhaseShift


@dataclass(frozen=True, eq=False)
class PreparationCircuit:
    """A seed, one covariance value per mode (all ones for a pure source),
    and the elements that act on it in tuple order.  Building one by any
    route, ``dataclasses.replace`` included, checks the circuit rule: a known
    source, and n, seed and the elements' modes under ``config._mode_input``.
    Its elements checked their own values; all are frozen, so it keeps the
    rule.  Two circuits are equal only if they are the same object."""

    n: int
    seed: np.ndarray
    elements: tuple[Element, ...] = ()
    source: str = PURE_SOURCE

    def __post_init__(self):
        _check_source(self.source)
        elements = tuple(self.elements)
        object.__setattr__(self, "seed", _check_modes(self.n, elements, self.seed))
        object.__setattr__(self, "elements", elements)

    @property
    def squeezers(self) -> list[Squeezer]:
        return [el for el in self.elements if isinstance(el, Squeezer)]

    @property
    def passive_ops(self) -> list[PassiveElement]:
        return [el for el in self.elements if not isinstance(el, Squeezer)]


def _check_values(el: Element, valid: bool) -> None:
    """Raise unless ``valid``: an element's verdict on its values, each ``_finite`` and z > 0."""
    if not valid:
        raise InvalidInput(f"{el}: angles must be finite, and z finite and positive")


def _check_modes(n, elements, seed=None):
    """``config._mode_input`` on n, a seed, and the elements' modes and rotation pairs."""
    return _mode_input(n, seed, [el.mode for el in elements if not isinstance(el, Rotation)],
                       [el.modes for el in elements if isinstance(el, Rotation)])


def _check_source(source: str) -> None:
    if source not in (PURE_SOURCE, MIXED_SOURCE):
        raise InvalidInput(f"unknown source {source!r}")


def _apply_passive(Z: np.ndarray, modes, theta: float, phi: float) -> None:
    """Left-multiply the rows ``modes`` of the complex matrix Z in place by
    a passive element's unitary: on two modes the ``Rotation`` unitary of
    (theta, phi), on one mode the phase exp(i phi)."""
    if len(modes) == 1:
        Z[modes[0]] *= cmath.exp(1j * phi)
        return
    i, j = modes
    ct, st, ph = math.cos(theta), math.sin(theta), cmath.exp(1j * phi)
    top, bottom = Z[i], Z[j]
    Z[i], Z[j] = ct * top - (ph * st) * bottom, (st / ph) * top + ct * bottom


def passive_to_two_mode_rotations(O, modes=None) -> list[PassiveElement]:
    """Break a passive transform into two-mode rotations plus phases: the
    Reck sweep.

    Sweeps subdiagonal entries of the unitary picture column by column,
    bottom row up, nulling each with a rotation between adjacent modes; the
    residual diagonal becomes single-mode phases.  At most n(n-1)/2 rotations
    and n phases are emitted and their ordered product, leftmost factor
    first, rebuilds the input; the last element is the first to act, so a
    circuit lists them reversed.  Mode j of O is emitted as ``modes[j]``,
    by default j itself.
    """
    if isinstance(O, SymplecticTransform):
        O = O.entries
    work = orthosymplectic_to_unitary(O)
    n = work.shape[0]
    modes = range(n) if modes is None else modes
    elements: list[PassiveElement] = []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            a = complex(work[row - 1, col])
            b = complex(work[row, col])
            if abs(b) <= _ELEMENT_DROP:
                continue
            if abs(a) <= _ELEMENT_DROP:
                theta, phi = math.pi / 2, 0.0
            else:
                ratio = b / a
                phi = -cmath.phase(ratio)
                theta = -math.atan(abs(ratio))
            # apply M(theta, phi) on rows (row-1, row); its inverse,
            # M(-theta, phi), is what the emitted list must contain
            _apply_passive(work, (row - 1, row), theta, phi)
            elements.append(Rotation((modes[row - 1], modes[row]), -theta, phi))
    for i in range(n):
        alpha = cmath.phase(work[i, i])
        if abs(alpha) > _ELEMENT_DROP:
            elements.append(PhaseShift(modes[i], alpha))
    return elements


def replay_circuit(circuit: PreparationCircuit) -> np.ndarray:
    """Covariance matrix produced by running the circuit on its seed:
    S diag(seed) S^T, with S built one element at a time.  S is held as its
    complex rows x - i p per mode, on which a passive element acts as its
    unitary on the rows of its modes and a squeezer scales the real and
    imaginary parts of its mode's row.  The circuit was checked when it was
    built, so every mode indexes a row and every value is finite."""
    Z = _complex_rows(np.eye(2 * circuit.n))
    for el in circuit.elements:
        if isinstance(el, Squeezer):
            root, row = math.sqrt(el.z), Z[el.mode]
            Z[el.mode] = root * row.real + (1j / root) * row.imag
        elif isinstance(el, Rotation):
            _apply_passive(Z, el.modes, el.theta, el.phi)
        else:
            _apply_passive(Z, (el.mode,), 0.0, el.alpha)
    S = _real_rows(Z)
    return (S * np.repeat(circuit.seed, 2)) @ S.T


def replay_defect(circuit: PreparationCircuit, target: np.ndarray) -> float:
    """Relative defect of the circuit's replay against the matrix it prepares."""
    return relative_defect(replay_circuit(circuit) - target, target)


def circuit_from_matrix(gamma) -> PreparationCircuit:
    """Circuit preparing a physical matrix as itself: the Euler factors
    O Q V of the inverse Williamson transform give V's network, n squeezers
    and O's network on the seed d, or on the vacuum without V's network when
    every d is at the vacuum."""
    cov = _as_covariance(gamma)
    if not cov.is_physical():
        raise InvalidInput("target matrix violates the uncertainty bound")
    S_w, d = williamson(cov)
    pure = all(map(at_vacuum, d.values.tolist()))
    factors = euler_decompose(symplectic_inverse(S_w.entries))
    elements: list[Element] = [] if pure else passive_to_two_mode_rotations(factors.V)[::-1]
    elements += [Squeezer(mode=k, z=float(z)) for k, z in enumerate(factors.z**2)]
    elements += passive_to_two_mode_rotations(factors.O)[::-1]
    seed, source = (np.ones(cov.n), PURE_SOURCE) if pure else (d.values, MIXED_SOURCE)
    return PreparationCircuit(n=cov.n, seed=seed, elements=elements, source=source)


def circuit_from_pure(gamma) -> PreparationCircuit:
    """``circuit_from_matrix`` of a target that must be pure."""
    circuit = circuit_from_matrix(gamma)
    if circuit.source != PURE_SOURCE:
        raise InvalidInput(f"target is not pure: symplectic spectrum {circuit.seed}")
    return circuit


def circuit_from_mixed(trace) -> PreparationCircuit:
    """Circuit preparing the final matrix of a ``SynthesisTrace`` from its
    thermal seed.

    The seed is the trace's spectrum in mode order.  Each two-mode gate, in
    trace order, is Euler-factored as O Q V and emitted on its own modes as
    V's elements, Q's non-unit squeezers, then O's elements; a trace without
    gates gives no elements.  A trace's final matrix is the replay of its
    gates, fixed when it was built, so the gates alone are read.
    """
    elements: list[Element] = []
    for step in trace.steps:
        factors = euler_decompose(step.transform)
        elements += passive_to_two_mode_rotations(factors.V, step.modes)[::-1]
        elements += [Squeezer(mode=m, z=float(z)) for m, z in zip(step.modes, factors.z**2)
                     if z - 1.0 > _ELEMENT_DROP]
        elements += passive_to_two_mode_rotations(factors.O, step.modes)[::-1]
    return PreparationCircuit(n=trace.n, seed=trace.seed, elements=elements,
                              source=MIXED_SOURCE)


# The element line format: each record's head, element, and fields in file order with how each
# is read and written.  A value is written as its float: a Fraction formats only from 3.12.
_MODE = (int, str)
_MODES = (lambda raw: tuple(map(int, raw.split(","))), lambda modes: f"{modes[0]},{modes[1]}")
_VALUE = (float, lambda value: f"{float(value):.17g}")
_RECORDS = {"squeezer": (Squeezer, {"mode": _MODE, "z": _VALUE}),
            "phase": (PhaseShift, {"mode": _MODE, "alpha": _VALUE}),
            "rotation": (Rotation, {"modes": _MODES, "theta": _VALUE, "phi": _VALUE})}
_HEADS = {cls: head for head, (cls, _) in _RECORDS.items()}


def serialize_circuit(circuit: PreparationCircuit) -> str:
    """Render a circuit as line-oriented key-value text, 17 significant digits;
    element lines follow the seed in the order the elements act."""
    lines = [f"n {circuit.n}", f"source {circuit.source}",
             "seed " + " ".join(f"{v:.17g}" for v in circuit.seed)]
    for el in circuit.elements:
        head = _HEADS[type(el)]
        lines.append(" ".join([head] + [f"{key}={write(getattr(el, key))}"
                                        for key, (_, write) in _RECORDS[head][1].items()]))
    return "\n".join(lines) + "\n"


def _parse_element(head: str, parts) -> Element:
    cls, fields = _RECORDS[head]
    kv = {}
    for part in parts:
        key, eq, raw = part.partition("=")
        if not eq:
            raise InvalidInput(f"{head} field {part!r} is not of the form key=value")
        if key in kv:
            raise InvalidInput(f"{head} repeats the field {key}")
        kv[key] = raw
    if kv.keys() != fields.keys():
        raise InvalidInput(f"{head} takes the fields {', '.join(fields)}, got {', '.join(kv)}; "
                           "for a file in the older three-block format, re-run prepare")
    return cls(*[read(kv[key]) for key, (read, _) in fields.items()])


def parse_circuit(text: str) -> PreparationCircuit:
    """Parse the output of serialize_circuit.  The n record comes first; n,
    source and seed appear at most once, n and source with one value; each
    field is key=value and appears once; any other field, as in the older
    three-block format, is rejected.  Lines are checked as they are read,
    elements by themselves and against n; InvalidInput names the failing line."""
    n, source, seed = None, PURE_SOURCE, None
    headers: set[str] = set()
    elements: list[Element] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, *rest = line.split()
        try:
            if head in headers:
                raise InvalidInput(f"repeated {head} record")
            if head in ("n", "source", "seed"):
                headers.add(head)
            if head in ("n", "source") and rest[1:]:
                raise InvalidInput(f"{head} record takes one value, got {' '.join(rest)}")
            if head == "n":
                _mode_input(n := int(rest[0]))
            elif head == "source":
                _check_source(source := rest[0])
            elif head != "seed" and head not in _RECORDS:
                raise InvalidInput(f"unknown record {head!r}")
            elif n is None:
                raise InvalidInput(f"{head} record before the n record")
            elif head == "seed":
                seed = _mode_input(n, [float(v) for v in rest])
            else:
                _check_modes(n, [el := _parse_element(head, rest)])
                elements.append(el)
        except (IndexError, ValueError) as exc:
            raise InvalidInput(f"circuit line {lineno}: {exc}") from exc
    if n is None or seed is None:
        raise InvalidInput("circuit file is missing the n or seed record")
    return PreparationCircuit(n=n, seed=seed, elements=elements, source=source)
