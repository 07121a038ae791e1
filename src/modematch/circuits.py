"""Preparation circuits: a seed state and one ordered list of elements.

A circuit applies squeezers, two-mode rotations and phases to its seed, one
covariance value per mode, in list order.  A physical target S D S^T (D
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

The one Reck sweep, ``passive_to_two_mode_rotations``, returns a passive
transform's elements as a product, leftmost factor first; the builders
``circuit_from_matrix``, ``circuit_from_pure`` and ``circuit_from_mixed``
reverse it into the acting order of the ``PreparationCircuit`` they return.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL_RECON
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


@dataclass
class Squeezer:
    """Single-mode squeezer; z is the covariance of the anti-squeezed x
    quadrature, so the symplectic action is diag(sqrt(z), 1/sqrt(z))."""

    mode: int
    z: float


@dataclass
class Rotation:
    """Two-mode passive rotation, unitary picture
    [[cos(theta), -exp(i phi) sin(theta)], [exp(-i phi) sin(theta), cos(theta)]]."""

    modes: tuple[int, int]
    theta: float
    phi: float


@dataclass
class PhaseShift:
    """Single-mode phase rotation exp(i alpha) in the unitary picture."""

    mode: int
    alpha: float


PassiveElement = Rotation | PhaseShift
Element = Squeezer | Rotation | PhaseShift


@dataclass
class PreparationCircuit:
    """A seed, one covariance value per mode (all ones for a pure source),
    and the elements that act on it in list order."""

    n: int
    seed: np.ndarray
    elements: list[Element] = field(default_factory=list)
    source: str = PURE_SOURCE

    def __post_init__(self):
        self.seed = np.asarray(self.seed, dtype=float)

    @property
    def squeezers(self) -> list[Squeezer]:
        return [el for el in self.elements if isinstance(el, Squeezer)]

    @property
    def passive_ops(self) -> list[PassiveElement]:
        return [el for el in self.elements if not isinstance(el, Squeezer)]


def elements_to_unitary(elements, n: int) -> np.ndarray:
    """Left-to-right product of the listed passive elements, each changing
    only the columns of its modes: the dense reference for the row updates
    of the mesh and the replay."""
    U = np.eye(n, dtype=complex)
    for el in elements:
        if isinstance(el, Rotation):
            ct, st, ph = np.cos(el.theta), np.sin(el.theta), np.exp(1j * el.phi)
            modes, u = list(el.modes), np.array([[ct, -ph * st], [st / ph, ct]])
        elif isinstance(el, PhaseShift):
            modes, u = [el.mode], np.array([[np.exp(1j * el.alpha)]])
        else:
            raise TypeError(f"unknown passive element {el!r}")
        U[:, modes] = U[:, modes] @ u
    return U


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
    imaginary parts of its mode's row."""
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
    seed, source = (np.ones(cov.n), PURE_SOURCE) if pure else (d.values.copy(), MIXED_SOURCE)
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
    gates gives no elements.
    """
    from .synthesis import replay_trace

    if trace.final_matrix is None:
        raise InvalidInput("trace has no final matrix")
    target = trace.final_matrix.entries
    defect = relative_defect(replay_trace(trace) - target, target)
    if not defect <= TOL_RECON:
        raise InvalidInput(f"trace does not replay to its final matrix: defect {defect:.3g}")
    elements: list[Element] = []
    for step in trace.steps:
        factors = euler_decompose(step.transform)
        elements += passive_to_two_mode_rotations(factors.V, step.modes)[::-1]
        elements += [Squeezer(mode=m, z=float(z)) for m, z in zip(step.modes, factors.z**2)
                     if z - 1.0 > _ELEMENT_DROP]
        elements += passive_to_two_mode_rotations(factors.O, step.modes)[::-1]
    return PreparationCircuit(n=trace.n, seed=trace.seed.copy(), elements=elements,
                              source=MIXED_SOURCE)


def _element_line(el: Element) -> str:
    if isinstance(el, Squeezer):
        return f"squeezer mode={el.mode} z={el.z:.17g}"
    if isinstance(el, Rotation):
        return (f"rotation modes={el.modes[0]},{el.modes[1]} "
                f"theta={el.theta:.17g} phi={el.phi:.17g}")
    return f"phase mode={el.mode} alpha={el.alpha:.17g}"


def serialize_circuit(circuit: PreparationCircuit) -> str:
    """Render a circuit as line-oriented key-value text, 17 significant digits;
    element lines follow the seed in the order the elements act."""
    lines = [f"n {circuit.n}", f"source {circuit.source}",
             "seed " + " ".join(f"{v:.17g}" for v in circuit.seed)]
    return "\n".join(lines + [_element_line(el) for el in circuit.elements]) + "\n"


_RECORDS = {"squeezer": (Squeezer, ("mode", "z")), "phase": (PhaseShift, ("mode", "alpha")),
            "rotation": (Rotation, ("modes", "theta", "phi"))}


def _value(key: str, raw: str, n: int):
    """One validated field of a circuit record."""
    if key == "modes":
        modes = tuple(_value("mode", v, n) for v in raw.split(","))
        if len(modes) != 2 or modes[0] == modes[1]:
            raise ValueError(f"a rotation needs two distinct modes, got {raw}")
        return modes
    if key == "mode":
        mode = int(raw)
        if not 0 <= mode < n:
            raise ValueError(f"mode {mode} is outside 0..{n - 1}")
        return mode
    value, positive = float(raw), key in ("z", "seed")
    if not np.isfinite(value) or (positive and value <= 0):
        raise ValueError(f"{key}={raw} is not finite" + (" and positive" * positive))
    return value


def _parse_element(head: str, parts, n: int) -> Element:
    cls, keys = _RECORDS[head]
    kv = {}
    for part in parts:
        key, eq, raw = part.partition("=")
        if not eq:
            raise ValueError(f"{head} field {part!r} is not of the form key=value")
        if key in kv:
            raise ValueError(f"{head} repeats the field {key}")
        kv[key] = raw
    if sorted(kv) != sorted(keys):
        raise ValueError(f"{head} takes the fields {', '.join(keys)}, got {', '.join(kv)}; "
                         "for a file in the older three-block format, re-run prepare")
    return cls(*(_value(key, kv[key], n) for key in keys))


def parse_circuit(text: str) -> PreparationCircuit:
    """Parse the output of serialize_circuit, validating every record.

    The n record comes first, and n, source and seed each appear at most
    once; n and source hold one value each, and source is ``PURE_SOURCE``
    or ``MIXED_SOURCE``.  Modes lie in 0..n-1 and a rotation's two differ;
    angles are finite; squeezer and seed values are finite and positive;
    each field is key=value and appears once, and any other field, as in
    the older three-block format, is rejected.
    Failures raise ValueError naming the line.
    """
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
                raise ValueError(f"repeated {head} record")
            if head in ("n", "source", "seed"):
                headers.add(head)
            if head in ("n", "source") and rest[1:]:
                raise ValueError(f"{head} record takes one value, got {' '.join(rest)}")
            if head == "n":
                n = int(rest[0])
                if n < 1:
                    raise ValueError(f"mode count {n} is not positive")
            elif head == "source":
                source = rest[0]
                if source not in (PURE_SOURCE, MIXED_SOURCE):
                    raise ValueError(f"unknown source {source!r}")
            elif head != "seed" and head not in _RECORDS:
                raise ValueError(f"unknown record {head!r}")
            elif n is None:
                raise ValueError(f"{head} record before the n record")
            elif head == "seed":
                seed = np.array([_value("seed", v, n) for v in rest])
                if seed.size != n:
                    raise ValueError(f"seed has {seed.size} values for {n} modes")
            else:
                elements.append(_parse_element(head, rest, n))
        except (IndexError, ValueError) as exc:
            raise ValueError(f"circuit line {lineno}: {exc}") from exc
    if n is None or seed is None:
        raise ValueError("circuit file is missing the n or seed record")
    return PreparationCircuit(n=n, seed=seed, elements=elements, source=source)
