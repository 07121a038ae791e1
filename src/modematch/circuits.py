"""Preparation circuits: squeezed inputs plus a passive network.

A pure target gamma factors as O P O^T with P = diag(z1, 1/z1, ...) the
covariance of independently squeezed modes and O a passive (orthogonal
symplectic) network; the circuit is therefore n squeezers followed by a
beam-splitter network.  Mixed targets start from the thermal seed
diag(d1, d1, ...) of their synthesis trace and apply the Euler-factored gate
product V, squeezers, O in that order.

Passive networks are emitted as two-mode rotations plus single-mode phases
through the unitary picture: an orthogonal-symplectic matrix in interleaved
ordering corresponds to an n x n unitary U via the 2x2 blocks
[[Re U_jk, Im U_jk], [-Im U_jk, Re U_jk]].
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .core import (
    SymplecticTransform,
    _as_covariance,
    euler_decompose,
    interleaved_diagonal,
    symplectic_defect,
    symplectic_inverse,
    unitary_to_orthosymplectic,
    williamson,
)
from .errors import InvalidTrace, NotPassive, NotPhysical, NotPure
from .synthesis import SynthesisTrace, _gate_product, replay_trace

PURE_SOURCE = "pure_OPO"
MIXED_SOURCE = "mixed_OQV"
STAGE_PRE = "pre"
STAGE_POST = "post"

_ELEMENT_DROP = 1e-14


@dataclass
class Squeezer:
    """Single-mode squeezer; z is the covariance of the anti-squeezed
    quadrature (x for orientation "x"), so the symplectic action is
    diag(sqrt(z), 1/sqrt(z))."""

    mode: int
    z: float
    orientation: str = "x"


@dataclass
class Rotation:
    """Two-mode passive rotation, unitary picture
    [[cos(theta), -exp(i phi) sin(theta)], [exp(-i phi) sin(theta), cos(theta)]]."""

    modes: tuple[int, int]
    theta: float
    phi: float
    stage: str = STAGE_POST


@dataclass
class PhaseShift:
    """Single-mode phase rotation exp(i alpha) in the unitary picture."""

    mode: int
    alpha: float
    stage: str = STAGE_POST


PassiveElement = Rotation | PhaseShift


@dataclass
class PreparationCircuit:
    """Executable recipe: seed state, squeezers, passive elements.

    ``seed`` holds one value per mode (all ones for a pure source).  Replay
    order is: pre-stage passive elements, squeezers, post-stage passive
    elements; pure circuits only carry a post stage.
    """

    n: int
    seed: np.ndarray
    squeezers: list[Squeezer] = field(default_factory=list)
    passive_ops: list[PassiveElement] = field(default_factory=list)
    source: str = PURE_SOURCE

    def __post_init__(self):
        self.seed = np.asarray(self.seed, dtype=float)


def orthosymplectic_to_unitary(O: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Inverse of the passive representation map, with validation."""
    O = np.asarray(O, dtype=float)
    m = O.shape[0]
    if O.ndim != 2 or O.shape[0] != O.shape[1] or m % 2:
        raise NotPassive(f"expected an even square matrix, got shape {O.shape}")
    orth = float(np.max(np.abs(O @ O.T - np.eye(m))))
    sympl = symplectic_defect(O)
    if orth > 1e-8 or sympl > 1e-8:
        raise NotPassive(
            f"matrix is not orthogonal-symplectic: defects {orth:.3g}, {sympl:.3g}"
        )
    U = O[0::2, 0::2] + 1j * O[0::2, 1::2]
    block_defect = float(np.max(np.abs(O - unitary_to_orthosymplectic(U))))
    if block_defect > 1e-8:
        raise NotPassive(f"2x2 block structure violated: defect {block_defect:.3g}")
    return U


def elements_to_unitary(elements, n: int) -> np.ndarray:
    """Left-to-right product of the listed passive elements.

    Each element changes only the columns of the modes it acts on: two for
    a rotation, one for a phase.
    """
    U = np.eye(n, dtype=complex)
    for el in elements:
        if isinstance(el, Rotation):
            i, j = el.modes
            ct, st = np.cos(el.theta), np.sin(el.theta)
            ph = np.exp(1j * el.phi)
            col_i, col_j = U[:, i].copy(), U[:, j]
            U[:, i] = ct * col_i + (st / ph) * col_j
            U[:, j] = ct * col_j - (ph * st) * col_i
        elif isinstance(el, PhaseShift):
            U[:, el.mode] *= np.exp(1j * el.alpha)
        else:
            raise TypeError(f"unknown passive element {el!r}")
    return U


def passive_to_two_mode_rotations(O, stage: str = STAGE_POST,
                                  tol: Tolerances = DEFAULT) -> list[PassiveElement]:
    """Break a passive transform into two-mode rotations plus phases.

    Sweeps subdiagonal entries of the unitary picture column by column,
    bottom row up, nulling each with a rotation between adjacent modes; the
    residual diagonal becomes single-mode phases.  At most n(n-1)/2 rotations
    and n phases are emitted and their ordered product rebuilds the input.
    """
    if isinstance(O, SymplecticTransform):
        O = O.entries
    U = orthosymplectic_to_unitary(O, tol)
    n = U.shape[0]
    work = U.copy()
    elements: list[PassiveElement] = []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            a = work[row - 1, col]
            b = work[row, col]
            if abs(b) <= _ELEMENT_DROP:
                continue
            if abs(a) <= _ELEMENT_DROP:
                theta, phi = np.pi / 2, 0.0
            else:
                ratio = b / a
                phi = -float(np.angle(ratio))
                theta = -float(np.arctan(abs(ratio)))
            # apply M(theta, phi) on rows (row-1, row); its inverse,
            # M(-theta, phi), is what the emitted list must contain
            ct, st = np.cos(theta), np.sin(theta)
            ph = np.exp(1j * phi)
            upper = ct * work[row - 1, :] - ph * st * work[row, :]
            lower = (st / ph) * work[row - 1, :] + ct * work[row, :]
            work[row - 1, :] = upper
            work[row, :] = lower
            elements.append(Rotation((row - 1, row), -theta, phi, stage))
    for i in range(n):
        alpha = float(np.angle(work[i, i]))
        if abs(alpha) > _ELEMENT_DROP:
            elements.append(PhaseShift(i, alpha, stage))
    return elements


def _squeezer_symplectic(squeezers, n: int) -> np.ndarray:
    diag = np.ones(2 * n)
    for sq in squeezers:
        root = np.sqrt(sq.z)
        if sq.orientation == "x":
            diag[2 * sq.mode] = root
            diag[2 * sq.mode + 1] = 1.0 / root
        else:
            diag[2 * sq.mode] = 1.0 / root
            diag[2 * sq.mode + 1] = root
    return np.diag(diag)


def _stage_matrix(circuit: PreparationCircuit, stage: str) -> np.ndarray:
    elements = [el for el in circuit.passive_ops if el.stage == stage]
    return unitary_to_orthosymplectic(elements_to_unitary(elements, circuit.n))


def circuit_total_transform(circuit: PreparationCircuit) -> np.ndarray:
    """Total symplectic matrix applied to the seed on replay."""
    pre = _stage_matrix(circuit, STAGE_PRE)
    post = _stage_matrix(circuit, STAGE_POST)
    return post @ _squeezer_symplectic(circuit.squeezers, circuit.n) @ pre


def replay_circuit(circuit: PreparationCircuit) -> np.ndarray:
    """Covariance matrix produced by running the circuit on its seed."""
    S = circuit_total_transform(circuit)
    return S @ interleaved_diagonal(circuit.seed) @ S.T


def circuit_from_pure(gamma, tol: Tolerances = DEFAULT) -> PreparationCircuit:
    """Squeezers and one passive network preparing a pure target.

    The target must be physical with all symplectic eigenvalues equal to one
    within tolerance.  Squeezer magnitudes are the paired eigenvalues of the
    target itself; the passive network is the orthogonal factor aligning the
    squeezed quadratures.
    """
    cov = _as_covariance(gamma, tol)
    if not cov.is_physical(tol.tol_psd):
        raise NotPhysical("target matrix violates the uncertainty bound")
    S_w, d = williamson(cov, tol)
    if np.max(np.abs(d.values - 1.0)) > tol.tol_psd:
        raise NotPure(f"target is not pure: symplectic spectrum {d.values}")
    prep = symplectic_inverse(S_w.entries)
    factors = euler_decompose(prep, tol)
    z = factors.z**2
    squeezers = [Squeezer(mode=k, z=float(z[k])) for k in range(cov.n)]
    if np.max(np.abs(z - 1.0)) <= tol.tol_recon:
        passive: list[PassiveElement] = []
    else:
        passive = passive_to_two_mode_rotations(factors.O, STAGE_POST, tol)
    return PreparationCircuit(
        n=cov.n, seed=np.ones(cov.n), squeezers=squeezers,
        passive_ops=passive, source=PURE_SOURCE,
    )


def circuit_from_mixed(trace: SynthesisTrace, tol: Tolerances = DEFAULT) -> PreparationCircuit:
    """Circuit preparing a synthesized mixed target from its thermal seed.

    The seed is the trace's spectrum in mode order; the trace's gate product,
    which carries the seed to the target, is Euler-factored into a pre-stage
    passive network, squeezers, and a post-stage passive network.
    """
    if trace.final_matrix is None:
        raise InvalidTrace("trace has no final matrix")
    cov = trace.final_matrix
    replay_defect = float(np.max(np.abs(replay_trace(trace) - cov.entries)))
    scale = max(1.0, float(np.max(np.abs(cov.entries))))
    if replay_defect > tol.tol_recon * scale:
        raise InvalidTrace(f"trace does not replay to its final matrix: defect {replay_defect:.3g}")
    seed, S = _gate_product(trace)
    if np.max(np.abs(cov.entries - interleaved_diagonal(seed))) <= tol.tol_recon * scale:
        return PreparationCircuit(
            n=cov.n, seed=seed,
            squeezers=[Squeezer(mode=k, z=1.0) for k in range(cov.n)],
            passive_ops=[], source=MIXED_SOURCE,
        )
    factors = euler_decompose(S, tol)
    z = factors.z**2
    squeezers = [Squeezer(mode=k, z=float(z[k])) for k in range(cov.n)]
    passive = passive_to_two_mode_rotations(factors.V, STAGE_PRE, tol)
    passive += passive_to_two_mode_rotations(factors.O, STAGE_POST, tol)
    return PreparationCircuit(
        n=cov.n, seed=seed, squeezers=squeezers,
        passive_ops=passive, source=MIXED_SOURCE,
    )


def serialize_circuit(circuit: PreparationCircuit) -> str:
    """Render a circuit as line-oriented key-value text, 17 significant digits."""
    lines = [
        f"n {circuit.n}",
        f"source {circuit.source}",
        "seed " + " ".join(f"{v:.17g}" for v in circuit.seed),
    ]
    for sq in circuit.squeezers:
        lines.append(f"squeezer mode={sq.mode} z={sq.z:.17g} orientation={sq.orientation}")
    for el in circuit.passive_ops:
        if isinstance(el, Rotation):
            lines.append(
                f"rotation stage={el.stage} modes={el.modes[0]},{el.modes[1]} "
                f"theta={el.theta:.17g} phi={el.phi:.17g}"
            )
        else:
            lines.append(f"phase stage={el.stage} mode={el.mode} alpha={el.alpha:.17g}")
    return "\n".join(lines) + "\n"


def _fields(parts) -> dict:
    return dict(part.split("=", 1) for part in parts)


def parse_circuit(text: str) -> PreparationCircuit:
    """Parse the output of serialize_circuit."""
    n = None
    source = PURE_SOURCE
    seed = None
    squeezers: list[Squeezer] = []
    passive: list[PassiveElement] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, *rest = line.split()
        try:
            if head == "n":
                n = int(rest[0])
            elif head == "source":
                source = rest[0]
            elif head == "seed":
                seed = np.array([float(v) for v in rest])
            elif head == "squeezer":
                kv = _fields(rest)
                squeezers.append(Squeezer(mode=int(kv["mode"]), z=float(kv["z"]),
                                          orientation=kv.get("orientation", "x")))
            elif head == "rotation":
                kv = _fields(rest)
                i, j = (int(v) for v in kv["modes"].split(","))
                passive.append(Rotation((i, j), float(kv["theta"]), float(kv["phi"]),
                                        kv.get("stage", STAGE_POST)))
            elif head == "phase":
                kv = _fields(rest)
                passive.append(PhaseShift(int(kv["mode"]), float(kv["alpha"]),
                                          kv.get("stage", STAGE_POST)))
            else:
                raise ValueError(f"unknown record {head!r}")
        except (KeyError, IndexError, ValueError) as exc:
            raise ValueError(f"circuit line {lineno}: {exc}") from exc
    if n is None or seed is None:
        raise ValueError("circuit file is missing the n or seed record")
    if seed.size != n:
        raise ValueError(f"seed has {seed.size} values for {n} modes")
    return PreparationCircuit(n=n, seed=seed, squeezers=squeezers,
                              passive_ops=passive, source=source)
