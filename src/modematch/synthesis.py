"""Constructive synthesis of matrices with prescribed (c, d) data.

Given feasible local values c and spectrum d, the builder assembles an
explicit strictly positive matrix realising both.  It follows the inductive
construction top down: each level couples two modes through a closed-form
4x4 kernel, freezes the mode that received its fixed local value, and passes
one auxiliary value on to the remaining modes.  Each kernel becomes a
two-mode symplectic gate on a thermal seed, so the witness is

    gamma = S diag(d) S^T,    S = g_{n-1} ... g_1,

a product of at most n - 1 gates.  The gates and the seed are recorded so
the result can be replayed and audited.

``solve_two_mode`` returns a kernel's couplings (e, f), ``assemble_two_mode``
its 4x4 block.  ``synthesize`` and ``synthesize_pure`` return a
``SynthesisTrace``, whose ``final_matrix``, the witness, is the replay of
its gates.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TOL_INEQ, _as_vector, _mode_input, valid_tol_ineq
from .core import (
    _EPS,
    CovarianceMatrix,
    SymplecticTransform,
    relative_defect,
    symplectic_eigenvalues,
    symplectic_inverse,
    williamson,
)
from .errors import Infeasible, InvalidInput, NumericalFailure
from .gate import _scale, check_mixed, check_pure
from .marginals import local_diagonal


@dataclass(frozen=True, eq=False)
class TwoModeStep:
    """Apply a checked 4x4 symplectic gate, kept read-only, to the modes (i, j), in order."""

    modes: tuple[int, int]
    transform: np.ndarray

    def __post_init__(self):
        gate = SymplecticTransform(self.transform)
        if gate.n != 2:
            raise InvalidInput("a two-mode gate must be 4x4")
        object.__setattr__(self, "transform", gate.entries)


@dataclass(frozen=True, eq=False)
class SynthesisTrace:
    """Thermal seed, gate tuple and the final matrix, frozen once built.

    ``seed`` holds one thermal value per mode, the spectrum d in mode order;
    ``steps`` are the two-mode gates, applied in order.  Building a trace
    checks n, the seed and the steps' modes under ``config._mode_input``, then
    sets ``final_matrix``, the witness, to its replay S diag(seed) S^T.
    """

    n: int
    seed: np.ndarray
    steps: tuple[TwoModeStep, ...] = ()
    final_matrix: CovarianceMatrix = field(init=False)

    def __post_init__(self):
        steps = tuple(self.steps)
        seed = _mode_input(self.n, self.seed, pairs=[step.modes for step in steps])
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "final_matrix", CovarianceMatrix(replay_trace(self)))


def assemble_two_mode(c1: float, c2: float, e: float, f: float) -> np.ndarray:
    """The 4x4 two-mode block with locals (c1, c2) and couplings (e, f),
    [[c1, 0, e, 0], [0, c1, 0, f], [e, 0, c2, 0], [0, f, 0, c2]]."""
    out = np.diag([c1, c1, c2, c2]).astype(float)
    out[0, 2] = out[2, 0] = e
    out[1, 3] = out[3, 1] = f
    return out


def two_mode_eigenvalues_closed_form(c1: float, c2: float, e: float, f: float):
    """Symplectic eigenvalues of the assembled two-mode matrix, closed form.

    d_{1/2}^2 = (c1^2 + c2^2 + 2ef
                 +/- sqrt((c1^2 - c2^2)^2 + 4 (c1 e + c2 f)(c1 f + c2 e))) / 2

    The radicand (d2^2 - d1^2)^2 is a square plus a product, so a degenerate
    spectrum gives an exact zero rather than rounding noise whose square
    root would split d1 from d2 by about sqrt(eps); d1 comes from
    d1^2 d2^2 = det rather than from the cancelling difference.  Requires
    real finite inputs (``config._as_vector``) and a strictly positive matrix.
    """
    c1, c2, e, f = _as_vector((c1, c2, e, f), "(c1, c2, e, f)")
    if c1 <= 0 or c2 <= 0 or c1 * c2 - e * e <= 0 or c1 * c2 - f * f <= 0:
        raise InvalidInput("assembled two-mode matrix is not strictly positive")
    radicand = (c1 * c1 - c2 * c2) ** 2 + 4.0 * (c1 * e + c2 * f) * (c1 * f + c2 * e)
    d2_sq = 0.5 * (c1 * c1 + c2 * c2 + 2.0 * e * f + math.sqrt(max(radicand, 0.0)))
    return math.sqrt((c1 * c2 - e * e) * (c1 * c2 - f * f) / d2_sq), math.sqrt(d2_sq)


def solve_two_mode(c1: float, c2: float, d1: float, d2: float, *,
                   tol_ineq: float = TOL_INEQ) -> tuple[float, float]:
    """The couplings (e, f), a tuple of floats, for which ``assemble_two_mode(c1,
    c2, e, f)`` has spectrum (d1, d2).

    Requires real finite inputs (``config._as_vector``) with c2 >= c1 > 0 and
    d2 >= d1 > 0 (else InvalidInput) and the pair inequalities (else
    Infeasible), whose slacks are the sum gap G and the spread gap H:

        G = (c1 + c2) - (d1 + d2) >= 0,    H = (d2 - d1) - (c2 - c1) >= 0,

    each to within ``tol_ineq`` times ``gate._scale`` of the four inputs.

    The two symmetric-function equations e f = (d1^2 + d2^2 - c1^2 - c2^2) / 2
    and e^2 + f^2 = ((c1 c2)^2 + (e f)^2 - (d1 d2)^2) / (c1 c2) factor into

        (e + f)^2 = u (u + 2 d1 d2) / (c1 c2),   u = H (H + 2 (c2 - c1)) / 2,
        (e - f)^2 = v (v + 2 d1 d2) / (c1 c2),   v = G (G + 2 (d1 + d2)) / 2,

    with e >= 0 and sign(f) = sign(e f).  The gaps are the only differences
    formed, and a gap within rounding of the sums counts as zero, so c = d
    gives e = f = 0 exactly and a pair on one boundary |e| = |f| bitwise.
    """
    c1, c2, d1, d2 = _as_vector((c1, c2, d1, d2), "(c1, c2, d1, d2)")
    if not (0 < c1 <= c2) or not (0 < d1 <= d2):
        raise InvalidInput(f"inputs must satisfy 0 < c1 <= c2 and 0 < d1 <= d2, got "
                           f"c=({c1}, {c2}), d=({d1}, {d2})")
    return _couplings(c1, c2, d1, d2, valid_tol_ineq(tol_ineq) * _scale(c2, d2))


def _couplings(c1: float, c2: float, d1: float, d2: float, threshold: float):
    """``solve_two_mode`` on valid inputs, its gaps judged at ``threshold``."""
    sum_gap, spread_gap = (c1 + c2) - (d1 + d2), (d2 - d1) - (c2 - c1)
    if min(sum_gap, spread_gap) < -threshold:
        raise Infeasible(f"pair inequalities violated for c=({c1}, {c2}), d=({d1}, {d2})")
    noise = 4.0 * _EPS * ((c1 + c2) + (d1 + d2))
    sum_gap = sum_gap if sum_gap > noise else 0.0
    spread_gap = spread_gap if spread_gap > noise else 0.0
    u = 0.5 * spread_gap * (spread_gap + 2.0 * (c2 - c1))
    v = 0.5 * sum_gap * (sum_gap + 2.0 * (d1 + d2))
    k, cc = 2.0 * d1 * d2, c1 * c2
    plus, minus = math.sqrt(u * (u + k) / cc), math.sqrt(v * (v + k) / cc)
    return 0.5 * (plus + minus), 0.5 * (plus - minus)


def _gate(c1: float, c2: float, d1: float, d2: float, room: float) -> np.ndarray:
    """Symplectic g with g diag(d1, d1, d2, d2) g^T = assemble_two_mode(c1,
    c2, e, f), where (e, f) = _couplings(c1, c2, d1, d2, room).

    The first mode of g holds the smaller thermal value and receives the
    local value c1.  The gate loop derives only feasible pairs and builds
    their blocks itself, so an Infeasible pair, or a block or transform
    that fails its own check, is a numerical failure.
    """
    try:
        e, f = _couplings(c1, c2, d1, d2, room)
        S_w, _ = williamson(assemble_two_mode(c1, c2, e, f))
    except Infeasible as exc:
        raise NumericalFailure(f"reduced subproblem lost feasibility: {exc}") from None
    except InvalidInput as exc:
        raise NumericalFailure(f"two-mode gate failed its check: {exc}") from None
    return symplectic_inverse(S_w.entries)


def synthesize(c, d, *, tol_ineq: float = TOL_INEQ) -> SynthesisTrace:
    """Build a matrix with local values c and symplectic spectrum d.

    Both vectors must be sorted non-decreasing, strictly positive, and pass
    the feasibility gate.  Returns the build trace; the witness matrix is
    ``trace.final_matrix``.  The realising matrix is not unique, this returns
    the one produced by the recorded two-mode gates.

    The feasibility gate runs once, on (c, d).  Each two-mode gate then
    sets the block of the mode it freezes exactly, and no later gate touches
    that mode.  S is a product of symplectic gates, so the spectrum is the
    seed.  A reduced problem that lost feasibility fails at the level that
    needs it, as an empty interval or an Infeasible pair in ``_gate``, both
    a NumericalFailure.  ``synthesis_defect`` measures the witness.
    """
    c, d = _as_vector(c, "c"), _as_vector(d, "d")
    verdict = check_mixed(c, d, tol_ineq=tol_ineq)
    if not verdict.feasible:
        worst = min(verdict.violated, key=lambda s: s.slack)
        raise Infeasible(f"(c, d) pair is infeasible: {worst.label()} slack {worst.slack:.3g}")
    n = len(c)
    # the verdict's threshold, widened by the rounding of its n-term sums and the steps'
    room = verdict.threshold + 4.0 * n * _EPS * (sum(c) + sum(d))
    # slot s of the seed holds d[s].  The open slots, sorted by the value
    # the remaining subproblem sees there, realise c[lo:hi]; a slot whose
    # gate gave it its final local value is frozen at that mode.
    mode_of = [0] * n
    values, slots = list(d), list(range(n))
    lo, hi = 0, n
    gates = []
    while hi - lo > 2 and c[lo:hi] != values:
        m = hi - lo
        # largest k >= 1 with c1 >= d_k within room; the verdict passed c1 >= d_1
        k = max(1, bisect.bisect_right(values, c[lo] + room))
        if k <= m - 2:
            # pair (c1, x) with (d_k, d_{k+1}) where x = d_k + d_{k+1} - max(c1, d_k):
            # a c1 rounded up to d_k splits its shortfall between the pair's gaps
            i = k - 1
            fixed, x = c[lo], values[i] + values[i + 1] - max(c[lo], values[i])
            frozen_mode = lo
            lo += 1
        else:
            # k in {m-1, m}: pair (c_m, x) with (d_{m-1}, d_m), x the midpoint of
            # the interval below, clear of boundary degeneracies; bounds each within
            # that room leave it empty by at most twice that, which x halves
            sum_d, sum_c = sum(values[: m - 2]), sum(c[lo : hi - 2])
            lower = max(values[m - 2], values[m - 2] + values[m - 1] - c[hi - 1],
                        values[m - 2] - values[m - 1] + c[hi - 1], sum_d + c[hi - 2] - sum_c)
            upper = min(values[m - 1] - values[m - 2] + c[hi - 1], (sum_c + c[hi - 2]) - sum_d)
            if lower > upper + 2.0 * room:
                raise NumericalFailure(f"empty interval for the auxiliary value: "
                                       f"[{lower:.17g}, {upper:.17g}]")
            i = m - 2
            fixed, x = c[hi - 1], 0.5 * (lower + upper)
            hi -= 1
            frozen_mode = hi
        a, b = slots[i], slots[i + 1]
        small, large = sorted((fixed, x))
        gates.append((a, b, _gate(small, large, values[i], values[i + 1], room)))
        # the gate gives its first mode the smaller local value
        frozen, carrier = (a, b) if fixed <= x else (b, a)
        mode_of[frozen] = frozen_mode
        del values[i : i + 2], slots[i : i + 2]
        at = bisect.bisect_left(values, x)
        values.insert(at, x)
        slots.insert(at, carrier)
    if hi - lo == 2 and c[lo:hi] != values:
        gates.append((*slots, _gate(c[lo], c[lo + 1], *values, room)))
    # one open mode, or c == d on the open modes: the seed is already final
    for slot, mode in zip(slots, range(lo, hi)):
        mode_of[slot] = mode
    seed = np.empty(n)
    seed[mode_of] = d
    return SynthesisTrace(n=n, seed=seed,
                          steps=[TwoModeStep((mode_of[a], mode_of[b]), g) for a, b, g in gates])


def synthesize_pure(b, *, tol_ineq: float = TOL_INEQ) -> SynthesisTrace:
    """Build a pure-state covariance with local excitations b >= 0.

    Delegates to synthesize(c = b + 1, d = (1, ..., 1)); the result has all
    symplectic eigenvalues equal to one within tolerance and unit determinant.
    """
    b = sorted(_as_vector(b, "b"))
    verdict = check_pure(b, tol_ineq=tol_ineq)
    if not verdict.feasible:
        raise Infeasible(f"b vector is outside the pure cone: slack {verdict.min_slack:.3g}")
    return synthesize([v + 1.0 for v in b], [1.0] * len(b), tol_ineq=tol_ineq)


def replay_trace(trace: SynthesisTrace) -> np.ndarray:
    """Re-run the recorded steps: S diag(seed) S^T.

    S, the product of the gates, is built by four-row updates, one per
    gate on the rows of its modes.  A trace's ``final_matrix`` is this
    replay, taken when the trace was built; the modes, seed and gates were
    checked before it.
    """
    S = np.eye(2 * trace.n)
    for step in trace.steps:
        i, j = step.modes
        rows = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
        S[rows] = step.transform @ S[rows]
    return (S * np.repeat(trace.seed, 2)) @ S.T


def synthesis_defect(gamma, c, d) -> float:
    """Defect of a witness's symplectic spectrum and local values against its
    sorted targets d and c, by ``relative_defect`` like every self-check; a
    trace's ``final_matrix`` is its replay by construction."""
    spectrum, local = symplectic_eigenvalues(gamma).values, local_diagonal(gamma).values.values
    return relative_defect(np.concatenate((spectrum - d, local - c)), np.concatenate((c, d)))


def sample_feasible_pair(rng: "np.random.Generator", n: int, *, physical: bool = False):
    """Random feasible (c, d) pair for property testing.

    Samples d uniformly in [0.5, 4], or in [1, 4] when ``physical``, starts
    from the boundary point c = d, applies feasibility preserving
    perturbations (uniform increase of a suffix of c by at most 2, with the
    last-entry-only case capped by the gate's last-condition slack), and with
    probability 0.2 tightens back toward the boundary.  The draws take no
    tolerance; ``check_mixed`` re-checks the result at its default one.
    """
    _mode_input(n)
    d = np.sort(rng.uniform(1.0 if physical else 0.5, 4.0, n))
    c = d.copy()
    for _ in range(int(rng.integers(1, 4))):
        j0 = int(rng.integers(0, n))
        if j0 == n - 1:
            head = check_mixed(c, d).slacks[-1].slack
            delta = rng.uniform(0.0, max(head, 0.0))
        else:
            delta = rng.uniform(0.0, 2.0)
        c[j0:] += delta
    if rng.random() < 0.2:
        c = d + rng.random() * (c - d)
    if not check_mixed(c, d).feasible:
        raise NumericalFailure("feasibility-preserving sampler produced an infeasible pair")
    return c, d
