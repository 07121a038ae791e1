"""Symplectic linear algebra core.

Conventions used throughout the package:

* modes are interleaved as (x1, p1, ..., xn, pn);
* the symplectic form is the block-diagonal stack of [[0, 1], [-1, 0]];
* a covariance matrix is a real symmetric strictly positive 2n x 2n matrix,
  strictly positive meaning that it has a Cholesky factor gamma = L L^T;
* Williamson output satisfies S @ gamma @ S.T = diag(d1, d1, ..., dn, dn)
  with S = -sigma D^{-1/2} W^T L^T sigma symplectic, W the canonical basis
  of the skew kernel L^T sigma L, and d non-decreasing.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .config import (TOL_PAIR_REL, TOL_SYM, TOL_SYMPL, _as_vector, _check_positive_sorted,
                     _generator, _mode_input, _square_input, real_float)
from .errors import InvalidInput, NumericalFailure
from .gate import below_vacuum

_EPS = float(np.finfo(float).eps)


def symplectic_form(n: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form in interleaved mode ordering.

    Each call returns a new array, a copy of the cached one; library code
    applies the form through ``_sigma_left`` and ``_sigma_right`` instead.
    """
    _mode_input(n)
    return _symplectic_structure(2 * n).sigma.copy()


_Structure = namedtuple("_Structure", "swap row_sign col_sign sigma eye")


@functools.cache
def _symplectic_structure(m: int) -> _Structure:
    """The symplectic structure at size m = 2n, built once per size and
    read-only: the index swapping x and p within each mode, the row signs
    of sigma M as a column, the column signs of M sigma, sigma itself and
    the identity."""
    swap = np.arange(m) ^ 1
    row_sign = np.tile((1.0, -1.0), m // 2)[:, None]
    sigma = np.zeros((m, m))
    sigma[np.arange(m), swap] = row_sign[:, 0]
    return _Structure(*_frozen(swap, row_sign, -row_sign[:, 0], sigma, np.eye(m)))


def _sigma_left(M: np.ndarray) -> np.ndarray:
    """sigma @ M for a 2n x k matrix, as a row swap within each mode plus a
    sign flip."""
    s = _symplectic_structure(M.shape[0])
    return M.take(s.swap, axis=0) * s.row_sign


def _sigma_right(M: np.ndarray) -> np.ndarray:
    """M @ sigma as a column swap within each mode plus a sign flip; for a
    vector u this is u^T sigma, that is sigma^T u."""
    s = _symplectic_structure(M.shape[-1])
    return M.take(s.swap, axis=-1) * s.col_sign


def _sigma_average(M: np.ndarray) -> np.ndarray:
    """(M + sigma M sigma^T) / 2 for a square M; sigma M sigma^T swaps rows
    and columns within each mode and flips the sign of the mixed entries."""
    s = _symplectic_structure(M.shape[0])
    return 0.5 * (M - M.take(s.swap, axis=0).take(s.swap, axis=1) * (s.row_sign * s.col_sign))


def _max_abs(M: np.ndarray) -> float:
    # the ufunc reduction skips ndarray.max's Python wrapper; like it, it
    # propagates NaN
    return float(np.maximum.reduce(np.abs(M), axis=None))


def interleaved_diagonal(values: np.ndarray) -> np.ndarray:
    """diag(v1, v1, ..., vn, vn) for a length-n vector."""
    return np.diag(np.repeat(values, 2))


def relative_defect(difference: np.ndarray, reference: np.ndarray) -> float:
    """Largest entry of a difference over max(1, largest entry of the
    reference): the measure of every reconstruction and replay self-check."""
    return _max_abs(difference) / max(1.0, _max_abs(reference))


def _symplectic_defect(entries: np.ndarray) -> float:
    """Max-norm of S sigma S^T - sigma, for an even square float array."""
    # S sigma S^T = X - X^T with X the x-columns times the p-columns
    cross = entries[:, 0::2] @ entries[:, 1::2].T
    return _max_abs(cross - cross.T - _symplectic_structure(entries.shape[0]).sigma)


def symplectic_inverse(entries: np.ndarray) -> np.ndarray:
    """Inverse of a symplectic matrix via S^-1 = -sigma S^T sigma."""
    return -_sigma_left(_sigma_right(entries.T))


def _frozen(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class CovarianceMatrix:
    """Real symmetric strictly positive matrix of second moments.

    Validation enforces real finite entries, symmetry (relative to the max-norm)
    and strict positivity: the Cholesky factorisation gamma = L L^T succeeds,
    a test with no threshold and so no units.  Physicality, i.e. the bound
    gamma + i*sigma >= 0, or equivalently d_1 >= 1, is a separate optional
    check because the feasibility machinery also applies to strictly
    positive matrices that are not covariance matrices of quantum states.

    The factor L is the one factorisation kept, and the skew spectral data
    built from it is computed and checked once, on first use; both are
    read-only, like ``entries``, so they cannot go stale.
    """

    def __init__(self, entries: np.ndarray):
        entries, self.n, scale = _square_input(entries, "covariance matrix")
        sym_defect = _max_abs(entries - entries.T)
        if sym_defect > TOL_SYM * scale:
            raise InvalidInput(f"matrix is not symmetric: defect {sym_defect:.3g} exceeds "
                               f"{TOL_SYM:.3g} relative to max-norm {scale:.3g}")
        sym = 0.5 * (entries + entries.T)
        try:
            L = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError:
            raise InvalidInput("matrix is not strictly positive: no Cholesky factor") from None
        self._entries, self._factor = _frozen(sym, L)
        self._skew = None

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @classmethod
    def identity(cls, n: int) -> "CovarianceMatrix":
        _mode_input(n)
        return cls(_symplectic_structure(2 * n).eye)

    def is_physical(self) -> bool:
        """Uncertainty test: d_1, read from the memoised skew spectral data,
        is not below the vacuum."""
        return not below_vacuum(float(_skew_spectral_data(self)[0][0]))

    def __repr__(self):
        return f"CovarianceMatrix(n={self.n})"


class SymplecticTransform:
    """Real matrix S with S sigma S^T = sigma within tolerance, kept as a read-only copy."""

    def __init__(self, entries: np.ndarray):
        entries, self.n, scale = _square_input(entries, "symplectic transform")
        scale = scale**2
        defect = _symplectic_defect(entries)
        if defect > TOL_SYMPL * scale:
            raise InvalidInput(f"symplectic defect {defect:.3g} exceeds tolerance "
                               f"{TOL_SYMPL:.3g} at scale {scale:.3g}")
        self._entries, = _frozen(entries.copy())

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __repr__(self):
        return f"SymplecticTransform(n={self.n})"


@dataclass(eq=False)
class SpectrumVector:
    """Non-decreasing vector of positive values: the symplectic eigenvalues
    of a matrix or its sorted local symplectic values; it iterates as floats."""

    values: np.ndarray

    def __post_init__(self):
        values = _as_vector(self.values, "spectrum")
        _check_positive_sorted(values, "spectrum")
        self.values = np.array(values)

    def __len__(self):
        return self.values.size

    def __iter__(self):
        return iter(self.values.tolist())


@dataclass(eq=False)
class EulerFactors:
    """Passive-squeeze-passive factorisation S = O Q V.

    ``z``, a vector (``config._as_vector``), holds the n squeezing magnitudes,
    all >= 1; the middle factor is diag(z1, 1/z1, ..., zn, 1/zn).
    """

    O: SymplecticTransform
    z: np.ndarray
    V: SymplecticTransform

    def __post_init__(self):
        self.z = np.array(_as_vector(self.z, "squeezing magnitudes"))

    def q_matrix(self) -> np.ndarray:
        return np.diag(np.ravel(np.column_stack([self.z, 1.0 / self.z])))

    def reconstruct(self) -> np.ndarray:
        return self.O.entries @ self.q_matrix() @ self.V.entries


def _as_covariance(gamma) -> CovarianceMatrix:
    if isinstance(gamma, CovarianceMatrix):
        return gamma
    return CovarianceMatrix(gamma)


def _skew_spectral_data(cov: CovarianceMatrix):
    """Checked eigen-data of the skew kernel K = L^T sigma L, with L the
    constructor's Cholesky factor; K is similar to sigma gamma.

    Returns read-only (d, W): d, the upper half of the Hermitian spectrum
    of i K, holds the n symplectic eigenvalues in non-decreasing order; W is
    orthogonal with K = W blockdiag(d_j J) W^T.  The data is computed, and
    the pairing and orthogonality checks run, once per matrix and memoised
    on ``cov``.
    """
    if cov._skew is None:
        n = cov.n
        L = cov._factor
        lam, vecs = np.linalg.eigh(1j * (L.T @ _sigma_left(L)))
        spectrum = lam.tolist()
        # the Hermitian spectrum must be symmetric about zero: +/- doublets
        mismatch = max(abs(a + b) for a, b in zip(spectrum, reversed(spectrum)))
        # eigh sorts ascending, so the largest magnitude sits at one end
        lam_max = max(abs(spectrum[0]), abs(spectrum[-1]))
        if mismatch > TOL_PAIR_REL * max(lam_max, 1e-300):
            raise NumericalFailure(
                f"skew spectrum does not pair into doublets: mismatch {mismatch:.3g}"
            )
        if spectrum[n] <= 0:
            raise InvalidInput("symplectic eigenvalues must be strictly positive")
        # phase convention: rotate each vector's dominant entry onto the
        # imaginary axis, first index winning near-ties, so diagonal inputs
        # map to W = I; the factor sqrt(2) of the real basis rides along
        V = vecs[:, n:]
        p = V[_lead_rows(V), np.arange(n)]
        V = V * (1j * math.sqrt(2.0) * p.conj() / np.abs(p))
        # the columns (Im v, Re v) of each vector, read off its float view
        W = V.view(float).take(_symplectic_structure(2 * n).swap, axis=1)
        orth_defect = _max_abs(W.T @ W - _symplectic_structure(2 * n).eye)
        if orth_defect > 1e-8:
            raise NumericalFailure("canonical basis of the skew kernel is not orthogonal: "
                                   f"defect {orth_defect:.3g}")
        cov._skew = _frozen(lam[n:].copy(), W)
    return cov._skew


def symplectic_eigenvalues(gamma) -> SpectrumVector:
    """Simply-counted symplectic eigenvalues, non-decreasing.

    The values are the positive square roots of the doubly-degenerate
    eigenvalues of -gamma sigma gamma sigma, computed through the Hermitian
    spectral problem for i L^T sigma L, with gamma = L L^T.
    """
    d, _ = _skew_spectral_data(_as_covariance(gamma))
    return SpectrumVector(d)


def williamson(gamma):
    """Normal-mode decomposition of a strictly positive matrix.

    Returns (S, D) with S symplectic and S gamma S^T = diag(d1, d1, ..., dn, dn),
    D non-decreasing.  The skew kernel of the Cholesky factor gamma = L L^T
    is K = L^T sigma L = W blockdiag(d_j J) W^T, and S = D^{1/2} W^T L^{-1} is
    symplectic because W also canonicalises K^{-1}.  As L^{-1} = K^{-1} L^T
    sigma, S = -sigma D^{-1/2} W^T L^T sigma, the symplectic inverse of
    L W D^{-1/2}: one product, no inverse.
    """
    cov = _as_covariance(gamma)
    d, W = _skew_spectral_data(cov)
    S = symplectic_inverse(cov._factor @ (W / np.sqrt(np.repeat(d, 2))))
    return SymplecticTransform(S), SpectrumVector(d)


def williamson_defect(gamma: CovarianceMatrix, S: SymplecticTransform,
                      d: SpectrumVector) -> float:
    """Relative defect of S gamma S^T = diag(d1, d1, ..., dn, dn) against gamma."""
    g = gamma.entries
    return relative_defect(S.entries @ g @ S.entries.T - interleaved_diagonal(d.values), g)


def _lead_rows(M: np.ndarray) -> np.ndarray:
    """Row of each column's dominant entry, the first index winning within 1e-9."""
    mags = np.abs(M)
    return (mags >= np.maximum.reduce(mags) * (1.0 - 1e-9)).argmax(axis=0)


def _positive_leading_sign(u: np.ndarray) -> np.ndarray:
    """Flip each column so its dominant entry, first index winning near-ties,
    is non-negative."""
    # the dominant entry of a unit column is never zero
    return u * np.copysign(1.0, u[_lead_rows(u), np.arange(u.shape[1])])


def _complex_rows(M: np.ndarray) -> np.ndarray:
    """The rows x - i p of each mode of a 2n x k real matrix, as an n x k
    complex matrix: the unitary picture's coordinates, in which sigma^T acts
    as multiplication by -i and a passive transform as its unitary."""
    return M[0::2] - 1j * M[1::2]


def _real_rows(Z: np.ndarray) -> np.ndarray:
    """Inverse of ``_complex_rows``: the interleaved rows (Re, -Im) of Z."""
    out = np.empty((2 * Z.shape[0], Z.shape[1]))
    out[0::2] = Z.real
    out[1::2] = -Z.imag
    return out


def _polish_passive(A: np.ndarray) -> np.ndarray:
    """Newton orthogonalisation of a near-orthogonal matrix commuting with
    sigma, that is built from 2x2 blocks [[a, b], [-b, a]].

    The steps A (3 - A^T A) / 2 preserve that structure and square the
    orthogonality defect: one step when the defect it measures is at most
    1e-8, which is the usual case, more while it is larger.  Moves A by no
    more than its defect, which is assumed small.  A matrix whose structure
    is not exact goes through ``_sigma_average`` first.
    """
    # quadratic convergence from a defect below 1: four steps take a 1e-2
    # defect to rounding, and the validation rejects anything worse
    for _ in range(4):
        defect = A.T @ A - _symplectic_structure(A.shape[0]).eye
        A = A - A @ (0.5 * defect)
        # Frobenius norm at most 1e-8, which bounds the max-norm too
        if np.vdot(defect, defect) <= 1e-16:
            break
    return A


def euler_decompose(S) -> EulerFactors:
    """Factor a symplectic matrix as S = O Q V with passive O, V.

    The planes come from one SVD S = U diag(lam) W^T, that is from the polar
    splitting S = P R with P = U diag(lam) U^T and R = U W^T.  The singular
    values pair into (z, 1/z); the leading columns u of U whose z lies above
    the noise floor are the anti-squeezed directions, and their exact
    partners sigma^T u span the squeezed ones.  The other columns of U span
    the unit subspace plus those partners; written as complex vectors
    x - i p per mode, with the u projected out, they span the unit subspace
    as a complex space, and the leading left singular vectors of a second,
    complex SVD give it an orthonormal basis, each vector a column u with
    its exact partner sigma^T u.  The passive right factor is V = O^T R,
    read off the SVD's own orthogonal polar factor: R carries the rounding
    of the SVD alone, whereas P^{-1} S would amplify it by ||S||.  Squeezing
    magnitudes are normalised to z >= 1 by assigning the larger member of
    each pair to the x quadrature, and sorted non-decreasing.
    """
    if isinstance(S, SymplecticTransform):
        St = S
    else:
        St = SymplecticTransform(S)
    n = St.n
    # taking U from S itself rather than from eigh(S S^T) keeps the
    # conditioning at ||S||, not ||S||^2
    U, lam, Wt = np.linalg.svd(St.entries)
    R = U @ Wt
    # a plane counts as squeezed when (z - 1/z) / 2 exceeds the noise floor
    # tau, that is when z > tau + sqrt(tau^2 + 1); no gap is needed above it,
    # since each pair (u, sigma^T u) is orthogonal by construction and the
    # polish removes what near-unit planes leave between pairs
    singular = lam.tolist()
    lam_max = singular[0]
    tau = max(1e-12, 100.0 * _EPS * max(1.0, 0.5 * (lam_max - 1.0 / lam_max)))
    floor = tau + math.sqrt(tau * tau + 1.0)
    k = sum(v > floor for v in singular)
    if k == 0:
        # P is the identity within the noise floor: S itself is passive
        return EulerFactors(O=SymplecticTransform(_symplectic_structure(2 * n).eye),
                            z=np.ones(n),
                            V=SymplecticTransform(_polish_passive(_sigma_average(R))))
    if k > n:
        raise NumericalFailure("squeeze planes of the polar factor do not pair into doublets: "
                               f"singular values {lam}")
    # lam is descending; reversing the leading k columns sorts z ascending
    u_cols = _positive_leading_sign(U[:, k - 1 :: -1])
    z_vec = lam[k - 1 :: -1]
    if k < n:
        # projecting out the complex u projects out (u, sigma^T u) alike;
        # the residual's unit-subspace singular values are sqrt(2)
        chosen = _complex_rows(u_cols)
        cluster = _complex_rows(U[:, k:])
        resid = cluster - chosen @ (chosen.conj().T @ cluster)
        basis, spread, _ = np.linalg.svd(resid, full_matrices=False)
        if spread[n - k - 1] < 1e-8:
            raise NumericalFailure("failed to extend symplectic basis of the unit subspace")
        unit_u = _real_rows(basis[:, : n - k])
        # u^T P u from the SVD, without forming P
        unit_z = np.maximum(1.0, lam @ (U.T @ unit_u) ** 2)
        z_vec = np.concatenate([z_vec, unit_z])
        order = np.argsort(z_vec, kind="stable")
        z_vec = z_vec[order]
        u_cols = np.column_stack([u_cols, unit_u])[:, order]
    # every column pair (u, sigma^T u) is exact, so O1 needs no averaging
    O1 = np.empty((2 * n, 2 * n))
    O1[:, 0::2] = u_cols
    O1[:, 1::2] = -_sigma_left(u_cols)
    O1 = _polish_passive(O1)
    return EulerFactors(
        O=SymplecticTransform(O1),
        z=z_vec,
        V=SymplecticTransform(_polish_passive(_sigma_average(O1.T @ R))),
    )


def euler_defect(S: SymplecticTransform, factors: EulerFactors) -> float:
    """Relative defect of S = O Q V against S."""
    return relative_defect(factors.reconstruct() - S.entries, S.entries)


def unitary_to_orthosymplectic(U: np.ndarray) -> np.ndarray:
    """Map an n x n unitary to its 2n x 2n passive representation: column 2k
    has the complex rows U[:, k], and column 2k + 1 its partner -i U[:, k]."""
    return _real_rows(np.stack([U, -1j * U], axis=-1).reshape(U.shape[0], -1))


def orthosymplectic_to_unitary(O: np.ndarray) -> np.ndarray:
    """Inverse of the passive representation map, with validation."""
    O, _, _ = _square_input(O, "passive transform")
    U = O[0::2, 0::2] + 1j * O[0::2, 1::2]
    eye = _symplectic_structure(O.shape[0]).eye
    defects = (_max_abs(O @ O.T - eye), _symplectic_defect(O),
               _max_abs(O - unitary_to_orthosymplectic(U)))
    if max(defects) > 1e-8:
        raise InvalidInput("matrix is not orthogonal-symplectic in 2x2 blocks: orthogonality, "
                           "symplectic and block defects "
                           + ", ".join(f"{v:.3g}" for v in defects))
    return U


def haar_orthogonal_symplectic(n: int, rng: "np.random.Generator") -> np.ndarray:
    """Random passive transform, drawn Haar-like from the unitary picture."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return unitary_to_orthosymplectic(q * (diag / np.abs(diag)))


def random_symplectic(n: int, squeeze_bound: float = 1.0, seed=None) -> SymplecticTransform:
    """Random symplectic matrix O diag(z, 1/z, ...) V, deterministic per seed.

    O and V are Haar-like random passive transforms and the squeezing
    magnitudes are uniform in [1, squeeze_bound].
    """
    _mode_input(n)
    squeeze_bound = real_float(squeeze_bound, "squeeze_bound")
    if not 1.0 <= squeeze_bound < math.inf:
        raise InvalidInput(f"squeeze_bound must be finite and >= 1, got {squeeze_bound}")
    rng = _generator(seed)
    O = haar_orthogonal_symplectic(n, rng)
    V = haar_orthogonal_symplectic(n, rng)
    z = rng.uniform(1.0, squeeze_bound, n)
    Q = np.diag(np.ravel(np.column_stack([z, 1.0 / z])))
    return SymplecticTransform(O @ Q @ V)
