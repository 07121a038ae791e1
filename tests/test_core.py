from fractions import Fraction

import numpy as np
import pytest

from modematch import (
    CovarianceMatrix,
    SpectrumVector,
    SymplecticTransform,
    euler_decompose,
    random_symplectic,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)
import modematch.core as core
from modematch import synthesize
from modematch.config import TOL_PSD, TOL_RECON
from modematch.core import (
    _sigma_average,
    _sigma_left,
    _sigma_right,
    _skew_spectral_data,
    _symplectic_structure,
    haar_orthogonal_symplectic,
    interleaved_diagonal,
    symplectic_inverse,
    williamson_defect,
)
from modematch.entropy import entropy_report
from modematch.errors import InvalidInput, NumericalFailure
from modematch.marginals import (
    check_matrix_consistency,
    check_mixed,
    local_diagonal,
)

NON_FINITE = (np.nan, np.inf, -np.inf)

R3 = np.sqrt(3.0)
TMS = np.array([
    [2.0, 0.0, R3, 0.0],
    [0.0, 2.0, 0.0, -R3],
    [R3, 0.0, 2.0, 0.0],
    [0.0, -R3, 0.0, 2.0],
])


def random_physical(rng, n, squeeze_bound=5.0, d_high=3.0):
    d = np.sort(rng.uniform(1.0, d_high, n))
    S = random_symplectic(n, squeeze_bound, rng)
    return CovarianceMatrix(S.entries @ interleaved_diagonal(d) @ S.entries.T), d, S


def count_solver_calls(monkeypatch, names):
    """Replace the named np.linalg solvers by wrappers that log each call."""
    calls = []
    for name in names:
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def skew_eigen_oracle(gamma):
    """Independent route: square roots of the eigenvalues of -g s g s."""
    n = gamma.shape[0] // 2
    sig = symplectic_form(n)
    ev = np.linalg.eigvals(-gamma @ sig @ gamma @ sig)
    return np.sqrt(np.sort(ev.real))


class TestSymplecticForm:
    def test_antisymmetric_and_squares_to_minus_identity(self):
        for n in (1, 2, 5):
            sig = symplectic_form(n)
            assert np.array_equal(sig, -sig.T)
            assert np.array_equal(sig @ sig, -np.eye(2 * n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sigma_helpers_match_dense_form_bitwise(self, n):
        # each product with the dense form has one nonzero term per entry,
        # so it is exact and the swap-and-sign helpers must match it bitwise
        rng = np.random.default_rng(n)
        M = rng.standard_normal((2 * n, 2 * n)) * 10.0 ** rng.uniform(-3, 3, (2 * n, 2 * n))
        sig = symplectic_form(n)
        assert np.array_equal(_sigma_left(M), sig @ M)
        assert np.array_equal(_sigma_left(M[:, :n]), sig @ M[:, :n])
        assert np.array_equal(_sigma_right(M), M @ sig)
        assert np.array_equal(_sigma_right(M[0]), sig.T @ M[0])
        assert np.array_equal(_sigma_average(M), 0.5 * (M + sig @ M @ sig.T))
        # the one cached record: sigma and the identity, read-only
        structure = _symplectic_structure(2 * n)
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(structure.sigma, np.kron(np.eye(n), J))
        assert np.array_equal(structure.eye, np.eye(2 * n))
        for cached in (structure.sigma, structure.eye):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0, 0] = 1.0
        dense = np.max(np.abs(M @ sig @ M.T - sig))
        assert core._symplectic_defect(M) == pytest.approx(dense, rel=1e-12)
        # symplectic_form hands out a writable copy
        sig[0, 1] = 7.0
        assert np.array_equal(symplectic_form(n), structure.sigma)


class TestCovarianceMatrix:
    def test_rejects_asymmetric(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError):
            CovarianceMatrix(bad)

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInput, match="not strictly positive"):
            CovarianceMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidInput, match="not strictly positive"):
            CovarianceMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_positivity_has_no_units(self):
        # strict positivity is "Cholesky succeeds", with no absolute threshold
        np.testing.assert_allclose(symplectic_eigenvalues(1e-13 * np.eye(4)).values,
                                   [1e-13, 1e-13], rtol=1e-12)
        vacuum = CovarianceMatrix(np.diag([1.0, 1.0, 1e-12, 1e12]))
        np.testing.assert_allclose(symplectic_eigenvalues(vacuum).values, [1.0, 1.0],
                                   rtol=1e-12)
        assert vacuum.is_physical()

    def test_physicality_matches_the_uncertainty_bound(self):
        # reference: gamma + i sigma >= 0, read from its smallest eigenvalue
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            gamma, d, S = random_physical(rng, n)
            # d_1 scaled into (0.4, 0.95), below the vacuum
            scale = rng.uniform(0.4, 0.95) / d[0]
            cases = ((gamma.entries, True), (S.entries @ S.entries.T, True),
                     (scale * gamma.entries, False))
            for entries, physical in cases:
                cov = CovarianceMatrix(entries)
                smallest = np.linalg.eigvalsh(cov.entries + 1j * symplectic_form(n))[0]
                assert cov.is_physical() == bool(smallest >= -TOL_PSD) == physical

    def test_vacuum_is_physical(self):
        assert CovarianceMatrix.identity(3).is_physical()

    def test_accepts_real_numbers_of_any_type(self):
        # a nested list of Fractions is an object array, read entry by entry
        cov = CovarianceMatrix([[Fraction(2), 0], [0, Fraction(2)]])
        assert cov.entries.dtype == float and cov.entries.tolist() == [[2.0, 0.0], [0.0, 2.0]]

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite(self, value):
        bad = np.eye(4)
        bad[1, 2] = bad[2, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            CovarianceMatrix(bad)

    def test_rejects_all_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            CovarianceMatrix(np.full((2, 2), np.nan))


class TestSingleSpectralPass:
    """Each CovarianceMatrix runs one Cholesky factorisation at construction
    and, at most once, the complex eigh of its skew kernel; every later
    spectral caller reuses that data, and Williamson inverts nothing."""

    def test_eigen_solver_budget(self, monkeypatch):
        gamma = random_physical(np.random.default_rng(41), 4)[0].entries.copy()
        calls = count_solver_calls(monkeypatch, ("cholesky", "eigh", "eigvalsh", "solve", "inv"))
        cov = CovarianceMatrix(gamma)
        local_diagonal(cov)
        symplectic_eigenvalues(cov)
        williamson(cov)
        cov.is_physical()
        assert calls == ["cholesky", "eigh"]
        # the consistency gate, the entropy report and the verify suites'
        # slacks and Williamson defect read the same memoised data
        check_matrix_consistency(cov)
        entropy_report(local_diagonal(cov).values)
        check_mixed(local_diagonal(cov).values, symplectic_eigenvalues(cov))
        williamson_defect(cov, *williamson(cov))
        assert calls == ["cholesky", "eigh"]

    def test_checks_run_on_memoised_data(self, monkeypatch):
        # the pairing check runs when the memo is built, on the constructor's
        # Cholesky factor; a failed check stores nothing
        gamma = np.diag([0.5, 0.5, 2.0, 2.0])
        cov = CovarianceMatrix(gamma)
        with monkeypatch.context() as patch:
            patch.setattr(core, "TOL_PAIR_REL", -1.0)
            with pytest.raises(NumericalFailure):
                williamson(cov)
        np.testing.assert_allclose(williamson(cov)[1].values, [0.5, 2.0])

    def test_checks_run_once_per_matrix(self, monkeypatch):
        cov = CovarianceMatrix(np.diag([0.5, 0.5, 2.0, 2.0]))
        symplectic_eigenvalues(cov)
        monkeypatch.setattr(core, "TOL_PAIR_REL", -1.0)
        np.testing.assert_allclose(williamson(cov)[1].values, [0.5, 2.0])
        with pytest.raises(NumericalFailure):
            symplectic_eigenvalues(CovarianceMatrix(np.diag([2.0, 2.0, 3.0, 3.0])))

    def test_entries_and_memoised_arrays_are_read_only(self):
        cov, _, _ = random_physical(np.random.default_rng(43), 3)
        with pytest.raises(ValueError):
            cov.entries[0, 0] = 1.0
        with pytest.raises(AttributeError):
            cov.entries = np.eye(6)
        for arr in _skew_spectral_data(cov):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_returned_arrays_are_independent_copies(self):
        cov, d_in, _ = random_physical(np.random.default_rng(47), 3)
        symplectic_eigenvalues(cov).values[0] = 99.0
        S, d = williamson(cov)
        d.values[0] = 99.0
        with pytest.raises(ValueError):
            S.entries[0, 0] = 99.0
        S2, d2 = williamson(cov)
        np.testing.assert_allclose(d2.values, d_in, atol=1e-9)
        assert S2.entries[0, 0] != 99.0
        sig = symplectic_form(2)
        sig[0, 1] = 7.0
        assert symplectic_form(2)[0, 1] == 1.0

    def test_a_transform_keeps_its_own_copy(self):
        # euler_decompose trusts a SymplecticTransform, so writing to the
        # caller's array must not reach the checked entries
        entries = np.eye(4)
        S = SymplecticTransform(entries)
        entries[0, 0] = 5.0
        factors = euler_decompose(S)
        np.testing.assert_array_equal(S.entries, np.eye(4))
        np.testing.assert_allclose(factors.z, [1.0, 1.0])
        with pytest.raises(AttributeError):
            S.entries = np.eye(4)


class TestSpectrumVector:
    def test_requires_sorted(self):
        with pytest.raises(InvalidInput):
            SpectrumVector(np.array([2.0, 1.0]))

    def test_requires_positive(self):
        with pytest.raises(InvalidInput):
            SpectrumVector(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            SpectrumVector(np.array([1.0, value]))
        with pytest.raises(ValueError, match="non-finite"):
            SpectrumVector(np.array([value, 1.0]))

    @pytest.mark.parametrize("values", [[], np.empty(0), [[1.0, 2.0]], np.ones((2, 2))],
                             ids=["empty-list", "empty-array", "row", "square"])
    def test_rejects_empty_or_not_1d(self, values):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            SpectrumVector(values)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        d = symplectic_eigenvalues(np.eye(4))
        np.testing.assert_allclose(d.values, [1.0, 1.0])

    def test_diagonal_input(self):
        d = symplectic_eigenvalues(np.diag([2.0, 2.0, 3.0, 3.0]))
        np.testing.assert_allclose(d.values, [2.0, 3.0])

    def test_round_trip_through_random_orbit(self):
        S = random_symplectic(2, 3.0, seed=11)
        target = np.diag([1.5, 1.5, 2.5, 2.5])
        gamma = S.entries @ target @ S.entries.T
        d = symplectic_eigenvalues(gamma)
        np.testing.assert_allclose(d.values, [1.5, 2.5], atol=1e-10)

    def test_matches_independent_eigenvalue_route(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            gamma, _, _ = random_physical(rng, n)
            d = np.repeat(symplectic_eigenvalues(gamma).values, 2)
            np.testing.assert_allclose(d, skew_eigen_oracle(gamma.entries),
                                       rtol=0, atol=1e-8)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            gamma, _, _ = random_physical(rng, n)
            S = random_symplectic(n, 4.0, rng)
            moved = S.entries @ gamma.entries @ S.entries.T
            np.testing.assert_allclose(
                symplectic_eigenvalues(moved).values,
                symplectic_eigenvalues(gamma).values,
                rtol=0, atol=1e-8,
            )

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInput):
            symplectic_eigenvalues(np.diag([1.0, -0.5]))


class TestWilliamson:
    def test_single_mode_diagonal_gives_identity_transform(self):
        S, d = williamson(np.diag([3.0, 3.0]))
        np.testing.assert_allclose(d.values, [3.0])
        np.testing.assert_allclose(S.entries, np.eye(2), atol=1e-12)

    def test_two_mode_squeezed_is_pure(self):
        S, d = williamson(TMS)
        np.testing.assert_allclose(d.values, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(S.entries @ TMS @ S.entries.T, np.eye(4), atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            gamma, d_in, _ = random_physical(rng, n, squeeze_bound=5.0)
            S, d = williamson(gamma)
            np.testing.assert_allclose(d.values, d_in, rtol=0, atol=1e-9)
            recon = S.entries @ gamma.entries @ S.entries.T
            assert np.max(np.abs(recon - interleaved_diagonal(d.values))) <= 1e-8
            assert np.max(np.abs(S.entries @ symplectic_form(n) @ S.entries.T
                                 - symplectic_form(n))) <= 1e-9

    def test_strong_squeezing_sweep(self):
        # squeezing up to 1e4 in six modes: every state constructs and
        # reconstructs within TOL_RECON
        for seed in range(100):
            d = np.sort(np.random.default_rng(seed).uniform(1.0, 3.0, 6))
            S = random_symplectic(6, 1e4, seed=seed).entries
            cov = CovarianceMatrix(S @ interleaved_diagonal(d) @ S.T)
            assert williamson_defect(cov, *williamson(cov)) <= TOL_RECON


class TestSymplecticTrace:
    def test_bounded_by_local_values(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            gamma, _, _ = random_physical(rng, 3)
            c = local_diagonal(gamma).values.values
            assert sum(symplectic_eigenvalues(gamma)) <= np.sum(c) + 1e-9


class TestEulerDecompose:
    def test_identity(self):
        factors = euler_decompose(np.eye(4))
        np.testing.assert_allclose(factors.O.entries, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(factors.V.entries, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(factors.z, [1.0, 1.0])

    def test_already_in_squeeze_form(self):
        z = 2.5
        factors = euler_decompose(np.diag([z, 1.0 / z]))
        np.testing.assert_allclose(factors.O.entries, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(factors.V.entries, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(factors.z, [z])

    def test_reconstruction_random(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            S = random_symplectic(n, 5.0, rng)
            factors = euler_decompose(S)
            assert np.max(np.abs(factors.reconstruct() - S.entries)) <= 1e-8
            assert np.all(factors.z >= 1.0)
            for block in (factors.O.entries, factors.V.entries):
                assert np.max(np.abs(block @ block.T - np.eye(2 * n))) <= 1e-9
                sig = symplectic_form(n)
                assert np.max(np.abs(block @ sig @ block.T - sig)) <= 1e-9

    def test_passive_blocks_have_rotation_structure(self):
        # 2x2 blocks of the passive factors follow the complex embedding
        # [[re, im], [-im, re]], the determinant-positive rotation family
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            factors = euler_decompose(random_symplectic(n, 4.0, rng))
            for M in (factors.O.entries, factors.V.entries):
                xx, pp = M[0::2, 0::2], M[1::2, 1::2]
                xp, px = M[0::2, 1::2], M[1::2, 0::2]
                assert np.max(np.abs(xx - pp)) <= 1e-9
                assert np.max(np.abs(xp + px)) <= 1e-9

    def test_rejects_nonsymplectic(self):
        with pytest.raises(InvalidInput):
            euler_decompose(2.0 * np.eye(4))

    @staticmethod
    def _assert_passive_factorisation(factors, S):
        n = S.shape[0] // 2
        assert np.max(np.abs(factors.reconstruct() - S)) <= 1e-8
        sig = symplectic_form(n)
        for block in (factors.O.entries, factors.V.entries):
            assert np.max(np.abs(block @ block.T - np.eye(2 * n))) <= 1e-9
            assert np.max(np.abs(block @ sig @ block.T - sig)) <= 1e-9

    def test_passive_input_is_all_unit_planes(self):
        rng = np.random.default_rng(53)
        for n in (1, 3, 6):
            S = haar_orthogonal_symplectic(n, rng)
            factors = euler_decompose(S)
            np.testing.assert_allclose(factors.z, np.ones(n), atol=1e-12)
            self._assert_passive_factorisation(factors, S)

    def test_synthesized_witness_with_many_unit_planes(self):
        # a ramp c = d + a j / n inside the cone gives a witness whose
        # preparation transform leaves most planes unsqueezed
        rng = np.random.default_rng(59)
        n = 40
        d = np.sort(rng.uniform(1.0, 3.0, n))
        c = d + 0.5 * np.arange(1, n + 1) / n
        S_w, _ = williamson(synthesize(c, d).final_matrix)
        S = symplectic_inverse(S_w.entries)
        factors = euler_decompose(S)
        assert np.sum(factors.z - 1.0 <= 1e-9) >= n // 2
        self._assert_passive_factorisation(factors, S)

    def test_ramp_witness_at_n_128(self):
        # 101 unit planes: one complete QR completes them all, each with its
        # exact partner, so O's column pairs need no averaging and keep their
        # structure through the polish up to rounding
        n = 128
        d = np.linspace(1.0, 3.0, n)
        S_w, _ = williamson(synthesize(d + 0.5 * np.arange(1, n + 1) / n, d).final_matrix)
        S = symplectic_inverse(S_w.entries)
        factors = euler_decompose(S)
        assert np.sum(factors.z - 1.0 <= 1e-9) >= 100
        assert np.max(np.abs(factors.reconstruct() - S)) <= 1e-8 * np.linalg.norm(S, 2)
        O = factors.O.entries
        assert np.max(np.abs(O[:, 1::2] + _sigma_left(O[:, 0::2]))) <= 1e-15

    def test_solver_budget(self, monkeypatch):
        # the planes and the passive factor come from one SVD of S, and the
        # unit planes, when there are any, from one complete QR of the
        # squeezed ones; no eigensolver runs on any path
        rng = np.random.default_rng(61)
        squeezed = random_symplectic(3, 4.0, rng)
        one_plane = (haar_orthogonal_symplectic(3, rng) * [3.0, 1.0 / 3.0, 1, 1, 1, 1]
                     ) @ haar_orthogonal_symplectic(3, rng)
        passive = SymplecticTransform(haar_orthogonal_symplectic(3, rng))
        calls = count_solver_calls(monkeypatch, ("svd", "qr", "eigh", "eigvalsh", "eig"))
        factors = euler_decompose(squeezed)
        assert calls == ["svd"]
        assert np.all(factors.z > 1.0 + 1e-3)
        calls.clear()
        factors = euler_decompose(SymplecticTransform(one_plane))
        assert calls == ["svd", "qr"]
        np.testing.assert_array_equal(factors.z[:2], [1.0, 1.0])
        np.testing.assert_allclose(factors.z, [1.0, 1.0, 3.0], atol=1e-12)
        calls.clear()
        factors = euler_decompose(passive)
        assert calls == ["svd", "qr"]
        np.testing.assert_array_equal(factors.O.entries, np.eye(6))
        np.testing.assert_array_equal(factors.z, np.ones(3))

    @pytest.mark.parametrize("squeeze_bound", [1e3, 3e3])
    def test_accuracy_relative_to_norm_at_strong_squeezing(self, squeeze_bound):
        # a polar factor built from eigh(S S^T) squares the conditioning and
        # fails this at both bounds
        for seed in range(20):
            S = random_symplectic(6, squeeze_bound, seed).entries
            factors = euler_decompose(S)
            defect = np.max(np.abs(factors.reconstruct() - S))
            assert defect <= 1e-8 * np.linalg.norm(S, 2)


class TestRandomSymplectic:
    def test_symplectic_invariant(self):
        for n in (1, 3, 6):
            S = random_symplectic(n, 4.0, seed=5)
            sig = symplectic_form(n)
            assert np.max(np.abs(S.entries @ sig @ S.entries.T - sig)) <= 1e-10

    def test_passive_when_no_squeezing(self):
        S = random_symplectic(4, 1.0, seed=8)
        assert np.max(np.abs(S.entries @ S.entries.T - np.eye(8))) <= 1e-10

    def test_deterministic_per_seed(self):
        a = random_symplectic(3, 3.0, seed=42)
        b = random_symplectic(3, 3.0, seed=42)
        assert np.array_equal(a.entries, b.entries)

    def test_rejects_bad_squeeze_bound(self):
        with pytest.raises(ValueError):
            random_symplectic(2, 0.5, seed=1)

    def test_an_int_seed_draws_as_its_generator(self):
        a = random_symplectic(3, 3.0, seed=42)
        b = random_symplectic(3, 3.0, seed=np.random.default_rng(42))
        assert np.array_equal(a.entries, b.entries)

    @pytest.mark.parametrize("seed", [[42, 7], (42, 7), np.array([42, 7]),
                                      [np.int64(42), 7], np.random.SeedSequence(42)],
                             ids=["list", "tuple", "array", "numpy-int-entry", "seed-sequence"])
    def test_a_sequence_seed_draws_as_its_generator(self, seed):
        # reading a sequence seed entry by entry leaves numpy's draws as they are
        a = random_symplectic(3, 3.0, seed=seed)
        b = random_symplectic(3, 3.0, seed=np.random.default_rng(seed))
        assert np.array_equal(a.entries, b.entries)


class TestSymplecticTransform:
    def test_inverse(self):
        S = random_symplectic(3, 4.0, seed=13)
        inv = symplectic_inverse(S.entries)
        np.testing.assert_allclose(S.entries @ inv, np.eye(6), atol=1e-12)

    def test_rejects_nonsymplectic(self):
        with pytest.raises(InvalidInput):
            SymplecticTransform(np.diag([2.0, 2.0]))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite(self, value):
        bad = np.eye(4)
        bad[0, 3] = value
        with pytest.raises(ValueError, match="non-finite"):
            SymplecticTransform(bad)
