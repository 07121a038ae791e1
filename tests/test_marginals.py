import numpy as np
import pytest

from modematch import (
    CovarianceMatrix,
    SpectrumVector,
    b_to_temperature,
    check_matrix_consistency,
    check_mixed,
    check_pure,
    local_diagonal,
    random_symplectic,
    symplectic_eigenvalues,
    temperature_to_b,
)
from modematch.core import interleaved_diagonal
from modematch.errors import InvalidInput

R3 = np.sqrt(3.0)
NON_FINITE = (np.nan, np.inf, -np.inf)


def random_physical(rng, n, squeeze_bound=5.0, d_high=3.0, pure=False):
    d = np.ones(n) if pure else np.sort(rng.uniform(1.0, d_high, n))
    S = random_symplectic(n, squeeze_bound, rng)
    return CovarianceMatrix(S.entries @ interleaved_diagonal(d) @ S.entries.T), d


class TestLocalDiagonal:
    def test_identity(self):
        local = local_diagonal(np.eye(6))
        np.testing.assert_allclose(local.values.values, np.ones(3))

    def test_block_determinant(self):
        gamma = np.eye(4)
        gamma[0:2, 0:2] = [[2.0, 1.0], [1.0, 2.0]]
        local = local_diagonal(gamma)
        np.testing.assert_allclose(local.values.values, [1.0, R3])

    def test_two_mode_squeezed_locals(self):
        gamma = np.array([
            [2.0, 0.0, R3, 0.0],
            [0.0, 2.0, 0.0, -R3],
            [R3, 0.0, 2.0, 0.0],
            [0.0, -R3, 0.0, 2.0],
        ])
        local = local_diagonal(gamma)
        np.testing.assert_allclose(local.values.values, [2.0, 2.0])

    def test_rejects_non_positive_block(self):
        # Cholesky accepts this block (last pivot about 7.5e-9), but its
        # determinant rounds to 0, so the block check is reachable
        gamma = np.eye(4)
        gamma[2:4, 2:4] = [[1.7947683835248298, 0.8580457083487283],
                           [0.8580457083487283, 0.41021584978543574]]
        cov = CovarianceMatrix(gamma)
        with pytest.raises(InvalidInput, match=r"mode 1 is not positive \(det 0\)"):
            local_diagonal(cov)


class TestCheckMixed:
    def test_worked_two_mode_example(self):
        verdict = check_mixed([1.5, 1.5], [1.0, 2.0])
        assert verdict.feasible
        slacks = [s.slack for s in verdict.slacks]
        np.testing.assert_allclose(slacks, [0.5, 0.0, 1.0])

    def test_equal_vectors_sit_on_partial_sum_boundary(self):
        v = [0.7, 1.3, 2.0]
        verdict = check_mixed(v, v)
        assert verdict.feasible
        assert all(s.slack == 0.0 for s in verdict.slacks[:-1])

    def test_last_condition_violation(self):
        verdict = check_mixed([1.0, 1.0, 5.0], [1.0, 1.0, 1.0])
        assert not verdict.feasible
        last = verdict.slacks[-1]
        assert last.name == "last_condition"
        assert last.slack == pytest.approx(-4.0)
        assert verdict.violated == [last]

    def test_input_validation(self):
        with pytest.raises(InvalidInput):
            check_mixed([1.0, 2.0], [1.0])
        with pytest.raises(InvalidInput):
            check_mixed([2.0, 1.0], [1.0, 1.0])
        with pytest.raises(InvalidInput):
            check_mixed([0.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            check_mixed([value, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            check_mixed([1.0, 2.0], [1.0, value])
        with pytest.raises(ValueError, match="non-finite"):
            check_mixed(SpectrumVector(np.array([value, 1.0])), [1.0, 1.0])

    def test_two_mode_matches_explicit_inequalities(self):
        grid = np.linspace(0.5, 3.5, 7)
        for c1 in grid:
            for c2 in grid[grid >= c1]:
                for d1 in grid:
                    for d2 in grid[grid >= d1]:
                        verdict = check_mixed([c1, c2], [d1, d2])
                        explicit = (c1 + c2 >= d1 + d2 - 1e-9
                                    and c2 - c1 <= d2 - d1 + 1e-9)
                        assert verdict.feasible == explicit
                        # c1 >= d1 is implied: it is never the only violation
                        if not verdict.feasible:
                            labels = {s.label() for s in verdict.violated}
                            assert labels != {"partial_sum(1)"}

    def test_sorting_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            c = rng.uniform(0.5, 4.0, n)
            d = rng.uniform(0.5, 4.0, n)
            base = check_mixed(np.sort(c), np.sort(d))
            perm = rng.permutation(n)
            again = check_mixed(np.sort(c[perm]), np.sort(d[perm]))
            assert base.feasible == again.feasible
            assert base.min_slack == pytest.approx(again.min_slack, abs=1e-12)


class TestCheckPure:
    def test_zero_vector(self):
        assert check_pure(np.zeros(4)).feasible

    def test_outside_cone(self):
        verdict = check_pure([1.0, 1.0, 3.0])
        assert not verdict.feasible
        assert verdict.slacks[0].index == 2
        assert verdict.slacks[0].slack == pytest.approx(-1.0)

    def test_boundary(self):
        verdict = check_pure([1.0, 1.0, 2.0])
        assert verdict.feasible
        assert verdict.min_slack == pytest.approx(0.0, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            check_pure([-0.1, 1.0])

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            check_pure([value, 1.0])

    def test_agrees_with_mixed_gate(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            b = np.round(rng.uniform(0.0, 3.0, n), 2)
            ours = check_pure(b).feasible
            theirs = check_mixed(np.sort(b) + 1.0, np.ones(n)).feasible
            assert ours == theirs


class TestCheckMatrixConsistency:
    def test_random_orbit_always_feasible(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            gamma, _ = random_physical(rng, n)
            verdict = check_matrix_consistency(gamma)
            assert verdict.feasible
            assert verdict.min_slack >= -1e-8

    def test_diagonal_is_boundary(self):
        verdict = check_matrix_consistency(np.diag([1.5, 1.5, 2.5, 2.5]))
        assert verdict.feasible
        for s in verdict.slacks[:-1]:
            assert s.slack == pytest.approx(0.0, abs=1e-12)

    def test_pure_orbit_feasible_in_both_gates(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            gamma, _ = random_physical(rng, n, pure=True)
            assert check_matrix_consistency(gamma).feasible
            c = local_diagonal(gamma).values.values
            assert check_pure(np.maximum(c - 1.0, 0.0)).feasible

    def test_spread_bound_on_random_orbit(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            gamma, _ = random_physical(rng, n)
            c = local_diagonal(gamma).values.values
            d = symplectic_eigenvalues(gamma).values
            lhs = 2.0 * c[-1] - np.sum(c)
            rhs = np.sum(d[1:]) + (3.0 - 2.0 * n) * d[0]
            assert lhs <= rhs + 1e-8

    def test_spread_bound_is_implied_by_the_last_condition(self):
        # the spread slack exceeds the last-condition slack by
        # 2 sum_{j=2}^{n-1} (d_j - d_1) >= 0, so the gate passing implies it
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            gamma, _ = random_physical(rng, n)
            c = local_diagonal(gamma).values.values
            d = symplectic_eigenvalues(gamma).values
            spread = np.sum(d[1:]) + (3.0 - 2.0 * n) * d[0] - (2.0 * c[-1] - np.sum(c))
            last = check_mixed(c, d).slacks[-1].slack
            gap = 2.0 * np.sum(d[1:-1] - d[0])
            assert gap >= 0.0
            assert spread - last == pytest.approx(gap, abs=1e-12 * np.sum(c))


class TestTemperatureConversions:
    def test_known_values(self):
        np.testing.assert_allclose(temperature_to_b([1.0 / np.log(2.0)]), [2.0])
        np.testing.assert_allclose(temperature_to_b([1.0 / np.log(3.0)]), [1.0])

    def test_tiny_temperature_underflows_to_zero(self):
        assert temperature_to_b([1e-3])[0] == 0.0

    def test_monotone(self):
        T = np.linspace(0.05, 20.0, 50)
        b = temperature_to_b(T)
        assert np.all(np.diff(b) > 0)

    def test_inversion_known_values(self):
        T = b_to_temperature([2.0, 1.0])
        np.testing.assert_allclose(T, [1.0 / np.log(2.0), 1.0 / np.log(3.0)])

    def test_round_trip(self):
        rng = np.random.default_rng(16)
        b = rng.uniform(1e-3, 50.0, 100)
        back = temperature_to_b(b_to_temperature(b))
        np.testing.assert_allclose(back, b, rtol=1e-12)

    def test_zero_marker(self):
        T = b_to_temperature([0.0, 1.0])
        assert T[0] == 0.0
        assert list(T == 0) == [True, False]

    def test_every_positive_excitation_has_a_finite_positive_temperature(self):
        # 2/b overflows for a subnormal b, which read as T = 0, the pure-mode
        # marker, with a RuntimeWarning
        b = np.array([5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e300,
                      np.finfo(float).max])
        T = b_to_temperature(b)
        assert np.all(np.isfinite(T)) and np.all(T > 0) and np.all(np.diff(T) > 0)
        np.testing.assert_allclose(T[:3], 1.0 / (np.log(2.0) - np.log(b[:3])), rtol=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            temperature_to_b([0.0])
        with pytest.raises(InvalidInput):
            b_to_temperature([-1.0])

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite(self, value, recwarn):
        # NaN used to map to T = 0 (a pure mode) and inf to divide by zero
        with pytest.raises(InvalidInput, match="non-finite"):
            temperature_to_b([1.0, value])
        with pytest.raises(InvalidInput, match="non-finite"):
            b_to_temperature([1.0, value])
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
