import math
import sys

import numpy as np
import pytest

import modematch.config as config_module
import modematch.entropy as entropy_module
import modematch.gate as gate_module
from modematch import (
    CovarianceMatrix,
    check_pure,
    entanglement_profile,
    entropy_report,
    entropy_s,
    entropy_s_inverse,
    local_diagonal,
    random_symplectic,
    sharing_feasible,
    symplectic_eigenvalues,
    synthesize_pure,
)
from modematch.core import interleaved_diagonal
from modematch.errors import InvalidInput

S2 = 1.5 * np.log2(1.5) + 0.5  # entropy of a mode with local value 2
S3 = 2.0                       # 2 log2(2) - 1 log2(1)
S5 = 3.0 * np.log2(3.0) - 2.0
NON_FINITE = (np.nan, np.inf, -np.inf)


class TestEntropyFunction:
    def test_pure_mode_has_zero_entropy(self):
        assert entropy_s(1.0) == 0.0

    def test_known_values(self):
        assert entropy_s(3.0) == pytest.approx(S3, abs=1e-14)
        assert entropy_s(5.0) == pytest.approx(S5, abs=1e-14)
        assert entropy_s(2.0) == pytest.approx(S2, abs=1e-14)

    def test_continuity_at_one(self):
        assert entropy_s(1.0 + 1e-12) <= 1e-9

    def test_monotone_increasing_and_concave(self):
        grid = np.geomspace(1.0 + 1e-6, 1e3, 400)
        values = np.array([entropy_s(c) for c in grid])
        slopes = np.diff(values) / np.diff(grid)
        assert np.all(slopes > 0)
        assert np.all(np.diff(slopes) < 0)

    def test_clamps_within_tolerance_and_rejects_below(self):
        assert entropy_s(1.0 - 1e-10) == 0.0
        with pytest.raises(InvalidInput):
            entropy_s(0.9)

    def test_large_arguments_match_the_asymptotic_series(self):
        # s(c) = log2((c + 1) / 2) + (1 - 1/(c - 1) + 4/(3 (c - 1)^2) - ...) / ln 2,
        # whose next term is below 1e-17 here; the difference of the defining
        # form returned 0 bits at c = 1e16 and NaN at 1e308
        for c in np.geomspace(1e6, 1e308, 200).tolist():
            series = (1 - 1 / (c - 1) + 4 / (3 * (c - 1) * (c - 1))) / math.log(2)
            reference = math.log2((c + 1) / 2) + series
            assert abs(entropy_s(c) - reference) <= 4 * math.ulp(reference)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite(self, value):
        with pytest.raises(InvalidInput, match="not finite"):
            entropy_s(value)


class TestEntropyInverse:
    def test_zero_maps_to_one(self):
        assert entropy_s_inverse(0.0) == 1.0

    def test_round_trip(self):
        for c in np.geomspace(1.0 + 1e-6, 100.0, 60):
            assert abs(entropy_s_inverse(entropy_s(c)) - c) <= 1e-9

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            entropy_s_inverse(-0.5)

    def test_round_trip_up_to_a_thousand_bits(self):
        for value in np.geomspace(1e-3, 1000.0, 80):
            assert entropy_s(entropy_s_inverse(value)) == pytest.approx(value, abs=1e-11)

    def test_largest_float_bounds_the_range(self):
        top = entropy_s(sys.float_info.max)
        assert entropy_s(entropy_s_inverse(top)) == pytest.approx(top, abs=1e-11)
        with pytest.raises(InvalidInput, match="largest float"):
            entropy_s_inverse(top + 0.01)


class TestEntanglementProfile:
    def test_vacuum_profile_is_zero(self):
        np.testing.assert_allclose(entanglement_profile(np.eye(6)), np.zeros(3))

    def test_two_mode_squeezed(self):
        trace = synthesize_pure([1.0, 1.0])
        profile = entanglement_profile(trace.final_matrix)
        np.testing.assert_allclose(profile, [S2, S2], atol=1e-9)

    def test_cone_boundary_profile(self):
        trace = synthesize_pure([1.0, 1.0, 2.0])
        profile = entanglement_profile(trace.final_matrix)
        np.testing.assert_allclose(profile, [S2, S2, S3], atol=1e-7)

    def test_rejects_mixed_state(self):
        with pytest.raises(InvalidInput):
            entanglement_profile(np.diag([2.0, 2.0]))

    def test_synthesized_profiles_stay_sharable(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            b = np.sort(rng.uniform(0.0, 1.0, n))
            b[-1] = min(b[-1], np.sum(b[:-1]))  # cap the largest entry at the cone
            trace = synthesize_pure(b)
            profile = entanglement_profile(trace.final_matrix)
            assert sharing_feasible(profile).feasible


class TestSharingFeasible:
    def test_zero_profile(self):
        assert sharing_feasible(np.zeros(4)).feasible

    def test_boundary_profile(self):
        verdict = sharing_feasible([S2, S2, S3])
        assert verdict.feasible
        assert abs(verdict.min_slack) <= 1e-9

    def test_lone_entangled_mode_is_impossible(self):
        assert not sharing_feasible([0.0, 0.0, 1.0]).feasible

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            sharing_feasible([-0.1, 0.2])


class TestEntropyUpperBound:
    # the paper's aggregate s(sum c), reported as global_upper_bound
    def test_worked_example(self):
        bound = entropy_report(c=[1.5, 1.5, 2.0]).global_upper_bound
        assert bound == pytest.approx(S5, abs=1e-12)

    def test_all_pure_modes(self):
        # sum of local values n means a pure product within the bound chain
        assert entropy_report(c=np.ones(2)).global_upper_bound == pytest.approx(entropy_s(2.0))

    def test_aggregate_bound_meets_gaussian_entropy_only_at_one_mode(self):
        d = np.array([2.0])
        assert entropy_s(float(d.sum())) == pytest.approx(entropy_s(2.0))

    def test_aggregate_bound_dominates_for_near_pure_spectra(self):
        d = np.array([1.1, 1.2, 1.05])
        gaussian = sum(entropy_s(v) for v in d)
        assert gaussian < entropy_s(float(d.sum()))

    def test_aggregating_mixed_spectra_loses_entropy(self):
        # concavity with s(1) = 0 caps s of a shifted sum from above by the
        # per-mode sum, not below: concentrating the excitations of two
        # thermal modes into one mode lowers the entropy, so the aggregate
        # s(sum d) is NOT an upper bound on the per-mode sum once the
        # spectrum is moderately mixed
        assert 2.0 * entropy_s(2.0) > entropy_s(4.0)
        assert 2.0 * entropy_s(3.0) > entropy_s(6.0)

    def test_spectrum_to_local_step_on_random_states(self):
        # the monotone step s(sum d) <= s(sum c) holds for every strictly
        # positive matrix because the spectrum sum never exceeds the local sum
        rng = np.random.default_rng(27)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            dvals = np.sort(rng.uniform(1.0, 3.0, n))
            S = random_symplectic(n, 4.0, rng)
            gamma = CovarianceMatrix(S.entries @ interleaved_diagonal(dvals) @ S.entries.T)
            c = local_diagonal(gamma).values.values
            d = symplectic_eigenvalues(gamma).values
            assert entropy_s(float(np.sum(d))) <= entropy_s(float(np.sum(c))) + 1e-9

    def test_rejects_below_one(self):
        with pytest.raises(InvalidInput):
            entropy_report(c=[0.5, 2.0])


class TestEntropyReport:
    def test_vector_entropies_match_scalar_function(self):
        # the report evaluates s(c) on the whole vector; the scalar
        # entropy_s is the reference, including the clamp just below one
        c = np.concatenate([[1.0 - 1e-10, 1.0, 1.0 + 1e-12],
                            np.geomspace(1.001, 1e3, 40)])
        report = entropy_report(c=c)
        expected = [entropy_s(v) for v in c]
        np.testing.assert_allclose(report.per_mode_entropies, expected,
                                   rtol=1e-14, atol=1e-15)
        with pytest.raises(InvalidInput):
            entropy_report(c=[0.9, 2.0])

    def test_vector_report(self):
        report = entropy_report(c=[1.5, 1.5, 2.0])
        assert report.global_upper_bound == pytest.approx(S5, abs=1e-12)
        assert report.purity_consistent
        assert report.total_local_sum == pytest.approx(
            float(np.sum(report.per_mode_entropies)))

    def test_per_mode_entropies_are_a_tuple_of_floats(self):
        report = entropy_report(c=np.array([2.0, 1.5]))
        assert type(report.per_mode_entropies) is tuple
        assert [type(v) for v in report.per_mode_entropies] == [float, float]
        assert report.per_mode_entropies == (entropy_s(1.5), entropy_s(2.0))

    def test_unsorted_values_report_in_sorted_order(self):
        c = np.array([2.0, 1.5, 3.0, 1.0])
        report = entropy_report(c=c)
        reference = entropy_report(c=np.sort(c))
        np.testing.assert_array_equal(report.per_mode_entropies,
                                      reference.per_mode_entropies)
        assert report.global_upper_bound == reference.global_upper_bound
        assert report.purity_consistent == reference.purity_consistent
        np.testing.assert_array_equal(c, [2.0, 1.5, 3.0, 1.0])

    def test_matrix_report(self):
        trace = synthesize_pure([1.0, 1.0])
        report = entropy_report(local_diagonal(trace.final_matrix).values)
        np.testing.assert_allclose(report.per_mode_entropies, [S2, S2], atol=1e-9)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            entropy_report(c=[1.0, value])
        with pytest.raises(ValueError, match="non-finite"):
            entropy_report(c=[value, 2.0])

    def test_local_values_are_validated_once(self, monkeypatch):
        calls = []
        validate = config_module._as_vector

        def counted(values, what):
            calls.append(what)
            return validate(values, what)

        # each module looks the rule up in its own namespace
        for module in (config_module, entropy_module, gate_module):
            monkeypatch.setattr(module, "_as_vector", counted)
        c = [1.5, 1.5, 2.0]
        report = entropy_report(c=c)
        assert calls == ["c"]
        assert report.global_upper_bound == entropy_s(5.0)
        assert report.purity_consistent == check_pure([0.5, 0.5, 1.0]).feasible
