import numpy as np
import pytest

from modematch import (
    SymplecticTransform,
    check_mixed,
    local_diagonal,
    replay_trace,
    sample_feasible_pair,
    solve_two_mode,
    symplectic_eigenvalues,
    synthesize,
    synthesize_pure,
    two_mode_eigenvalues_closed_form,
    williamson,
)
from modematch import synthesis
from modematch.errors import Infeasible, InvalidInput
from modematch.synthesis import (
    TwoModeStep,
    assemble_two_mode,
    synthesis_defect,
)

R3 = np.sqrt(3.0)
C2_BOUND = 1e-7  # acceptance criterion C2: spectrum and locals within 1e-7


def ramp_pair(rng, n):
    """d in [1, 3] sorted and c = d plus a linear ramp, strictly feasible for n >= 4."""
    d = np.sort(rng.uniform(1.0, 3.0, n))
    return d + rng.uniform(0.2, 1.0) * np.arange(1, n + 1) / n, d


def interval_branch_pair(rng, n):
    """A feasible pair with every c at or above d[-2], so that the first
    level picks its auxiliary value from an interval."""
    while True:
        d = np.sort(rng.uniform(0.5, 4.0, n))
        c = np.sort(rng.uniform(d[-2], d[-2] + 3.0, n))
        if check_mixed(c, d).feasible:
            return c, d


def random_positive_assembly(rng):
    """Random (c1, c2, e, f) with a strictly positive assembled matrix."""
    c1, c2 = rng.uniform(0.3, 4.0, 2)
    bound = np.sqrt(c1 * c2)
    e = rng.uniform(-bound, bound) * 0.98
    f = rng.uniform(-bound, bound) * 0.98
    return c1, c2, e, f


class TestClosedForm:
    def test_uncoupled_gives_sorted_locals(self):
        d1, d2 = two_mode_eigenvalues_closed_form(3.0, 1.5, 0.0, 0.0)
        assert (d1, d2) == (1.5, 3.0)

    def test_two_mode_squeezed_values(self):
        d1, d2 = two_mode_eigenvalues_closed_form(2.0, 2.0, R3, -R3)
        assert d1 == pytest.approx(1.0, abs=1e-12)
        assert d2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigensolver_route(self):
        rng = np.random.default_rng(21)
        for _ in range(500):
            c1, c2, e, f = random_positive_assembly(rng)
            d1, d2 = two_mode_eigenvalues_closed_form(c1, c2, e, f)
            ref = symplectic_eigenvalues(assemble_two_mode(c1, c2, e, f)).values
            np.testing.assert_allclose([d1, d2], ref, rtol=0, atol=1e-10)

    def test_rejects_indefinite_assembly(self):
        with pytest.raises(InvalidInput):
            two_mode_eigenvalues_closed_form(1.0, 1.0, 1.5, 0.0)


class TestSolveTwoMode:
    def test_equal_pair_gives_zero_couplings(self):
        e, f = solve_two_mode(1.3, 2.4, 1.3, 2.4)
        assert e == 0.0 and f == 0.0

    def test_two_mode_squeezed_couplings(self):
        e, f = solve_two_mode(2.0, 2.0, 1.0, 1.0)
        assert e == pytest.approx(R3, abs=1e-12)
        assert f == pytest.approx(-R3, abs=1e-12)

    def test_worked_fraction_example(self):
        e, f = solve_two_mode(1.5, 1.5, 1.0, 2.0)
        assert e * f == pytest.approx(0.25, abs=1e-12)
        assert e**2 + f**2 == pytest.approx(
            ((2.25**2) + 1.0 / 16.0 - 4.0) / 2.25, abs=1e-12)
        ref = symplectic_eigenvalues(assemble_two_mode(1.5, 1.5, e, f)).values
        np.testing.assert_allclose(ref, [1.0, 2.0], atol=1e-10)

    def test_round_trip_against_closed_form(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            d = np.sort(rng.uniform(0.4, 3.5, 2))
            c = d.copy()
            c += rng.uniform(0.0, 1.5)          # raise the sum
            shrink = rng.uniform(0.0, 1.0)      # shrink the spread
            mid = c.mean()
            c = mid + (c - mid) * shrink
            e, f = solve_two_mode(c[0], c[1], d[0], d[1])
            got = two_mode_eigenvalues_closed_form(c[0], c[1], e, f)
            np.testing.assert_allclose(got, d, rtol=0, atol=1e-9)

    # pairs on or next to a pair-inequality boundary, where solving the
    # squared equations directly loses the couplings in rounding noise of
    # order eps * c^4
    @pytest.mark.parametrize("c, d", [
        ((33.908131325847116, 33.908131325847116), (11.13627982582376, 11.13627982582376)),
        ((7.834379210296502, 7.834379210296502), (0.10579836337676406, 0.10580693863879609)),
        ((10.0, 10.0), (9.999999403953552, 10.000000596046448)),
    ], ids=["squeezed-large", "near-degenerate", "weak-beam-splitter"])
    def test_boundary_pairs_synthesize_accurately(self, c, d):
        e, f = solve_two_mode(*c, *d)
        ref = symplectic_eigenvalues(assemble_two_mode(*c, e, f)).values
        np.testing.assert_allclose(ref, d, rtol=1e-11)
        final = synthesize(c, d).final_matrix
        np.testing.assert_allclose(williamson(final)[1].values, d, rtol=1e-11)

    def test_rejects_infeasible(self):
        with pytest.raises(Infeasible):
            solve_two_mode(1.0, 1.0, 2.0, 2.0)
        with pytest.raises(Infeasible):
            solve_two_mode(1.0, 5.0, 1.0, 1.0)


class TestSynthesize:
    def test_equal_vectors_give_exact_diagonal(self):
        c = np.array([0.9, 1.7, 2.2, 3.1])
        trace = synthesize(c, c)
        expected = np.diag(np.repeat(c, 2))
        assert np.array_equal(trace.final_matrix.entries, expected)

    def test_two_mode_squeezed_structure(self):
        trace = synthesize([2.0, 2.0], [1.0, 1.0])
        expected = assemble_two_mode(2.0, 2.0, R3, -R3)
        np.testing.assert_allclose(trace.final_matrix.entries, expected, atol=1e-12)

    def test_pure_boundary_example(self):
        trace = synthesize([1.5, 1.5, 2.0], [1.0, 1.0, 1.0])
        _, d = williamson(trace.final_matrix)
        np.testing.assert_allclose(d.values, np.ones(3), atol=1e-7)
        c = local_diagonal(trace.final_matrix).values.values
        np.testing.assert_allclose(c, [1.5, 1.5, 2.0], atol=1e-7)

    def test_rejects_infeasible(self):
        with pytest.raises(Infeasible):
            synthesize([1.0, 5.0], [1.0, 1.0])

    def test_round_trip_sampled_pairs(self):
        rng = np.random.default_rng(33)
        for _ in range(150):
            n = int(rng.integers(1, 9))
            c, d = sample_feasible_pair(rng, n)
            trace = synthesize(c, d)
            _, d_out = williamson(trace.final_matrix)
            c_out = local_diagonal(trace.final_matrix).values.values
            np.testing.assert_allclose(d_out.values, d, rtol=0, atol=1e-7)
            np.testing.assert_allclose(c_out, np.sort(c), rtol=0, atol=1e-7)

    def test_trace_replay(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            c, d = sample_feasible_pair(rng, n)
            trace = synthesize(c, d)
            replayed = replay_trace(trace)
            scale = max(1.0, np.max(np.abs(trace.final_matrix.entries)))
            assert np.max(np.abs(replayed - trace.final_matrix.entries)) <= 1e-8 * scale
            # reference: embed every gate densely in the identity, then multiply
            S = np.eye(2 * n)
            for step in trace.steps:
                i, j = step.modes
                rows = [2 * i, 2 * i + 1, 2 * j, 2 * j + 1]
                E = np.eye(2 * n)
                E[np.ix_(rows, rows)] = step.transform
                S = E @ S
            reference = S @ np.diag(np.repeat(trace.seed, 2)) @ S.T
            assert np.max(np.abs(replayed - reference)) <= 1e-12 * scale

    def test_trace_is_thermal_seed_then_two_mode_gates(self):
        # a seed holding d on all modes, then at most n - 1 symplectic 4x4
        # gates, each on two distinct modes
        rng = np.random.default_rng(39)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            c, d = sample_feasible_pair(rng, n)
            trace = synthesize(c, d)
            assert trace.seed.shape == (n,)
            assert np.array_equal(np.sort(trace.seed), d)
            assert len(trace.steps) <= n - 1
            for step in trace.steps:
                assert isinstance(step, TwoModeStep)
                i, j = step.modes
                assert i != j and {i, j} <= set(range(n))
                assert step.transform.shape == (4, 4)
                SymplecticTransform(step.transform)

    def test_gate_runs_once_per_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return check_mixed(*args, **kwargs)

        monkeypatch.setattr(synthesis, "check_mixed", counted)
        c, d = ramp_pair(np.random.default_rng(64), 64)
        trace = synthesize(c, d)
        assert len(calls) == 1
        assert len(trace.steps) == 63

    @pytest.mark.parametrize("family, sizes", [
        (interval_branch_pair, range(10, 65, 6)),
        (ramp_pair, [64]),
    ], ids=["interval-branch", "ramp"])
    def test_large_pairs_reproduce_their_targets(self, family, sizes):
        rng = np.random.default_rng(47)
        for n in sizes:
            for _ in range(3):
                c, d = family(rng, n)
                assert synthesis_defect(synthesize(c, d), c, d) <= C2_BOUND

    def test_feasibility_of_every_recorded_seed(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            c, d = sample_feasible_pair(rng, n)
            trace = synthesize(c, d)
            assert all(v > 0 for v in trace.seed)


class TestSynthesizePure:
    def test_zero_vector_gives_identity(self):
        trace = synthesize_pure(np.zeros(3))
        assert np.array_equal(trace.final_matrix.entries, np.eye(6))

    def test_two_mode_squeezed(self):
        trace = synthesize_pure([1.0, 1.0])
        c = local_diagonal(trace.final_matrix).values.values
        np.testing.assert_allclose(c, [2.0, 2.0], atol=1e-10)
        _, d = williamson(trace.final_matrix)
        np.testing.assert_allclose(d.values, [1.0, 1.0], atol=1e-10)

    def test_cone_boundary(self):
        trace = synthesize_pure([1.0, 1.0, 2.0])
        _, d = williamson(trace.final_matrix)
        assert np.max(np.abs(d.values - 1.0)) <= 1e-7
        det = np.linalg.det(trace.final_matrix.entries)
        assert det == pytest.approx(1.0, rel=1e-6)

    def test_rejects_outside_cone(self):
        with pytest.raises(Infeasible):
            synthesize_pure([0.0, 0.0, 1.0])

    def test_same_witness_from_a_list_a_tuple_and_an_array(self):
        b = [0.3, 1.7, 0.9, 1.1]
        witnesses = [synthesize_pure(v).final_matrix.entries
                     for v in (b, tuple(b), np.array(b))]
        for other in witnesses[1:]:
            assert np.array_equal(other, witnesses[0])


class TestSampler:
    def test_sampled_pairs_are_feasible(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            c, d = sample_feasible_pair(rng, n)
            assert check_mixed(c, d).feasible
