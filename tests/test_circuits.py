import numpy as np
import pytest

from modematch import (
    CovarianceMatrix,
    circuit_from_matrix,
    circuit_from_mixed,
    circuit_from_pure,
    parse_circuit,
    passive_to_two_mode_rotations,
    random_symplectic,
    replay_circuit,
    sample_feasible_pair,
    serialize_circuit,
    synthesize,
    synthesize_pure,
)
from modematch.circuits import (
    PhaseShift,
    PreparationCircuit,
    Rotation,
    Squeezer,
    elements_to_unitary,
    orthosymplectic_to_unitary,
)
from modematch.core import (
    interleaved_diagonal,
    relative_defect,
    symplectic_eigenvalues,
    symplectic_form,
    unitary_to_orthosymplectic,
    williamson,
)
from modematch.errors import InvalidInput
from modematch.verify import random_physical_covariance


def haar_unitary(n, rng):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng, n, squeeze_bound=3.0):
    S = random_symplectic(n, squeeze_bound, rng)
    return CovarianceMatrix(S.entries @ S.entries.T)


class TestUnitaryCorrespondence:
    def test_round_trip(self):
        rng = np.random.default_rng(51)
        for n in (1, 2, 4, 6):
            U = haar_unitary(n, rng)
            O = unitary_to_orthosymplectic(U)
            sig = symplectic_form(n)
            assert np.max(np.abs(O @ O.T - np.eye(2 * n))) <= 1e-12
            assert np.max(np.abs(O @ sig @ O.T - sig)) <= 1e-12
            np.testing.assert_allclose(orthosymplectic_to_unitary(O), U, atol=1e-12)

    def test_products_map_to_products(self):
        rng = np.random.default_rng(53)
        U, W = haar_unitary(3, rng), haar_unitary(3, rng)
        np.testing.assert_allclose(
            unitary_to_orthosymplectic(U @ W),
            unitary_to_orthosymplectic(U) @ unitary_to_orthosymplectic(W),
            atol=1e-12,
        )

    def test_rejects_active_transform(self):
        with pytest.raises(InvalidInput):
            orthosymplectic_to_unitary(np.diag([2.0, 0.5]))


class TestPassiveBreakdown:
    def test_identity_gives_empty_list(self):
        assert passive_to_two_mode_rotations(np.eye(8)) == []

    def test_single_rotation_is_already_elementary(self):
        theta = 0.3
        U = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        elements = passive_to_two_mode_rotations(unitary_to_orthosymplectic(U))
        rotations = [el for el in elements if isinstance(el, Rotation)]
        assert len(rotations) == 1
        assert abs(abs(rotations[0].theta) - theta) <= 1e-12
        np.testing.assert_allclose(elements_to_unitary(elements, 2), U, atol=1e-12)

    def test_random_reconstruction_and_count(self):
        rng = np.random.default_rng(57)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            U = haar_unitary(n, rng)
            O = unitary_to_orthosymplectic(U)
            elements = passive_to_two_mode_rotations(O)
            assert len(elements) <= n * (n - 1) // 2 + n
            rebuilt = unitary_to_orthosymplectic(elements_to_unitary(elements, n))
            assert np.max(np.abs(rebuilt - O)) <= 1e-8

    def test_element_product_matches_dense_reference(self):
        # reference: one full n x n matrix per element, multiplied left to right
        rng = np.random.default_rng(61)
        n = 6
        elements = []
        for _ in range(30):
            i = int(rng.integers(0, n))
            if rng.random() < 0.7:
                j = int(rng.choice([m for m in range(n) if m != i]))
                elements.append(Rotation((i, j), rng.uniform(-3, 3), rng.uniform(-3, 3)))
            else:
                elements.append(PhaseShift(i, rng.uniform(-3, 3)))
        expected = np.eye(n, dtype=complex)
        for el in elements:
            M = np.eye(n, dtype=complex)
            if isinstance(el, Rotation):
                i, j = el.modes
                ct, st, ph = np.cos(el.theta), np.sin(el.theta), np.exp(1j * el.phi)
                M[i, i] = M[j, j] = ct
                M[i, j] = -ph * st
                M[j, i] = st / ph
            else:
                M[el.mode, el.mode] = np.exp(1j * el.alpha)
            expected = expected @ M
        np.testing.assert_allclose(elements_to_unitary(elements, n), expected,
                                   rtol=0, atol=1e-13)

    def test_modes_relabel_the_default_sweep(self):
        rng = np.random.default_rng(67)
        total = 7
        for n in (1, 2, 3, 5):
            modes = [int(m) for m in rng.permutation(total)[:n]]
            U = haar_unitary(n, rng)
            O = unitary_to_orthosymplectic(U)
            expected = [Rotation((modes[el.modes[0]], modes[el.modes[1]]), el.theta, el.phi)
                        if isinstance(el, Rotation) else PhaseShift(modes[el.mode], el.alpha)
                        for el in passive_to_two_mode_rotations(O)]
            elements = passive_to_two_mode_rotations(O, modes)
            assert elements == expected
            embedded = np.eye(total, dtype=complex)
            embedded[np.ix_(modes, modes)] = U
            np.testing.assert_allclose(elements_to_unitary(elements, total), embedded,
                                       rtol=0, atol=1e-10)

    def test_five_mode_bound(self):
        rng = np.random.default_rng(59)
        U = haar_unitary(5, rng)
        elements = passive_to_two_mode_rotations(unitary_to_orthosymplectic(U))
        rotations = [el for el in elements if isinstance(el, Rotation)]
        assert len(rotations) <= 10
        rebuilt = elements_to_unitary(elements, 5)
        assert np.max(np.abs(rebuilt - U)) <= 1e-8


class TestCircuitFromPure:
    def test_vacuum_circuit_is_empty(self):
        circuit = circuit_from_pure(np.eye(4))
        assert [sq.z for sq in circuit.squeezers] == [1.0, 1.0]
        assert circuit.passive_ops == []
        np.testing.assert_allclose(replay_circuit(circuit), np.eye(4))

    def test_two_mode_squeezed_parameters(self):
        trace = synthesize_pure([1.0, 1.0])
        circuit = circuit_from_pure(trace.final_matrix)
        expected = 2.0 + np.sqrt(3.0)
        for sq in circuit.squeezers:
            assert sq.z == pytest.approx(expected, rel=1e-10)
        rotations = [el for el in circuit.passive_ops if isinstance(el, Rotation)]
        assert len(rotations) == 1
        # balanced mixer: both output modes take half of each input
        assert np.cos(rotations[0].theta) ** 2 == pytest.approx(0.5, abs=1e-9)
        defect = np.max(np.abs(replay_circuit(circuit) - trace.final_matrix.entries))
        assert defect <= 1e-9

    def test_random_pure_targets_replay(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            gamma = random_pure(rng, 4)
            circuit = circuit_from_pure(gamma)
            scale = max(1.0, np.max(np.abs(gamma.entries)))
            defect = np.max(np.abs(replay_circuit(circuit) - gamma.entries)) / scale
            assert defect <= 1e-7

    def test_passive_elements_preserve_trace_and_spectrum(self):
        rng = np.random.default_rng(63)
        gamma = random_pure(rng, 3)
        circuit = circuit_from_pure(gamma)
        U = elements_to_unitary(circuit.passive_ops, 3)
        O = unitary_to_orthosymplectic(U)
        moved = O @ gamma.entries @ O.T
        assert abs(np.trace(moved) - np.trace(gamma.entries)) <= 1e-10 * np.trace(gamma.entries)
        assert abs(sum(symplectic_eigenvalues(moved)) - sum(symplectic_eigenvalues(gamma))) <= 1e-8

    def test_rejects_mixed_and_unphysical(self):
        with pytest.raises(InvalidInput):
            circuit_from_pure(np.diag([2.0, 2.0]))
        with pytest.raises(InvalidInput):
            circuit_from_pure(0.5 * np.eye(2))


class TestCircuitFromMatrix:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_mixed_targets_replay_as_themselves(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(5):
            gamma, _, _ = random_physical_covariance(rng, n, 3.0)
            circuit = circuit_from_matrix(gamma)
            assert circuit.source == "mixed_OQV"
            assert relative_defect(replay_circuit(circuit) - gamma.entries,
                                   gamma.entries) <= 1e-8
            assert len(circuit.squeezers) == n
            np.testing.assert_array_equal(circuit.seed, williamson(gamma)[1].values)
            # two Reck meshes, V's and O's
            assert len(circuit.passive_ops) <= n * (n - 1) + 2 * n

    def test_pure_targets_match_the_pure_builder(self):
        rng = np.random.default_rng(20240821)
        for trial in range(30):
            n = 1 + trial % 6
            S = random_symplectic(n, 3.0, rng)
            gamma = CovarianceMatrix(S.entries @ S.entries.T)
            assert (serialize_circuit(circuit_from_matrix(gamma))
                    == serialize_circuit(circuit_from_pure(gamma)))


class TestCircuitFromMixed:
    def test_equal_pair_gives_bare_seed(self):
        trace = synthesize([1.5, 2.5], [1.5, 2.5])
        circuit = circuit_from_mixed(trace)
        assert circuit.elements == []
        assert circuit.passive_ops == []
        assert all(sq.z == 1.0 for sq in circuit.squeezers)
        np.testing.assert_allclose(replay_circuit(circuit),
                                   interleaved_diagonal([1.5, 2.5]))

    def test_matches_pure_route_on_pure_target(self):
        trace = synthesize([2.0, 2.0], [1.0, 1.0])
        mixed_circuit = circuit_from_mixed(trace)
        pure_circuit = circuit_from_pure(trace.final_matrix)
        target = trace.final_matrix.entries
        assert np.max(np.abs(replay_circuit(mixed_circuit) - target)) <= 1e-8
        assert np.max(np.abs(replay_circuit(pure_circuit) - target)) <= 1e-8

    def test_random_mixed_targets_replay(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            c, d = sample_feasible_pair(rng, 5, physical=True)
            trace = synthesize(c, d)
            circuit = circuit_from_mixed(trace)
            target = trace.final_matrix.entries
            scale = max(1.0, np.max(np.abs(target)))
            assert np.max(np.abs(replay_circuit(circuit) - target)) / scale <= 1e-7
            # each of the n - 1 gates gives at most 2 squeezers, 2 rotations, 4 phases
            assert len(circuit.elements) <= 8 * (5 - 1)

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_element_count_grows_linearly(self, n):
        d = np.linspace(1.0, 3.0, n)
        trace = synthesize(d + 0.5 * np.arange(n) / n, d)
        circuit = circuit_from_mixed(trace)
        assert len(circuit.elements) <= 8 * (n - 1)
        target = trace.final_matrix.entries
        scale = max(1.0, np.max(np.abs(target)))
        assert np.max(np.abs(replay_circuit(circuit) - target)) / scale <= 1e-8

    def test_perturbed_gate_is_an_invalid_trace(self):
        rng = np.random.default_rng(69)
        c, d = sample_feasible_pair(rng, 4, physical=True)
        trace = synthesize(c, d)
        gate = trace.steps[0]
        gate.transform = gate.transform.copy()
        gate.transform[0, 0] += 1e-4
        with pytest.raises(InvalidInput, match="does not replay"):
            circuit_from_mixed(trace)


class TestActingOrder:
    def test_elements_act_in_list_order(self):
        # a squeezer listed before a rotation acts first: R Q diag(seed) Q^T R^T
        z, theta, phi = 3.0, 0.4, 0.7
        circuit = PreparationCircuit(n=2, seed=[1.5, 2.5], source="mixed_OQV", elements=[
            Squeezer(0, z), Rotation((0, 1), theta, phi)])
        ct, st, ph = np.cos(theta), np.sin(theta), np.exp(1j * phi)
        R = unitary_to_orthosymplectic(np.array([[ct, -ph * st], [st / ph, ct]]))
        Q = np.diag([np.sqrt(z), 1 / np.sqrt(z), 1.0, 1.0])
        D = interleaved_diagonal([1.5, 2.5])
        expected = R @ Q @ D @ Q.T @ R.T
        wrong_order = Q @ R @ D @ R.T @ Q.T
        assert np.max(np.abs(expected - wrong_order)) > 0.1
        np.testing.assert_allclose(replay_circuit(circuit), expected, rtol=0, atol=1e-13)

    def test_dense_replay_matches_mesh_products(self):
        # the complex-row replay against dense products in the documented
        # convention: each mesh is its elements' unitary, first-acting
        # element rightmost, then embedded; the squeezers sit between
        n = 24
        gamma, _, _ = random_physical_covariance(np.random.default_rng(77), n, 3.0)
        circuit = circuit_from_matrix(gamma)
        kinds = [isinstance(el, Squeezer) for el in circuit.elements]
        first, last = kinds.index(True), len(kinds) - kinds[::-1].index(True)
        V_mesh, O_mesh = circuit.elements[:first], circuit.elements[last:]
        assert len(V_mesh) > n and len(O_mesh) > n and last - first == n

        def mesh(elements):
            return unitary_to_orthosymplectic(elements_to_unitary(elements[::-1], n))

        z = np.array([sq.z for sq in sorted(circuit.squeezers, key=lambda sq: sq.mode)])
        Q = np.diag(np.ravel(np.column_stack([np.sqrt(z), 1 / np.sqrt(z)])))
        S = mesh(O_mesh) @ Q @ mesh(V_mesh)
        expected = S @ interleaved_diagonal(circuit.seed) @ S.T
        assert relative_defect(replay_circuit(circuit) - expected, expected) <= 1e-13

    def test_views_split_the_element_list(self):
        rng = np.random.default_rng(73)
        c, d = sample_feasible_pair(rng, 4, physical=True)
        circuit = circuit_from_mixed(synthesize(c, d))
        assert circuit.squeezers == [el for el in circuit.elements if isinstance(el, Squeezer)]
        assert len(circuit.squeezers) + len(circuit.passive_ops) == len(circuit.elements)


class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(71)
        c, d = sample_feasible_pair(rng, 4, physical=True)
        circuit = circuit_from_mixed(synthesize(c, d))
        text = serialize_circuit(circuit)
        parsed = parse_circuit(text)
        assert parsed.n == circuit.n
        assert parsed.source == circuit.source
        assert np.array_equal(parsed.seed, circuit.seed)
        assert serialize_circuit(parsed) == text
        np.testing.assert_allclose(replay_circuit(parsed), replay_circuit(circuit),
                                   atol=0, rtol=0)

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_circuit("n 2\nsource pure_OPO\n")
        with pytest.raises(ValueError):
            parse_circuit("n 2\nsource x\nseed 1 1\nsqueezer mode=0\n")

    @pytest.mark.parametrize("seed, element", [
        ("1 1", "squeezer mode=0 z=-4"),
        ("1 1", "squeezer mode=0 z=0"),
        ("1 1", "squeezer mode=0 z=inf"),
        ("1 1", "squeezer mode=0 z=nan"),
        ("1 1", "squeezer mode=2 z=2"),
        ("1 1", "rotation modes=0,5 theta=0.1 phi=0"),
        ("1 1", "rotation modes=1,1 theta=0.1 phi=0"),
        ("1 1", "rotation modes=0 theta=0.1 phi=0"),
        ("1 1", "rotation modes=0,1 theta=nan phi=0"),
        ("1 1", "rotation modes=0,1 theta=0.1 phi=inf"),
        ("1 1", "phase mode=-1 alpha=0.3"),
        ("1 1", "phase mode=0 alpha=-inf"),
        ("1 1", "phase mode=0 alpha=0.3 extra=1"),
        ("1 1", "rotation modes=0,1 theta=0.1 theta=0.7 phi=0"),
        ("1 1", "squeezer mode=0 z=2 z=3"),
        ("1 1", "squeezer mode=0 z"),
        ("1 nan", "squeezer mode=0 z=2"),
        ("1 -1", "squeezer mode=0 z=2"),
        ("1 1 1", "squeezer mode=0 z=2"),
        ("1 1", "n 1"),
        ("1 1", "seed 2 2"),
        (None, "n 2 7"),
        (None, "n 2\nsource bogus"),
        (None, "n 2\nsource mixed_OQV extra"),
        (None, "n 2\nsource bogus extra"),
    ])
    def test_parse_rejects_invalid_records_by_line(self, seed, element):
        if seed is None:
            # the last line of element is a bad n or source record
            text, bad_line = f"{element}\nseed 1 1\n", element.count("\n") + 1
        else:
            text = f"n 2\nsource mixed_OQV\nseed {seed}\n{element}\n"
            bad_line = 4 if seed == "1 1" else 3
        with pytest.raises(ValueError, match=f"circuit line {bad_line}:"):
            parse_circuit(text)

    @pytest.mark.parametrize("element, message", [
        ("rotation modes=0,1 theta=0.1 theta=0.7 phi=0", "rotation repeats the field theta"),
        ("squeezer mode=0 z=2 z=3", "squeezer repeats the field z"),
        ("squeezer mode=0 z", "squeezer field 'z' is not of the form key=value"),
    ])
    def test_parse_names_a_repeated_or_bare_field(self, element, message):
        text = f"n 2\nsource mixed_OQV\nseed 1 1\n{element}\n"
        with pytest.raises(ValueError, match=f"circuit line 4: {message}"):
            parse_circuit(text)

    @pytest.mark.parametrize("element", [
        "squeezer mode=0 z=2 orientation=x",
        "squeezer mode=0 z=2 orientation=q",
        "rotation stage=post modes=0,1 theta=0.1 phi=0",
        "phase stage=pre mode=0 alpha=0.3",
    ])
    def test_parse_rejects_the_old_staged_format(self, element):
        text = f"n 2\nsource mixed_OQV\nseed 1 1\n{element}\n"
        with pytest.raises(ValueError, match="circuit line 4: .*re-run prepare"):
            parse_circuit(text)

    def test_element_before_mode_count_is_rejected(self):
        with pytest.raises(ValueError, match="circuit line 1:"):
            parse_circuit("squeezer mode=0 z=2\nn 1\nseed 1\n")

    def test_lines_follow_the_element_order(self):
        rng = np.random.default_rng(75)
        c, d = sample_feasible_pair(rng, 4, physical=True)
        circuit = circuit_from_mixed(synthesize(c, d))
        heads = [line.split()[0] for line in serialize_circuit(circuit).splitlines()[3:]]
        assert heads == [type(el).__name__.lower().replace("phaseshift", "phase")
                         for el in circuit.elements]
        assert "stage=" not in serialize_circuit(circuit)
        assert "orientation=" not in serialize_circuit(circuit)
