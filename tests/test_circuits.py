import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modematch import (
    CovarianceMatrix,
    SpectrumVector,
    circuit_from_matrix,
    circuit_from_mixed,
    circuit_from_pure,
    entropy_report,
    euler_decompose,
    local_diagonal,
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
    orthosymplectic_to_unitary,
)
from modematch.core import (
    interleaved_diagonal,
    relative_defect,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_inverse,
    unitary_to_orthosymplectic,
    williamson,
)
from modematch.errors import InvalidInput
from modematch.matrixio import format_matrix, parse_matrix
from modematch.synthesis import SynthesisTrace, TwoModeStep
from modematch.verify import random_physical_covariance


def elements_to_unitary(elements, n):
    """Left-to-right product of the listed passive elements, each changing
    only the columns of its modes: the dense reference for the row updates
    of the mesh and the replay."""
    U = np.eye(n, dtype=complex)
    for el in elements:
        if isinstance(el, Rotation):
            ct, st, ph = np.cos(el.theta), np.sin(el.theta), np.exp(1j * el.phi)
            modes, u = list(el.modes), np.array([[ct, -ph * st], [st / ph, ct]])
        else:
            modes, u = [el.mode], np.array([[np.exp(1j * el.alpha)]])
        U[:, modes] = U[:, modes] @ u
    return U


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
        assert circuit.elements == ()
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
            gamma = random_physical_covariance(rng, n, 3.0)
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
        assert circuit.elements == ()
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
        gate = trace.steps[0].transform.copy()
        gate[0, 0] += 1e-4
        with pytest.raises(InvalidInput, match="symplectic defect"):
            SynthesisTrace(trace.n, trace.seed,
                           (TwoModeStep(trace.steps[0].modes, gate), *trace.steps[1:]))


class TestSeedDecides:
    """A circuit's seed obeys the uncertainty bound and gives its source."""

    def test_the_source_is_read_off_the_seed(self):
        assert [f.name for f in dataclasses.fields(PreparationCircuit)] == ["n", "seed", "elements"]
        assert PreparationCircuit(n=2, seed=[1.0, 1.0]).source == "pure_OPO"
        assert PreparationCircuit(n=2, seed=[1.0, 1.5]).source == "mixed_OQV"
        with pytest.raises(TypeError):
            PreparationCircuit(n=1, seed=[2.0], source="mixed_OQV")

    def test_a_seed_below_the_vacuum_is_refused(self):
        with pytest.raises(InvalidInput, match=r"circuit line 2: seed \[0.5\] .*uncertainty bound"):
            parse_circuit("n 1\nseed 0.5\n")
        with pytest.raises(InvalidInput, match=r"seed \[0.5\] .*uncertainty bound"):
            PreparationCircuit(n=1, seed=[0.5])

    @pytest.mark.parametrize("text, gives", [
        ("n 1\nsource pure_OPO\nseed 2\n", "mixed_OQV"),
        ("n 2\nsource mixed_OQV\nseed 1 1\n", "pure_OPO"),
    ], ids=["pure-on-thermal", "mixed-on-vacuum"])
    def test_a_source_line_must_name_the_seeds_source(self, text, gives):
        named = text.split()[3]
        with pytest.raises(InvalidInput, match=f"source {named} does not match .* {gives} seed"):
            parse_circuit(text)

    def test_without_a_source_line_the_seed_gives_it(self):
        for seed, source in (("1 1", "pure_OPO"), ("1 2", "mixed_OQV")):
            circuit = parse_circuit(f"n 2\nseed {seed}\n")
            assert circuit.source == source
            assert serialize_circuit(circuit).splitlines()[1] == f"source {source}"

    def test_a_vacuum_seeded_trace_gives_a_pure_circuit(self):
        circuit = circuit_from_mixed(synthesize_pure([1.0, 1.0]))
        assert circuit.source == "pure_OPO"
        text = serialize_circuit(circuit)
        parsed = parse_circuit(text)
        assert parsed.source == "pure_OPO"
        assert serialize_circuit(parsed) == text


@st.composite
def squeezer_targets(draw):
    """A target and its trace, or None for a drawn covariance: a ramp
    witness, a pure target with some b_j = 0, the vacuum, or a random
    physical covariance."""
    kind = draw(st.sampled_from(["ramp", "pure", "vacuum", "random"]))
    n = draw(st.integers(8, 40) if kind == "ramp" else st.integers(1, 6))
    if kind == "ramp":
        d = np.linspace(1.0, 3.0, n)
        trace = synthesize(d + 0.5 * np.arange(n) / n, d)
    elif kind == "pure":
        # the largest b is repeated, so it is at most the sum of the others
        b = draw(st.lists(st.floats(0.1, 4.0), min_size=1, max_size=5))
        trace = synthesize_pure([0.0] * n + b + [max(b)])
    elif kind == "vacuum":
        trace = synthesize([1.0] * n, [1.0] * n)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return random_physical_covariance(rng, n, 3.0), None
    return trace.final_matrix, trace


def squeezed_planes(transforms):
    return sum(int(np.sum(euler_decompose(T).z > 1.0)) for T in transforms)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(target=squeezer_targets())
def test_one_squeezer_per_squeezed_plane(target):
    """On both routes every squeezer has z > 1, and there is one for each
    squeezed plane of the Euler factors the route emits: none for a unit plane."""
    gamma, trace = target
    routes = [(circuit_from_matrix(gamma), [symplectic_inverse(williamson(gamma)[0].entries)])]
    if trace is not None:
        routes.append((circuit_from_mixed(trace), [step.transform for step in trace.steps]))
    for circuit, transforms in routes:
        assert all(sq.z > 1.0 for sq in circuit.squeezers)
        assert len(circuit.squeezers) == squeezed_planes(transforms)


class TestFrozenRecords:
    """A built circuit or trace cannot be edited out of the rule it passed."""

    @pytest.fixture
    def records(self):
        trace = synthesize([1.5, 2.5], [1.0, 2.0])
        return circuit_from_mixed(trace), trace

    def test_elements_cannot_grow(self, records):
        circuit, _ = records
        with pytest.raises(AttributeError):
            circuit.elements.append(Squeezer(-1, 4.0))

    def test_squeezer_cannot_be_reset(self, records):
        circuit, _ = records
        with pytest.raises(dataclasses.FrozenInstanceError):
            circuit.squeezers[0].z = -1.0

    def test_trace_steps_cannot_be_replaced(self, records):
        _, trace = records
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.steps = ()

    def test_gate_and_seeds_are_read_only(self, records):
        circuit, trace = records
        for array in (trace.steps[0].transform, trace.seed, circuit.seed):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    def test_replace_runs_the_rule_again(self, records):
        circuit, _ = records
        with pytest.raises(InvalidInput, match="mode -1 is outside 0..1"):
            dataclasses.replace(circuit, elements=(Squeezer(-1, 4.0),))

    def test_a_seed_is_copied_when_built(self):
        seed = np.array([1.5, 2.5])
        circuit = PreparationCircuit(n=2, seed=seed)
        seed[0] = -1.0
        assert circuit.seed.tolist() == [1.5, 2.5]

    def test_modes_are_tuples(self):
        # a list of modes could be edited after the rule checked it
        with pytest.raises(InvalidInput, match="tuple of two distinct modes"):
            PreparationCircuit(n=2, seed=np.ones(2), elements=[Rotation([0, 1], 0.3, 0.0)])
        with pytest.raises(InvalidInput, match="tuple of two distinct modes"):
            SynthesisTrace(n=2, seed=np.ones(2), steps=[TwoModeStep([0, 1], np.eye(4))])


# each builds a record that holds an array, the same record on every call
ARRAY_RECORDS = {
    "circuit": lambda: PreparationCircuit(n=2, seed=np.ones(2), elements=[Squeezer(0, 2.0)]),
    "trace": lambda: synthesize([1.5, 2.5], [1.0, 2.0]),
    "step": lambda: TwoModeStep((0, 1), np.eye(4)),
    "spectrum": lambda: SpectrumVector([1.0, 2.0]),
    "local-diagonal": lambda: local_diagonal(np.eye(4)),
    "euler-factors": lambda: euler_decompose(np.eye(4)),
    "entropy-report": lambda: entropy_report([1.5, 2.0]),
    "matrix-file": lambda: parse_matrix(format_matrix(np.eye(2), "covariance")),
}


@pytest.mark.parametrize("build", ARRAY_RECORDS.values(), ids=ARRAY_RECORDS.keys())
def test_records_holding_arrays_compare_by_identity(build):
    record, twin = build(), build()
    assert record == record and record != twin
    assert hash(record) == hash(record) != hash(twin)


def test_elements_compare_by_value():
    assert Rotation((0, 1), 0.3, 0.0) == Rotation((0, 1), 0.3, 0.0)
    assert hash(Squeezer(0, 2.0)) == hash(Squeezer(0, 2.0))


class TestActingOrder:
    def test_elements_act_in_list_order(self):
        # a squeezer listed before a rotation acts first: R Q diag(seed) Q^T R^T
        z, theta, phi = 3.0, 0.4, 0.7
        circuit = PreparationCircuit(n=2, seed=[1.5, 2.5], elements=[
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
        gamma = random_physical_covariance(np.random.default_rng(77), n, 3.0)
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
    def test_fraction_values_write_as_their_floats(self):
        # an element keeps the real value it was given; a Fraction has no
        # float format code before Python 3.12
        def build(value):
            return PreparationCircuit(n=2, seed=[1.0, 1.0], elements=[
                Squeezer(0, value(9, 4)), Rotation((0, 1), value(1, 3), value(-1, 7)),
                PhaseShift(1, value(5, 2))])

        text = serialize_circuit(build(Fraction))
        assert text == serialize_circuit(build(lambda a, b: a / b))
        assert serialize_circuit(parse_circuit(text)) == text

    def test_round_trip_exact(self):
        # every builder's output: the per-gate circuit of a trace, and the
        # dense circuit of a pure and of a mixed target for n = 1..6
        rng = np.random.default_rng(71)
        c, d = sample_feasible_pair(rng, 4, physical=True)
        circuits = [circuit_from_mixed(synthesize(c, d))]
        for n in range(1, 7):
            circuits += [circuit_from_matrix(random_pure(rng, n)),
                         circuit_from_matrix(random_physical_covariance(rng, n, 3.0))]
        assert [circ.source for circ in circuits[1:3]] == ["pure_OPO", "mixed_OQV"]
        for circuit in circuits:
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
            text = f"n 2\nsource pure_OPO\nseed {seed}\n{element}\n"
            bad_line = 4 if seed == "1 1" else 3
        with pytest.raises(ValueError, match=f"circuit line {bad_line}:"):
            parse_circuit(text)

    @pytest.mark.parametrize("element, message", [
        ("rotation modes=0,1 theta=0.1 theta=0.7 phi=0", "rotation repeats the field theta"),
        ("squeezer mode=0 z=2 z=3", "squeezer repeats the field z"),
        ("squeezer mode=0 z", "squeezer field 'z' is not of the form key=value"),
    ])
    def test_parse_names_a_repeated_or_bare_field(self, element, message):
        text = f"n 2\nsource pure_OPO\nseed 1 1\n{element}\n"
        with pytest.raises(ValueError, match=f"circuit line 4: {message}"):
            parse_circuit(text)

    @pytest.mark.parametrize("element", [
        "squeezer mode=0 z=2 orientation=x",
        "squeezer mode=0 z=2 orientation=q",
        "rotation stage=post modes=0,1 theta=0.1 phi=0",
        "phase stage=pre mode=0 alpha=0.3",
    ])
    def test_parse_rejects_the_old_staged_format(self, element):
        text = f"n 2\nsource pure_OPO\nseed 1 1\n{element}\n"
        with pytest.raises(ValueError, match="circuit line 4: .*re-run prepare"):
            parse_circuit(text)

    def test_the_first_failing_line_is_named(self):
        # a bad value before a bad record, and before a missing seed
        with pytest.raises(ValueError, match="circuit line 3: mode 5 is outside 0..1"):
            parse_circuit("n 2\nseed 1 1\nsqueezer mode=5 z=2\nbogus\n")
        with pytest.raises(ValueError, match="circuit line 2: .*z=-1.0.*z finite and positive"):
            parse_circuit("n 2\nsqueezer mode=0 z=-1\n")

    @pytest.mark.parametrize("text, bad_line", [
        ("n 1_0\nseed 1\n", 1),
        ("n 2\nseed 1 1_0\n", 2),
        ("n 2\nseed 1 1\nsqueezer mode=0 z=1_5\n", 3),
        ("n 2\nseed 1 1\nphase mode=0_0 alpha=0.3\n", 3),
        ("n 2\nseed 1 1\nrotation modes=0,1_0 theta=0.1 phi=0\n", 3),
        ("n 2\nseed 1 1\nrotation modes=0,1 theta=\u0661 phi=0\n", 3),
    ], ids=["n", "seed", "value", "mode", "modes", "non-ascii-value"])
    def test_parse_reads_numbers_under_the_text_rule(self, text, bad_line):
        # int() and float() read each bad token; the format holds ASCII decimals without '_'
        message = f"circuit line {bad_line}: .* is not an ASCII decimal without '_'"
        with pytest.raises(InvalidInput, match=message):
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

    @pytest.mark.parametrize("element, line", [
        (Squeezer(1, 2), "squeezer mode=1 z=2"),
        (Squeezer(np.int64(1), np.int64(3)), "squeezer mode=1 z=3"),
        (Squeezer(0, Fraction(9, 4)), "squeezer mode=0 z=2.25"),
        (Squeezer(0, np.float64(0.1)), "squeezer mode=0 z=0.10000000000000001"),
        (Rotation((np.int64(0), np.int64(1)), Fraction(1, 3), Fraction(-1, 7)),
         "rotation modes=0,1 theta=0.33333333333333331 phi=-0.14285714285714285"),
        (Rotation((1, 0), 1, np.float64(-2.5)), "rotation modes=1,0 theta=1 phi=-2.5"),
        (PhaseShift(1, np.float64(0.1)), "phase mode=1 alpha=0.10000000000000001"),
        (PhaseShift(np.int64(0), Fraction(5, 2)), "phase mode=0 alpha=2.5"),
        (PhaseShift(0, -3), "phase mode=0 alpha=-3"),
    ])
    def test_each_value_type_writes_a_fixed_line(self, element, line):
        # modes are written as integers and values as their floats, whatever
        # real type the element holds
        text = serialize_circuit(PreparationCircuit(n=2, seed=[1.0, 1.0], elements=[element]))
        assert text.splitlines()[3] == line
        assert serialize_circuit(parse_circuit(text)) == text

    @pytest.mark.parametrize("bad, message", [
        ("squeezer mode=0 z=-1", "z=-1.0.*z finite and positive"),
        ("phase mode=2 alpha=0", "mode 2 is outside 0..1"),
        ("rotation modes=1,1 theta=0 phi=0", "tuple of two distinct modes"),
    ])
    def test_a_bad_last_line_fails_as_it_is_read(self, monkeypatch, bad, message):
        # each line is checked when read, so no circuit is built on the way
        built, check = [], PreparationCircuit.__post_init__
        monkeypatch.setattr(PreparationCircuit, "__post_init__",
                            lambda circuit: built.append(check(circuit)))
        lines = [f"phase mode={k % 2} alpha=0.{k}" for k in range(999)]
        text = "\n".join(["n 2", "source pure_OPO", "seed 1 1", *lines, bad]) + "\n"
        with pytest.raises(InvalidInput, match=f"circuit line 1003: .*{message}"):
            parse_circuit(text)
        assert built == []
        assert len(parse_circuit(text.replace(bad, lines[0])).elements) == 1000
        assert len(built) == 1
