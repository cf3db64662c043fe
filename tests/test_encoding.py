"""Encoding tests: amplitude normalization, feature-map circuit structure."""
import math

import numpy as np
import pytest
from helpers import feature_map_circuit

from qshield.encoding import (
    FeatureMapSpec,
    amplitude_encode,
    apply_feature_map,
    as_feature_array,
    encode_amplitude_rows,
    feature_map_circuit as batched_feature_map_circuit,
    feature_map_states,
)
from qshield.errors import (
    ConfigError,
    DegenerateInputError,
    InvalidInputError,
    ShapeError,
)
from qshield.statevector import evolve, inner_product, new_zero_state, run_circuit


def kron_chain(*mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


class TestAmplitudeEncode:
    def test_one_hot(self):
        state = amplitude_encode([1.0, 0.0, 0.0, 0.0])
        assert state.n_qubits == 2
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_three_four_normalizes(self):
        state = amplitude_encode([3.0, 4.0])
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8], atol=1e-15)

    def test_pads_to_power_of_two(self):
        state = amplitude_encode([1.0, 1.0, 1.0])
        assert state.n_qubits == 2
        inv = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(state.amplitudes, [inv, inv, inv, 0.0], atol=1e-15)

    def test_single_feature_needs_one_qubit(self):
        state = amplitude_encode([2.0])
        assert state.n_qubits == 1
        np.testing.assert_allclose(state.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            size = int(rng.integers(1, 20))
            x = rng.normal(size=size)
            if np.linalg.norm(x) < 1e-6:
                continue
            scale = float(rng.uniform(1e-6, 1e6))
            a = amplitude_encode(x)
            b = amplitude_encode(scale * x)
            np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-10)

    def test_unit_norm(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            state = amplitude_encode(rng.normal(size=int(rng.integers(1, 33))))
            assert abs(state.norm() - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            amplitude_encode([0.0, 0.0, 0.0])

    def test_tiny_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            amplitude_encode([1e-13, -1e-13])

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            amplitude_encode([1.0, float("nan")])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            amplitude_encode([])

    def test_rows_wider_than_the_register_rejected(self):
        with pytest.raises(ShapeError):
            encode_amplitude_rows(np.ones((3, 5)), 2)

    def test_features_beyond_the_qubit_cap_rejected(self):
        with pytest.raises(ShapeError, match="more than 20 qubits"):
            amplitude_encode(np.ones(2**20 + 1))

    def test_matrix_given_as_a_vector_rejected(self):
        with pytest.raises(ShapeError):
            as_feature_array(np.ones((2, 3)))

    def test_batch_is_real(self):
        rows = np.array([[3.0, 4.0, 0.0], [-1.0, 1.0, 1.0]])
        amps = encode_amplitude_rows(rows, 2)
        assert amps.dtype == np.float64
        np.testing.assert_array_equal(amps[:, :3], rows / np.linalg.norm(rows, axis=1)[:, None])
        np.testing.assert_array_equal(amps[:, 3], 0.0)


class TestFeatureMap:
    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            FeatureMapSpec(2, repetitions=0)

    def test_gate_structure(self):
        spec = FeatureMapSpec(3, repetitions=2)
        x = [0.1, 0.2, 0.3]
        circuit = feature_map_circuit(x, spec)
        # per repetition: 3 RY + 3 ring CNOTs
        assert len(circuit.gates) == 12
        kinds = [g.kind for g in circuit.gates]
        assert kinds == ["RY", "RY", "RY", "CNOT", "CNOT", "CNOT"] * 2
        # the batched encoder prepares the state this gate sequence prepares
        gate_level = run_circuit(new_zero_state(3), circuit)
        np.testing.assert_allclose(
            apply_feature_map(x, spec).amplitudes, gate_level.amplitudes, atol=1e-12
        )

    def test_single_qubit_has_no_ring(self):
        # two repetitions of RY(x) on one qubit compose to RY(2x)
        state = apply_feature_map([0.4], FeatureMapSpec(1, repetitions=2))
        np.testing.assert_allclose(state.amplitudes, [math.cos(0.4), math.sin(0.4)], atol=1e-15)

    def test_zero_features_give_zero_state(self):
        state = apply_feature_map([0.0, 0.0], FeatureMapSpec(2))
        expected = np.zeros(4)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_short_input_pads_with_identity_rotations(self):
        spec = FeatureMapSpec(3, repetitions=1)
        padded = apply_feature_map([0.7], spec)
        explicit = apply_feature_map([0.7, 0.0, 0.0], spec)
        np.testing.assert_allclose(padded.amplitudes, explicit.amplitudes, atol=1e-15)

    @pytest.mark.parametrize(
        "n, reps, entangling", [(2, 1, True), (3, 2, True), (4, 3, False), (5, 2, True)]
    )
    def test_short_rows_equal_zero_padded_rows(self, n, reps, entangling):
        # a missing feature gets no RY gate, and RY(0) is the identity, so the
        # states agree bit for bit except in the sign of a zero: RY(0) can turn
        # -0.0 into +0.0, and so does adding +0.0 before the bytes are compared
        rng = np.random.default_rng(n)
        spec = FeatureMapSpec(n, reps, entangling=entangling)
        for d in range(1, n):
            short = rng.uniform(-4.0, 4.0, (6, d))
            padded = np.zeros((6, n))
            padded[:, :d] = short
            kinds = [g.kind for g in batched_feature_map_circuit(short, spec).gates]
            assert kinds.count("RY") == d * reps
            a, b = feature_map_states(short, spec), feature_map_states(padded, spec)
            assert (a + 0.0).tobytes() == (b + 0.0).tobytes()

    @pytest.mark.parametrize(
        "n, reps, entangling, d",
        [(1, 2, True, 1), (3, 2, True, 3), (4, 3, False, 2), (6, 1, True, 6)],
    )
    def test_states_are_the_real_parts_of_the_complex_evolution(self, n, reps, entangling, d):
        # the float64 encoder equals evolve of a complex |0...0> through the same
        # gate list, whose imaginary parts are all zero; the two differ only in
        # the sign of some zeros, which adding +0.0 folds before the bytes compare
        rng = np.random.default_rng(n + d)
        spec = FeatureMapSpec(n, reps, entangling=entangling)
        features = rng.uniform(-6.0, 6.0, (25, d))
        states = feature_map_states(features, spec)
        assert states.dtype == np.float64
        zero = new_zero_state(n).amplitudes
        circuit = batched_feature_map_circuit(features, spec)
        oracle = evolve(np.broadcast_to(zero, (25, zero.size)), circuit)
        assert oracle.dtype == complex
        assert not oracle.imag.any()
        assert (states + 0.0).tobytes() == (oracle.real + 0.0).tobytes()

    def test_too_many_features(self):
        with pytest.raises(ShapeError):
            apply_feature_map([0.1, 0.2, 0.3], FeatureMapSpec(2))

    def test_pi_zero_routes_to_index_two(self):
        # x = (pi, 0), one repetition: RY(pi) flips qubit 0, the ring then
        # moves the excitation: CNOT(0,1) then CNOT(1,0) leaves qubit 1 set.
        spec = FeatureMapSpec(2, repetitions=1)
        state = apply_feature_map([math.pi, 0.0], spec)
        expected = np.zeros(4)
        expected[2] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_matches_dense_matrix_oracle(self):
        # independent route: build the full 4x4 unitary with kron products
        theta0, theta1 = 0.83, -1.21
        spec = FeatureMapSpec(2, repetitions=1)
        state = apply_feature_map([theta0, theta1], spec)

        def ry_matrix(t):
            return np.array(
                [[math.cos(t / 2), -math.sin(t / 2)], [math.sin(t / 2), math.cos(t / 2)]]
            )

        identity = np.eye(2)
        # qubit 0 is the low bit: a gate on qubit 0 is kron(I, M)
        layer = kron_chain(ry_matrix(theta1), identity) @ kron_chain(identity, ry_matrix(theta0))
        cnot_01 = np.array(  # control qubit 0, target qubit 1
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float
        )
        cnot_10 = np.array(  # control qubit 1, target qubit 0
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
        )
        expected = cnot_10 @ cnot_01 @ layer @ np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_distinct_inputs_have_fidelity_below_one(self):
        spec = FeatureMapSpec(2, repetitions=2)
        a = apply_feature_map([0.5, 0.2], spec)
        b = apply_feature_map([0.5 + math.pi, 0.2], spec)
        assert abs(inner_product(a, b)) ** 2 < 1.0 - 1e-6

    def test_injective_on_random_pairs(self):
        rng = np.random.default_rng(31)
        spec = FeatureMapSpec(3, repetitions=2)
        for _ in range(100):
            x = rng.uniform(-math.pi, math.pi, 3)
            y = rng.uniform(-math.pi, math.pi, 3)
            if np.abs(x - y).max() < 1e-3:
                continue
            a = apply_feature_map(x, spec)
            b = apply_feature_map(y, spec)
            assert abs(inner_product(a, b)) ** 2 < 1.0 - 1e-9

    def test_circuit_is_deterministic(self):
        spec = FeatureMapSpec(3, repetitions=2)
        x = [0.3, -0.6, 1.1]
        first = feature_map_states([x, x], spec)
        assert np.array_equal(first, feature_map_states([x, x], spec))
        assert np.array_equal(first[0], first[1])

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            apply_feature_map([float("inf")], FeatureMapSpec(1))
