"""Simulator unit tests: gate semantics, QFT, inversion, observables."""
import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import random_circuit, reference_two_qubit_gate

from qshield import explain, statevector, vqc
from qshield.errors import QubitCapError, ShapeError
from qshield.statevector import (
    Circuit,
    GateOp,
    QuantumState,
    _apply_gate_to_array,
    _rotation_matrix,
    adjoint_grad,
    apply_gate,
    cnot,
    cphase,
    evolve,
    h,
    inner_product,
    new_zero_state,
    qft_circuit,
    run_circuit,
    rx,
    ry,
    rz,
    swap,
    z_expectations,
)


def basis_state(n, index):
    state = new_zero_state(n)
    state.amplitudes[:] = 0.0
    state.amplitudes[index] = 1.0
    return state


def rotation_matrix_oracle(kind, theta):
    # independent matrix forms, written from the half-angle definition
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        return np.array([[c, -s], [s, c]])
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])


class TestStatesAndGates:
    def test_zero_state(self):
        state = new_zero_state(3)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)

    @pytest.mark.parametrize("bad", [0, -1, 21, 64])
    def test_qubit_cap(self, bad):
        with pytest.raises(QubitCapError):
            new_zero_state(bad)

    def test_state_shape_mismatch(self):
        with pytest.raises(ShapeError):
            QuantumState(2, np.array([1.0, 0.0]))

    def test_ry_pi_flips(self):
        state = apply_gate(new_zero_state(1), ry(0, math.pi))
        np.testing.assert_allclose(state.amplitudes, [0.0, 1.0], atol=1e-12)

    def test_rx_half_pi_against_matrix_oracle(self):
        # literal: RX(pi/2)|0> = (1/sqrt2, -i/sqrt2)
        state = apply_gate(new_zero_state(1), rx(0, math.pi / 2))
        inv = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(state.amplitudes, [inv, -1j * inv], atol=1e-12)
        # and again through the independent 2x2 matrix product
        expected = rotation_matrix_oracle("RX", math.pi / 2) @ np.array([1.0, 0.0])
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ["RX", "RY", "RZ"])
    def test_single_qubit_rotations_match_matrix_oracle(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(25):
            theta = float(rng.uniform(-7, 7))
            start = rng.normal(size=2) + 1j * rng.normal(size=2)
            start /= np.linalg.norm(start)
            state = QuantumState(1, start.copy())
            apply_gate(state, GateOp(kind, 0, angle=theta))
            expected = rotation_matrix_oracle(kind, theta) @ start
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_cnot_truth_table(self):
        # basis |k>: qubit 0 is the least-significant bit
        expected = {0: 0, 1: 3, 2: 2, 3: 1}  # control qubit 0, target qubit 1
        for start, end in expected.items():
            state = apply_gate(basis_state(2, start), cnot(0, 1))
            np.testing.assert_allclose(state.amplitudes, basis_state(2, end).amplitudes, atol=1e-15)

    def test_bell_state(self):
        state = run_circuit(new_zero_state(2), Circuit(2, (h(0), cnot(0, 1))))
        inv = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(state.amplitudes, [inv, 0.0, 0.0, inv], atol=1e-12)

    def test_cphase_only_phases_the_11_subspace(self):
        theta = 0.77
        state = QuantumState(2, np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        apply_gate(state, cphase(0, 1, theta))
        expected = np.array([0.5, 0.5, 0.5, 0.5 * np.exp(1j * theta)])
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_swap_exchanges_bits(self):
        state = apply_gate(basis_state(2, 1), swap(0, 1))
        np.testing.assert_allclose(state.amplitudes, basis_state(2, 2).amplitudes, atol=1e-15)

    def test_gate_on_missing_qubit(self):
        with pytest.raises(IndexError):
            apply_gate(new_zero_state(2), rx(2, 0.1))
        with pytest.raises(IndexError):
            Circuit(1, (cnot(0, 1),))

    def test_gateop_validation(self):
        with pytest.raises(ValueError):
            GateOp("CNOT", 1, control=1)
        with pytest.raises(ValueError):
            GateOp("H", 0, angle=0.3)
        with pytest.raises(ValueError):
            GateOp("RX", 0)
        with pytest.raises(ValueError):
            GateOp("XX", 0)
        with pytest.raises(ValueError, match="CNOT needs a second qubit"):
            GateOp("CNOT", 0)
        with pytest.raises(ValueError, match="RX does not take a control qubit"):
            GateOp("RX", 0, control=1, angle=0.1)
        with pytest.raises(ValueError, match="qubit indices must be non-negative"):
            ry(-1, 0.1)

    def test_adjoint_grad_refuses_cphase_before_any_gate(self, monkeypatch):
        circuit = Circuit(2, (h(0), h(1), cphase(0, 1, 0.3)))
        phi = evolve(new_zero_state(2).amplitudes[None, :], circuit)
        applied = []
        for kernel in ("_apply_gate_to_array", "_apply_1q_matrix"):
            monkeypatch.setattr(statevector, kernel, lambda *args: applied.append(args))
        with pytest.raises(ValueError, match="adjoint_grad: gate 2 is CPHASE, not RX, RY or RZ"):
            adjoint_grad(circuit, phi, np.ones(1), 0)
        assert applied == []

    def test_per_row_ry_matrices_stack_the_scalar_ones(self):
        # the feature map's per-row RY matrices equal the ansatz's scalar ones
        # bit for bit: numpy's float64 cos and sin give the math module's doubles
        rng = np.random.default_rng(37)
        angles = np.concatenate([
            rng.uniform(-20.0, 20.0, 2000), [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 5e-324],
        ])
        batched = _rotation_matrix("RY", angles)
        assert batched.shape == (len(angles), 2, 2)
        stacked = np.stack([_rotation_matrix("RY", float(t)) for t in angles])
        assert batched.tobytes() == stacked.tobytes()
        with pytest.raises(ValueError, match="RY only"):
            _rotation_matrix("RX", angles)


class TestCircuits:
    def test_empty_circuit_is_identity(self):
        state = run_circuit(new_zero_state(2), Circuit(2))
        np.testing.assert_allclose(state.amplitudes, basis_state(2, 0).amplitudes)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            run_circuit(new_zero_state(2), Circuit(3))

    def test_norm_preserved_by_random_gates(self):
        rng = np.random.default_rng(13)
        state = new_zero_state(4)
        circuit = random_circuit(4, 300, rng)
        run_circuit(state, circuit)
        assert abs(state.norm() - 1.0) < 1e-10

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            circuit = random_circuit(n, int(rng.integers(1, 31)), rng)
            state = new_zero_state(n)
            run_circuit(state, circuit)
            run_circuit(state, circuit.inverse())
            np.testing.assert_allclose(
                state.amplitudes, new_zero_state(n).amplitudes, atol=1e-9
            )

    def test_inverse_reverses_and_negates(self):
        circuit = Circuit(2, (rx(0, 0.5), cnot(0, 1), cphase(1, 0, 0.3)))
        inv = circuit.inverse()
        assert inv.gates[0] == cphase(1, 0, -0.3)
        assert inv.gates[1] == cnot(0, 1)
        assert inv.gates[2] == rx(0, -0.5)

    def test_evolve_keeps_real_states_real_under_real_gates(self):
        real_gates = (ry(0, 0.7), h(1), cnot(0, 2), swap(1, 2), ry(2, -2.1))
        amps = np.eye(1, 8)
        out = evolve(amps, Circuit(3, real_gates))
        assert out.dtype == np.float64
        oracle = run_circuit(new_zero_state(3), Circuit(3, real_gates)).amplitudes
        np.testing.assert_allclose(out, oracle[np.newaxis], atol=1e-15)
        # one complex gate, or a complex input, makes the evolution complex
        assert evolve(amps, Circuit(3, real_gates + (rz(0, 0.3),))).dtype == complex
        assert evolve(amps, Circuit(3, real_gates + (cphase(0, 1, 0.3),))).dtype == complex
        assert evolve(amps.astype(complex), Circuit(3, real_gates)).dtype == complex

    def test_determinism(self):
        rng = np.random.default_rng(99)
        circuit = random_circuit(3, 40, rng)
        a = run_circuit(new_zero_state(3), circuit).amplitudes
        b = run_circuit(new_zero_state(3), circuit).amplitudes
        assert np.array_equal(a, b)


def dense_two_qubit_matrix(gate, n):
    # oracle: the 2**n x 2**n matrix written from the gate's action on basis index k
    size = 2**n
    c, t = gate.control, gate.target
    matrix = np.zeros((size, size), dtype=complex)
    for k in range(size):
        bc, bt = (k >> c) & 1, (k >> t) & 1
        if gate.kind == "CNOT":
            matrix[k ^ (bc << t), k] = 1.0
        elif gate.kind == "SWAP":
            matrix[k ^ ((bc ^ bt) << c) ^ ((bc ^ bt) << t), k] = 1.0
        else:
            matrix[k, k] = np.exp(1j * gate.angle) if bc and bt else 1.0
    return matrix


class TestTwoQubitKernels:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("lead", [(), (5,), (2, 5)])
    @pytest.mark.parametrize("kind", ["CNOT", "SWAP", "CPHASE"])
    def test_split_view_matches_the_n_axis_reference(self, kind, lead, dtype):
        rng = np.random.default_rng(41)
        for n in range(2, 7):
            for control, target in itertools.permutations(range(n), 2):
                gate = GateOp(kind, target, control, 0.37 if kind == "CPHASE" else None)
                amps = rng.standard_normal(lead + (2**n,))
                if dtype is np.complex128:
                    amps = amps + 1j * rng.standard_normal(amps.shape)
                if kind == "CPHASE" and dtype is np.float64:
                    # a phase is never written into a real buffer; evolve makes CPHASE's complex
                    for apply in (_apply_gate_to_array, reference_two_qubit_gate):
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            with pytest.raises(RuntimeWarning, match="Casting complex"):
                                apply(amps.copy(), gate, n)
                    continue
                got = _apply_gate_to_array(amps.copy(), gate, n)
                want = reference_two_qubit_gate(amps.copy(), gate, n)
                assert got.dtype == want.dtype == dtype
                assert got.shape == amps.shape
                if kind == "CPHASE" and n == 2 and lead == ():
                    # there the reference's one |11> amplitude is a numpy scalar, and numpy
                    # multiplies scalars without the fused multiply-add of its SIMD array loop
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
                else:
                    assert got.tobytes() == want.tobytes(), (n, control, target)

    @pytest.mark.parametrize("gate", [cnot(3, 0), swap(4, 1), cphase(0, 4, 0.9)],
                             ids=["cnot(3,0)", "swap(4,1)", "cphase(0,4)"])
    def test_matches_the_dense_basis_matrix(self, gate):
        rng = np.random.default_rng(43)
        amps = rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32))
        want = amps @ dense_two_qubit_matrix(gate, 5).T
        np.testing.assert_allclose(evolve(amps, Circuit(5, (gate,))), want, rtol=0, atol=1e-15)
        state = apply_gate(QuantumState(5, amps[0].copy()), gate)
        np.testing.assert_allclose(state.amplitudes, want[0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("module", [vqc, explain], ids=["vqc", "explain"])
def test_layers_import_no_private_simulator_name(module):
    # the qubit-bit layout and the kernels stay inside statevector
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "statevector"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name.startswith("_")] == []


class TestQft:
    def test_single_qubit_is_hadamard(self):
        state = run_circuit(new_zero_state(1), qft_circuit(1))
        inv = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(state.amplitudes, [inv, inv], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dft_matrix(self, n):
        # oracle: the DFT matrix built directly from its definition
        size = 2**n
        dft = np.exp(2j * np.pi * np.outer(np.arange(size), np.arange(size)) / size)
        dft /= math.sqrt(size)
        circuit = qft_circuit(n)
        for x in range(size):
            state = run_circuit(basis_state(n, x), circuit)
            np.testing.assert_allclose(state.amplitudes, dft[:, x], atol=1e-10)

    def test_preserves_norm_on_random_input(self):
        rng = np.random.default_rng(5)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = QuantumState(3, amps)
        run_circuit(state, qft_circuit(3))
        assert abs(state.norm() - 1.0) < 1e-12


class TestObservables:
    def test_zero_state_expectation(self):
        assert z_expectations(new_zero_state(1).amplitudes, 0, 1) == pytest.approx(1.0)

    def test_one_state_expectation(self):
        assert z_expectations(basis_state(1, 1).amplitudes, 0, 1) == pytest.approx(-1.0)

    def test_ry_theta_gives_cos_theta(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-6, 6, 12):
            state = apply_gate(new_zero_state(1), ry(0, float(theta)))
            # oracle: z from the independent 2x2 matrix route
            vec = rotation_matrix_oracle("RY", float(theta)) @ np.array([1.0, 0.0])
            oracle = abs(vec[0]) ** 2 - abs(vec[1]) ** 2
            z = float(z_expectations(state.amplitudes, 0, 1))
            assert z == pytest.approx(math.cos(float(theta)), abs=1e-12)
            assert z == pytest.approx(oracle, abs=1e-12)

    def test_expectation_consistent_with_probabilities(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            state = run_circuit(new_zero_state(n), random_circuit(n, 25, rng))
            probs = np.abs(state.amplitudes) ** 2
            for q in range(n):
                signs = np.array([1.0 if not (k >> q) & 1 else -1.0 for k in range(2**n)])
                assert z_expectations(state.amplitudes, q, n) == pytest.approx(
                    float(signs @ probs), abs=1e-12
                )

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(21)
        state = run_circuit(new_zero_state(4), random_circuit(4, 60, rng))
        assert (np.abs(state.amplitudes) ** 2).sum() == pytest.approx(1.0, abs=1e-10)


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(17)
        state = run_circuit(new_zero_state(3), random_circuit(3, 30, rng))
        assert inner_product(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        assert inner_product(basis_state(1, 0), basis_state(1, 1)) == 0.0

    def test_conjugates_first_argument(self):
        a = QuantumState(1, np.array([1.0, 1j]) / math.sqrt(2))
        b = QuantumState(1, np.array([1.0, 0.0], dtype=complex))
        assert inner_product(a, b) == pytest.approx(1.0 / math.sqrt(2))
        assert inner_product(b, a) == pytest.approx(1.0 / math.sqrt(2))
        c = QuantumState(1, np.array([0.0, 1.0], dtype=complex))
        assert inner_product(a, c) == pytest.approx(-1j / math.sqrt(2))

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            inner_product(new_zero_state(1), new_zero_state(2))

    def test_overlap_equals_inverse_circuit_route(self):
        # |<a|b>|^2 computed two ways must agree
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            circ_a = random_circuit(n, 15, rng)
            circ_b = random_circuit(n, 15, rng)
            state_a = run_circuit(new_zero_state(n), circ_a)
            state_b = run_circuit(new_zero_state(n), circ_b)
            direct = abs(inner_product(state_a, state_b)) ** 2
            routed = run_circuit(QuantumState(n, state_b.amplitudes.copy()), circ_a.inverse())
            assert direct == pytest.approx(abs(routed.amplitudes[0]) ** 2, abs=1e-10)
