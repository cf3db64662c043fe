"""The batched simulation core against the per-sample oracles in helpers.

Every model scores and differentiates over (rows, 2**n) state arrays; the
oracles run gate-level circuits on one state at a time.  Both must agree
to 1e-12 on one qubit, on amplitude encoding and without entangling rings.
The adjoint training gradient must agree with the parameter-shift
Jacobian to the same tolerance, and must cost one ansatz sweep.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    gate_level_probability,
    inverse_circuit_kernel,
    separable_kernel_labels,
    shift_bce_grad,
    shift_gradient,
    svm_decision_oracle,
    teacher_vqc_dataset,
)

from qshield import statevector, vqc
from qshield.encoding import FeatureMapSpec
from qshield.pipeline import EnsembleModel
from qshield.qkernel import kernel_matrix, train_qsvm
from qshield.statevector import Observable
from qshield.vqc import TrainConfig, VqcModel, encode_rows, shift_jacobian, train_vqc

TOL = 1e-12

KERNEL_SPECS = {
    "1q": FeatureMapSpec(1, 2),
    "3q": FeatureMapSpec(3, 2),
    "3q-no-ring": FeatureMapSpec(3, 1, entangling=False),
}

# n_qubits, n_layers, repetitions, encoding, entangling[, readout qubit]
VQC_CASES = {
    "1q-angle": (1, 2, 2, "angle", True),
    "3q-angle": (3, 2, 2, "angle", True),
    "3q-angle-no-ring": (3, 2, 1, "angle", False),
    "2q-amplitude": (2, 2, 1, "amplitude", True),
    "2q-amplitude-no-ring": (2, 1, 1, "amplitude", False),
}
ADJOINT_CASES = {
    "1q-angle": (1, 2, 2, "angle", True),
    "4q-angle": (4, 2, 2, "angle", True),
    "4q-angle-no-ring": (4, 2, 1, "angle", False),
    "4q-amplitude": (4, 2, 1, "amplitude", True),
    "4q-angle-readout-3": (4, 2, 2, "angle", True, 3),
    "8q-angle-readout-5": (8, 2, 2, "angle", True, 5),
    "8q-amplitude-no-ring": (8, 1, 1, "amplitude", False),
}


def vqc_case(name: str, rng: np.random.Generator, n_rows: int = 5, cases=VQC_CASES):
    n, layers, reps, encoding, entangling, *readout = cases[name]
    model = VqcModel(
        n, layers, rng.uniform(-math.pi, math.pi, 3 * n * layers),
        FeatureMapSpec(n, reps, entangling=entangling),
        readout=Observable(*readout or [0]),
        encoding=encoding, entangling=entangling,
    )
    width = 2**n if encoding == "amplitude" else n
    return model, rng.uniform(-1.5, 1.5, (n_rows, width))


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_kernel_matrix_matches_inverse_circuit_kernel(name):
    spec = KERNEL_SPECS[name]
    rows = np.random.default_rng(3).uniform(-math.pi, math.pi, (6, spec.n_qubits))
    oracle = [[inverse_circuit_kernel(a, b, spec) for b in rows] for a in rows]
    np.testing.assert_allclose(kernel_matrix(rows, spec).entries, oracle, atol=TOL, rtol=0)


@pytest.mark.parametrize("name", sorted(VQC_CASES))
def test_predict_proba_matches_gate_level_route(name):
    model, rows = vqc_case(name, np.random.default_rng(5))
    oracle = [gate_level_probability(model, x) for x in rows]
    np.testing.assert_allclose(model.predict_proba(rows), oracle, atol=TOL, rtol=0)


@pytest.mark.parametrize("name", sorted(VQC_CASES))
def test_jacobian_matches_per_parameter_shifts(name):
    model, rows = vqc_case(name, np.random.default_rng(7), n_rows=3)
    jac = shift_jacobian(model, encode_rows(model, rows))
    assert jac.shape == (3, model.n_params)
    for row, x in zip(jac, rows):
        np.testing.assert_allclose(row, shift_gradient(model, x), atol=TOL, rtol=0)


def test_prediction_across_chunk_boundary(monkeypatch):
    rng = np.random.default_rng(11)
    vqc, rows = vqc_case("3q-angle", rng, n_rows=7)
    spec = FeatureMapSpec(3, 2)
    train = rng.uniform(-math.pi, math.pi, (10, 3))
    gram = kernel_matrix(train, spec)
    svm = train_qsvm(
        gram, separable_kernel_labels(gram.entries, rng), C=10.0,
        vectors=train, feature_map=spec,
    )
    ensemble = EnsembleModel([vqc, svm], np.array([0.3, 0.7]))

    # two 3-qubit rows per chunk: seven rows take chunks of 2, 2, 2 and 1
    monkeypatch.setattr(statevector, "CHUNK_AMPLITUDES", 2 * 2**3)
    assert [s.indices(7) for s in statevector.row_chunks(7, 3)] == [
        (0, 2, 1), (2, 4, 1), (4, 6, 1), (6, 7, 1)
    ]
    vqc_oracle = np.array([gate_level_probability(vqc, x) for x in rows])
    svm_oracle = 1.0 / (1.0 + np.exp(-svm_decision_oracle(svm, rows)))
    np.testing.assert_allclose(vqc.predict_proba(rows), vqc_oracle, atol=TOL, rtol=0)
    np.testing.assert_allclose(svm.predict_proba(rows), svm_oracle, atol=TOL, rtol=0)
    np.testing.assert_allclose(
        ensemble.predict_proba(rows), 0.3 * vqc_oracle + 0.7 * svm_oracle, atol=TOL, rtol=0
    )


def adjoint_case(name: str, n_rows: int = 6):
    """A model, its encoded rows, and real targets that give signed row weights."""
    rng = np.random.default_rng(13)
    model, rows = vqc_case(name, rng, n_rows=n_rows, cases=ADJOINT_CASES)
    return model, encode_rows(model, rows), rng.uniform(-1.0, 2.0, n_rows)


@pytest.mark.parametrize("name", sorted(ADJOINT_CASES))
def test_adjoint_gradient_matches_shift_jacobian(name):
    model, states, y = adjoint_case(name)
    grad, loss = vqc._bce_grad(model, states, y)
    shift_grad, shift_loss = shift_bce_grad(model, states, y)
    np.testing.assert_allclose(grad, shift_grad, atol=TOL, rtol=0)
    assert loss == pytest.approx(shift_loss, abs=TOL, rel=0)


def test_adjoint_gradient_across_chunk_boundary(monkeypatch):
    model, states, y = adjoint_case("4q-angle-readout-3", n_rows=7)
    whole, whole_loss = vqc._bce_grad(model, states, y)
    # two 4-qubit rows per chunk: seven rows take chunks of 2, 2, 2 and 1
    monkeypatch.setattr(statevector, "CHUNK_AMPLITUDES", 2 * 2**4)
    assert len(statevector.row_chunks(7, 4)) == 4
    chunked, chunked_loss = vqc._bce_grad(model, states, y)
    np.testing.assert_allclose(chunked, whole, atol=TOL, rtol=0)
    np.testing.assert_allclose(chunked, shift_bce_grad(model, states, y)[0], atol=TOL, rtol=0)
    assert chunked_loss == whole_loss


@pytest.mark.parametrize("batch_size", [None, 5], ids=["full-batch", "mini-batch"])
def test_training_matches_parameter_shift_training(batch_size, monkeypatch):
    data, _ = teacher_vqc_dataset(seed=17, n_qubits=3, n_layers=1, n_samples=16)
    arch = VqcModel.fresh(3, 2)
    config = TrainConfig(epochs=3, learning_rate=0.1, batch_size=batch_size, seed=2)
    _, adjoint_history = train_vqc(data, arch, config)
    monkeypatch.setattr(vqc, "_bce_grad", shift_bce_grad)
    _, shift_history = train_vqc(data, arch, config)
    np.testing.assert_allclose(adjoint_history, shift_history, atol=1e-9, rtol=0)


@pytest.mark.parametrize("n_qubits, n_layers", [(4, 1), (6, 2), (6, 4)], ids=["P12", "P36", "P72"])
def test_gradient_is_one_ansatz_sweep(n_qubits, n_layers, monkeypatch):
    calls = []

    def counted_evolve(amps, circuit):
        calls.append(circuit)
        return statevector.evolve(amps, circuit)

    rng = np.random.default_rng(19)
    model = VqcModel.fresh(n_qubits, n_layers)
    model = replace(model, params=rng.uniform(-math.pi, math.pi, model.n_params))
    states = encode_rows(model, rng.uniform(-1.0, 1.0, (4, n_qubits)))
    monkeypatch.setattr(vqc, "evolve", counted_evolve)
    vqc._bce_grad(model, states, np.array([0.0, 1.0, 1.0, 0.0]))
    assert len(calls) == 1


def test_training_never_runs_the_shift_jacobian(monkeypatch):
    def refuse(*args):
        raise AssertionError("training ran the parameter-shift Jacobian")

    monkeypatch.setattr(vqc, "shift_jacobian", refuse)
    data, _ = teacher_vqc_dataset(seed=23, n_qubits=2, n_layers=1, n_samples=8)
    train_vqc(data, VqcModel.fresh(2, 1), TrainConfig(epochs=2, batch_size=3))
