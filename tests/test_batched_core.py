"""The batched simulation core against the per-sample oracles in helpers.

Every model scores and differentiates over (rows, 2**n) state arrays; the
oracles run gate-level circuits on one state at a time.  Both must agree
to 1e-12 on one qubit, on amplitude encoding and without entangling rings.
"""
import math

import numpy as np
import pytest
from helpers import (
    gate_level_probability,
    inverse_circuit_kernel,
    separable_kernel_labels,
    shift_gradient,
    svm_decision_oracle,
)

from qshield import statevector
from qshield.encoding import FeatureMapSpec
from qshield.pipeline import EnsembleModel
from qshield.qkernel import kernel_matrix, train_qsvm
from qshield.vqc import VqcModel, encode_rows, shift_jacobian

TOL = 1e-12

KERNEL_SPECS = {
    "1q": FeatureMapSpec(1, 2),
    "3q": FeatureMapSpec(3, 2),
    "3q-no-ring": FeatureMapSpec(3, 1, entangling=False),
}

# n_qubits, n_layers, repetitions, encoding, entangling
VQC_CASES = {
    "1q-angle": (1, 2, 2, "angle", True),
    "3q-angle": (3, 2, 2, "angle", True),
    "3q-angle-no-ring": (3, 2, 1, "angle", False),
    "2q-amplitude": (2, 2, 1, "amplitude", True),
    "2q-amplitude-no-ring": (2, 1, 1, "amplitude", False),
}


def vqc_case(name: str, rng: np.random.Generator, n_rows: int = 5):
    n, layers, reps, encoding, entangling = VQC_CASES[name]
    model = VqcModel(
        n, layers, rng.uniform(-math.pi, math.pi, 3 * n * layers),
        FeatureMapSpec(n, reps, entangling=entangling),
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
