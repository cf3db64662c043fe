"""Property test: every Gram matrix kernel_matrix builds is a valid kernel.

A fit trains on ``kernel_matrix`` without re-checking it, because the
encoded states are real and K = (S S^T) o (S S^T) is positive
semidefinite by the Schur product theorem.  This test holds the rest of
what ``KernelMatrix.validate`` checks: exact symmetry, a unit diagonal
and entries in [0, 1], over random feature maps and row counts.
"""
import math

import numpy as np
import pytest

from qshield.encoding import FeatureMapSpec
from qshield.qkernel import kernel_matrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(
    n_qubits=st.integers(1, 8),
    repetitions=st.integers(1, 3),
    entangling=st.booleans(),
    n_rows=st.integers(1, 60),
    n_features=st.integers(1, 8),
    scale=st.sampled_from([0.0, 1e-9, 1.0, math.pi, 20.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matrix_is_a_valid_gram(
    n_qubits, repetitions, entangling, n_rows, n_features, scale, seed
):
    spec = FeatureMapSpec(n_qubits, repetitions, entangling=entangling)
    rng = np.random.default_rng(seed)
    features = scale * rng.uniform(-1.0, 1.0, (n_rows, min(n_features, n_qubits)))
    gram = kernel_matrix(features, spec)
    k = gram.entries
    assert k.shape == (n_rows, n_rows)
    assert np.array_equal(k, k.T)
    assert np.abs(np.diag(k) - 1.0).max() <= 1e-12
    assert k.min() >= 0.0 and k.max() <= 1.0 + 1e-12
    gram.validate()
