"""Property test: every Gram matrix kernel_matrix builds is a valid kernel.

Neither a fit nor ``qshield kernel`` re-checks the Gram ``kernel_matrix``
builds: the encoded states are real, S @ S.T is one exactly symmetric
product, and K = (S S^T) o (S S^T) is positive semidefinite by the Schur
product theorem.  This test holds those properties over random feature
maps and row counts: exact symmetry, a unit diagonal, entries in [0, 1]
and no eigenvalue below -1e-8.
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
    assert np.linalg.eigvalsh(k).min() >= -1e-8
