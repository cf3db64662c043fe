"""Quantum-kernel Gram matrices and a dual SVM trained by pairwise ascent.

The kernel is the fidelity of encoded states, K(x_i, x_j) =
|<phi(x_i)|phi(x_j)>|^2 with |phi(x)> = U_phi(x)|0..0>.  With the encoded
states as the rows of S, the whole Gram matrix is |S* S^T|^2 (elementwise),
one matrix product; SVM scoring takes the same product between the rows
to score and the support vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import FeatureMapSpec, as_feature_matrix, feature_map_states
from .errors import (
    ConfigError,
    DegenerateInputError,
    InvalidInputError,
    NumericalError,
    ShapeError,
)
from .statevector import row_chunks

PSD_SLACK = 1e-8
BOUND_SNAP = 1e-12


@dataclass
class KernelMatrix:
    """Symmetric Gram matrix with unit diagonal."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ShapeError(f"kernel matrix must be square, got shape {entries.shape}")
        self.entries = entries

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def validate(self, atol: float = 1e-10) -> None:
        """Check symmetry, unit diagonal, entry range, and PSD slack."""
        k = self.entries
        if not np.allclose(k, k.T, atol=atol, rtol=0.0):
            raise NumericalError("kernel matrix is not symmetric")
        if not np.allclose(np.diag(k), 1.0, atol=atol, rtol=0.0):
            raise NumericalError("kernel diagonal deviates from 1")
        if k.min() < -atol or k.max() > 1.0 + atol:
            raise NumericalError("kernel entries outside [0, 1]")
        min_eig = float(np.linalg.eigvalsh((k + k.T) / 2.0).min())
        if min_eig < -PSD_SLACK:
            raise NumericalError(
                f"kernel matrix is not positive semidefinite "
                f"(min eigenvalue {min_eig:.3e})"
            )


def kernel_matrix(data, spec: FeatureMapSpec) -> KernelMatrix:
    """Gram matrix |S* S^T|^2 over dataset rows; the upper triangle is mirrored."""
    features = getattr(data, "features", None)
    if features is None:
        features = np.asarray(data, dtype=float)
    if features.ndim != 2:
        raise ShapeError(f"expected a 2-D feature matrix, got shape {features.shape}")
    if features.shape[0] == 0:
        raise DegenerateInputError("cannot build a kernel matrix from zero samples")
    states = feature_map_states(features, spec)
    upper = np.triu(np.abs(states.conj() @ states.T) ** 2)
    return KernelMatrix(upper + np.triu(upper, 1).T)


@dataclass
class SvmModel:
    """Kernel SVM in dual form: f(x) = sum_i alpha_i y_i K(sv_i, x) + b."""

    dual_coeffs: np.ndarray
    bias: float
    support_indices: np.ndarray
    support_vectors: np.ndarray | None
    C: float
    feature_map: FeatureMapSpec | None
    converged: bool = True
    n_updates: int = 0
    objective_history: tuple[float, ...] | None = None

    def predict_proba(self, features) -> np.ndarray:
        """Logistic of the decision value per row of a (rows, features) matrix.

        Support vectors are encoded once per call; rows are scored in
        chunks against them.
        """
        features = as_feature_matrix(features)
        if len(self.support_indices) == 0:
            return np.full(len(features), _logistic(self.bias))
        if self.support_vectors is None or self.feature_map is None:
            raise ConfigError("model lacks stored support vectors or feature map")
        if self.support_vectors.shape[1] != features.shape[1]:
            raise ShapeError(
                f"support vectors have {self.support_vectors.shape[1]} features, "
                f"input rows have {features.shape[1]}"
            )
        support = feature_map_states(self.support_vectors, self.feature_map).conj()
        decision = np.empty(len(features))
        for rows in row_chunks(len(features), self.feature_map.n_qubits):
            states = feature_map_states(features[rows], self.feature_map)
            decision[rows] = np.abs(states @ support.T) ** 2 @ self.dual_coeffs + self.bias
        return _logistic(decision)


def _logistic(v):
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def train_qsvm(
    kernel: KernelMatrix,
    labels,
    C: float,
    tol: float = 1e-3,
    max_passes: int = 10000,
    vectors: np.ndarray | None = None,
    feature_map: FeatureMapSpec | None = None,
    record_objective: bool = False,
) -> SvmModel:
    """Solve the soft-margin dual by maximal-violating-pair updates.

    Each pass updates the alpha pair that most violates the KKT
    conditions; convergence is declared when the maximal violation drops
    to ``tol``.  ``vectors`` (training rows) and ``feature_map`` must be
    supplied for the model to score new inputs later.
    """
    y = np.asarray(labels, dtype=float)
    if y.ndim != 1 or len(y) != kernel.size:
        raise ShapeError(
            f"expected {kernel.size} labels for a {kernel.size}x{kernel.size} "
            f"kernel, got shape {y.shape}"
        )
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidInputError("labels must be -1 or +1")
    if y.min() == y.max():
        raise InvalidInputError("training labels contain a single class")
    if not C > 0:
        raise ConfigError(f"C must be positive, got {C!r}")
    if vectors is not None:
        vectors = np.asarray(vectors, dtype=float)
        if vectors.shape[0] != kernel.size:
            raise ShapeError(
                f"{vectors.shape[0]} training vectors for a {kernel.size}-sample kernel"
            )

    k = kernel.entries
    m = kernel.size
    alpha = np.zeros(m)
    # gradient of the minimization form 0.5 a'Qa - 1'a, Q_ij = y_i y_j K_ij
    grad = -np.ones(m)
    objective = [0.0] if record_objective else None
    converged = False
    updates = 0

    for _ in range(max_passes):
        g = -y * grad  # y_t - f_t, the KKT violation score
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.flatnonzero(up)[np.argmax(g[up])])
        j = int(np.flatnonzero(low)[np.argmin(g[low])])
        violation = g[i] - g[j]
        if violation <= tol:
            converged = True
            break
        eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
        step = violation / max(eta, 1e-12)
        # keep both alphas inside [0, C]; the pair moves along y_i e_i - y_j e_j
        limit_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        limit_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        step = min(step, limit_i, limit_j)
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        for t in (i, j):
            if abs(alpha[t]) < BOUND_SNAP:
                alpha[t] = 0.0
            elif abs(alpha[t] - C) < BOUND_SNAP:
                alpha[t] = C
        grad += step * y * (k[:, i] - k[:, j])
        updates += 1
        if record_objective:
            objective.append(objective[-1] + violation * step - 0.5 * eta * step * step)

    g = -y * grad
    unbounded = (alpha > 0.0) & (alpha < C)
    if unbounded.any():
        bias = float(g[unbounded].mean())
    else:
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        if up.any() and low.any():
            bias = float((g[up].max() + g[low].min()) / 2.0)
        else:
            bias = 0.0

    support = alpha > 0.0
    return SvmModel(
        dual_coeffs=(alpha * y)[support],
        bias=bias,
        support_indices=np.flatnonzero(support),
        support_vectors=vectors[support] if vectors is not None else None,
        C=float(C),
        feature_map=feature_map,
        converged=converged,
        n_updates=updates,
        objective_history=tuple(objective) if record_objective else None,
    )


def write_kernel_csv(kernel: KernelMatrix, path) -> None:
    """Full-precision comma-separated dump, one row per line, no header."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in kernel.entries:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
