"""Quantum-kernel Gram matrices and a dual SVM trained by pairwise ascent.

The kernel is the fidelity of encoded states, K(x_i, x_j) =
|<phi(x_i)|phi(x_j)>|^2 with |phi(x)> = U_phi(x)|0..0>.  The encoded
states are real, so with them as the rows of S the whole Gram matrix is
(S S^T)^2 (elementwise), one symmetric matrix product; SVM scoring takes
the same product between the rows to score and the support vectors.
K = G o G with G = S S^T positive semidefinite, so K is too (Schur
product theorem): a fit needs no eigenvalue check.  The SVM solver works
in the signed duals beta = y o alpha, each in a per-row box (Bottou & Lin
2007; LIBSVM), so a working-set mask is one comparison per row.
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
    """Gram matrix (S S^T)^2 over dataset rows; numpy's S @ S.T is one exactly symmetric syrk."""
    states = feature_map_states(getattr(data, "features", data), spec)
    if len(states) == 0:
        raise DegenerateInputError("cannot build a kernel matrix from zero samples")
    gram = states @ states.T
    return KernelMatrix(np.square(gram, out=gram))


@dataclass
class SvmModel:
    """Kernel SVM in dual form: f(x) = sum_i beta_i K(sv_i, x) + b, beta_i = y_i alpha_i."""

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

        Support vectors are encoded once per call; rows are scored against
        them in chunks whose states and overlaps each fit CHUNK_AMPLITUDES.
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
        support = feature_map_states(self.support_vectors, self.feature_map)
        decision = np.empty(len(features))
        for rows in row_chunks(len(features), max(support.shape), gate_sweep=False):
            overlaps = feature_map_states(features[rows], self.feature_map) @ support.T
            decision[rows] = overlaps**2 @ self.dual_coeffs + self.bias
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

    The solver works in the signed duals beta = y o alpha (the model's
    ``dual_coeffs``), each in its own box [min(0, C y_t), max(0, C y_t)],
    so each mask is one comparison per row.  Each pass moves the pair that
    most violates the KKT conditions on the score g = y - f, until that
    violation drops to ``tol``.  The kernel must be symmetric: the score
    update reads its rows in place of its columns.  ``vectors`` (the 2-D
    training rows) and ``feature_map`` let the model score new inputs.
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
    if not C >= BOUND_SNAP:
        raise ConfigError(f"C must be at least {BOUND_SNAP} (smaller steps snap to 0), got {C!r}")
    if vectors is not None:
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[0] != kernel.size:
            raise ShapeError(
                f"expected a ({kernel.size}, features) matrix of training vectors, "
                f"got shape {vectors.shape}"
            )

    k = kernel.entries
    cy = C * y
    lo, hi = np.minimum(cy, 0.0), np.maximum(cy, 0.0)
    beta = np.zeros(kernel.size)
    g = y.copy()  # y_t - f_t with f = K beta, the KKT violation score
    objective = [0.0] if record_objective else None
    converged = False
    updates = 0

    for _ in range(max_passes):
        up, low = beta < hi, beta > lo
        i = int(np.argmax(np.where(up, g, -np.inf)))
        j = int(np.argmin(np.where(low, g, np.inf)))
        violation = g[i] - g[j]
        if not (up[i] and low[j]) or violation <= tol:
            converged = True
            break
        eta = k[i, i] + k[j, j] - 2.0 * k[i, j]
        # beta_i rises and beta_j falls by step, each kept inside its box
        step = min(violation / max(eta, 1e-12), hi[i] - beta[i], beta[j] - lo[j])
        beta[i] += step
        beta[j] -= step
        for t in (i, j):
            if abs(beta[t]) < BOUND_SNAP:
                beta[t] = 0.0
            elif abs(beta[t] - cy[t]) < BOUND_SNAP:
                beta[t] = cy[t]
        g -= step * (k[i] - k[j])
        updates += 1
        if record_objective:
            objective.append(objective[-1] + violation * step - 0.5 * eta * step * step)

    up, low = beta < hi, beta > lo
    free = up & low
    if free.any():
        bias = float(g[free].mean())
    elif up.any() and low.any():
        bias = float((g[up].max() + g[low].min()) / 2.0)
    else:
        bias = 0.0

    support = beta != 0.0
    return SvmModel(
        dual_coeffs=beta[support],
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
