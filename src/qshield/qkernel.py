"""Quantum-kernel Gram matrices and a dual SVM trained by pairwise ascent.

The kernel is the fidelity of encoded states, K(x_i, x_j) =
|<phi(x_i)|phi(x_j)>|^2 with |phi(x)> = U_phi(x)|0..0>.  The encoded
states are real, so with them as the rows of S the whole Gram matrix is
(S S^T)^2 (elementwise), one symmetric matrix product; SVM scoring takes
the same product between the rows to score and the support vectors.
K = G o G with G = S S^T positive semidefinite, so K is too (Schur
product theorem).  Its symmetry, unit diagonal, [0, 1] entries and PSD are
proven by construction and held by tests, not re-checked at run time.  The
SVM solver works in the signed duals beta = y o alpha, each in a per-row
box (Bottou & Lin 2007; LIBSVM), so a working-set mask is one comparison
per row.
"""

from dataclasses import dataclass, field

import numpy as np

from .encoding import FeatureMapSpec, as_feature_matrix, feature_map_states
from .errors import (
    ConfigError,
    DegenerateInputError,
    InvalidInputError,
    ShapeError,
)
from .limits import BOUND_SNAP

# SVM scoring takes its overlaps with the support vectors in chunks of at most
# CHUNK_AMPLITUDES values: one large matrix product beats many small ones.
CHUNK_AMPLITUDES = 1 << 20


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
    # a trace for tests of the solver, not part of a model file
    objective_history: tuple[float, ...] | None = field(default=None, metadata={"saved": False})

    def __post_init__(self) -> None:
        coeffs, indices, vectors = self.dual_coeffs, self.support_indices, self.support_vectors
        lengths = [len(coeffs), len(indices), len(coeffs if vectors is None else vectors)]
        if not any(lengths):
            raise ShapeError("an SVM needs at least one support vector; support_vectors is empty")
        if vectors is not None and np.ndim(vectors) != 2:
            raise ShapeError(f"support_vectors must be 2-D rows, got shape {np.shape(vectors)}")
        if np.ndim(coeffs) != 1 or np.ndim(indices) != 1 or len(set(lengths)) > 1:
            raise ShapeError(f"dual_coeffs, support_indices and support_vectors (feature "
                             f"rows) have lengths {lengths}")

    def predict_proba(self, features) -> np.ndarray:
        """Logistic of the decision value per row of a (rows, features) matrix.

        Support vectors are encoded once per call; rows are scored against
        them in chunks whose states and overlaps each fit CHUNK_AMPLITUDES.
        """
        features = as_feature_matrix(features)
        if self.support_vectors is None or self.feature_map is None:
            raise ConfigError("model lacks stored support vectors or feature map")
        if self.support_vectors.shape[1] != features.shape[1]:
            raise ShapeError(
                f"support vectors have {self.support_vectors.shape[1]} features, "
                f"input rows have {features.shape[1]}"
            )
        support = feature_map_states(self.support_vectors, self.feature_map)
        decision = np.empty(len(features))
        step = max(1, CHUNK_AMPLITUDES // max(support.shape))
        for start in range(0, len(features), step):
            rows = slice(start, start + step)
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
    record_objective: bool = False,
) -> SvmModel:
    """Solve the soft-margin dual by maximal-violating-pair updates.

    The solver works in the signed duals beta = y o alpha (the model's
    ``dual_coeffs``), each in its own box [min(0, C y_t), max(0, C y_t)],
    so each mask is one comparison per row.  Each pass moves the pair that
    most violates the KKT conditions on the score g = y - f, until that
    violation drops to ``tol``.  The kernel must be symmetric: the score
    update reads its rows in place of its columns.
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
    if not 0 < tol < 2:  # at beta = 0 the KKT violation is exactly 2: a larger tol fits nothing
        raise ConfigError(f"tol (model.svm_tol) must lie in (0, 2), got {tol!r}")
    if not C >= BOUND_SNAP:
        raise ConfigError(f"C must be at least {BOUND_SNAP} (smaller steps snap to 0), got {C!r}")

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
        support_vectors=None,
        C=float(C),
        feature_map=None,
        converged=converged,
        n_updates=updates,
        objective_history=tuple(objective) if record_objective else None,
    )


def write_kernel_csv(kernel: KernelMatrix, path) -> None:
    """Full-precision comma-separated dump, one row per line, no header."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in kernel.entries:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")
