"""Shared test utilities: random circuit generators, teacher datasets,
and independent numerical oracles.

The oracles here are the slow routes the library code replaced:
the two-qubit gates on n bit axes (``reference_two_qubit_gate``),
gate-level encoding circuits run one state at a time, the
inverse-circuit kernel, per-parameter shifts, the parameter-shift
training gradient and attribution table that adjoint differentiation
replaced (``shift_bce_grad``, ``shift_attribution``), a cyclic Jacobi
eigensolver standing in for LAPACK's ``eigh``, the list-of-rows CSV
reader that the streaming ``load_csv`` replaced (``reference_load_csv``),
the preprocessing fit that kept each stage's input alive through the
next stage (``reference_fit_preprocess``), the greedy pair loop and the
per-column PCA sign loop that whole-row numpy comparisons replaced
(``reference_prune_correlated``, ``reference_pca_signs``), the SMO solver over
unsigned alphas with a label case in every mask that the signed-dual
solver replaced (``reference_train_qsvm``), and the bootstrap that spawned
every resample's seed at once (``reference_bootstrap_ci``).  Tests compare the
production code against them.  ``with_support_rows`` gives a dual SVM fit the
rows it scores against.  The hypothesis strategies that the fuzz tests
share are here too (``json_values``, ``json_defects``); they import hypothesis
when called, so the other tests run without it.
"""
from __future__ import annotations

import csv
import fcntl
import json
import math
import os
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from qshield.encoding import FeatureMapSpec
from qshield.evalstats import StatReport, _check_binary, _percentile
from qshield.errors import (
    ConfigError,
    DegenerateInputError,
    DegenerateOutputError,
    IngestionError,
    InvalidInputError,
    NumericalError,
    ShapeError,
)
from qshield.explain import AttributionReport
from qshield.qkernel import BOUND_SNAP, KernelMatrix, SvmModel
from qshield.preprocess import (
    CORR_EPS,
    Dataset,
    PreprocessConfig,
    PreprocessModel,
    apply_pca,
    apply_standardize,
    fit_pca,
    fit_standardize,
    prune_correlated,
    remove_outliers,
)
from qshield.statevector import (
    Circuit,
    GateOp,
    QuantumState,
    cnot,
    cphase,
    h,
    new_zero_state,
    run_circuit,
    rx,
    ry,
    rz,
    swap,
    z_expectations,
)
from qshield.vqc import (
    PARAM_SHIFT,
    PROB_CLAMP,
    VqcModel,
    ansatz_expectations,
    build_ansatz,
    shift_jacobian,
)

GATE_POOL = ("RX", "RY", "RZ", "H", "CNOT", "CPHASE", "SWAP")
JACOBI_TOL = 1e-10


def random_gate(n_qubits: int, rng: np.random.Generator) -> GateOp:
    kind = GATE_POOL[rng.integers(0, len(GATE_POOL))]
    target = int(rng.integers(0, n_qubits))
    angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
    if kind in ("RX", "RY", "RZ"):
        return GateOp(kind, target, angle=angle)
    if kind == "H":
        return GateOp(kind, target)
    other = int(rng.integers(0, n_qubits - 1))
    if other >= target:
        other += 1
    if kind == "CNOT":
        return cnot(other, target)
    if kind == "CPHASE":
        return cphase(other, target, angle)
    return swap(other, target)


def random_circuit(n_qubits: int, depth: int, rng: np.random.Generator) -> Circuit:
    if n_qubits == 1:
        pool = [lambda: rx(0, rng.uniform(-6, 6)), lambda: ry(0, rng.uniform(-6, 6)),
                lambda: rz(0, rng.uniform(-6, 6)), lambda: h(0)]
        return Circuit(1, tuple(pool[rng.integers(0, 4)]() for _ in range(depth)))
    return Circuit(n_qubits, tuple(random_gate(n_qubits, rng) for _ in range(depth)))


def random_vqc(rng: np.random.Generator, n_qubits: int, n_layers: int,
               repetitions: int = 2) -> VqcModel:
    n_params = 3 * n_qubits * n_layers
    return VqcModel(
        n_qubits=n_qubits,
        n_layers=n_layers,
        params=rng.uniform(-math.pi, math.pi, n_params),
        feature_map=FeatureMapSpec(n_qubits, repetitions),
    )


def teacher_vqc_dataset(seed: int, n_qubits: int, n_layers: int, n_samples: int,
                        margin: float = 0.12) -> tuple[Dataset, VqcModel]:
    """Labels drawn from a random circuit of the student's own shape.

    Samples with probabilities inside (0.5 - margin, 0.5 + margin) are
    rejected so the concept is cleanly realizable.
    """
    rng = np.random.default_rng(seed)
    teacher = random_vqc(rng, n_qubits, n_layers)
    rows, labels = [], []
    while len(rows) < n_samples:
        x = rng.uniform(-1.3, 1.3, n_qubits)
        p = teacher.predict_proba(x[np.newaxis])[0]
        if abs(p - 0.5) >= margin:
            rows.append(x)
            labels.append(1 if p >= 0.5 else 0)
    names = [f"f{i}" for i in range(n_qubits)]
    return Dataset(names, np.array(rows), np.array(labels)), teacher


def separable_kernel_labels(entries: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Labels +/-1 realizable in the kernel's span with margin exactly 1."""
    coeffs = rng.normal(size=entries.shape[0])
    decision = entries @ coeffs
    decision = decision - np.median(decision)
    margin = np.abs(decision).min()
    if margin < 1e-9:
        decision = decision + 0.5  # nudge off the median tie
        margin = np.abs(decision).min()
    return np.where(decision >= 0, 1.0, -1.0)


def kkt_violations(entries: np.ndarray, labels: np.ndarray, alpha: np.ndarray,
                   bias: float, C: float) -> dict:
    """Worst-case slack for each KKT regime, computed from the Gram matrix."""
    decision = entries @ (alpha * labels) + bias
    yf = labels * decision
    free = (alpha > 1e-9) & (alpha < C - 1e-9)
    at_zero = alpha <= 1e-9
    at_cap = alpha >= C - 1e-9
    return {
        "zero": float(np.max(1.0 - yf[at_zero], initial=0.0)),
        "free": float(np.max(np.abs(yf[free] - 1.0), initial=0.0)),
        "cap": float(np.max(yf[at_cap] - 1.0, initial=0.0)),
    }


def t_pdf(x: float, dof: int) -> float:
    log_norm = math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2) - 0.5 * math.log(dof * math.pi)
    return math.exp(log_norm - (dof + 1) / 2 * math.log1p(x * x / dof))


def t_two_sided_p_quadrature(t_stat: float, dof: int, n_points: int = 200001) -> float:
    """Two-sided p by Simpson integration of the density over [0, |t|]."""
    t_abs = abs(t_stat)
    if t_abs == 0.0:
        return 1.0
    xs = np.linspace(0.0, t_abs, n_points)
    ys = np.array([t_pdf(x, dof) for x in xs])
    step = xs[1] - xs[0]
    integral = step / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
    return 1.0 - 2.0 * integral


def reference_two_qubit_gate(amps: np.ndarray, gate: GateOp, n_qubits: int) -> np.ndarray:
    """CNOT, SWAP or CPHASE on an (..., 2**n) array as the simulator applied them before
    their split view: the amplitudes reshaped to one axis per qubit, and each subspace
    indexed by a tuple as long as those axes, with the two qubits' bits fixed."""
    lead = amps.shape[:-1]
    psi = amps.reshape(lead + (2,) * n_qubits)

    def index(bits: dict[int, int]) -> tuple:
        idx: list = [slice(None)] * (len(lead) + n_qubits)
        for qubit, bit in bits.items():
            idx[len(lead) + (n_qubits - 1 - qubit)] = bit
        return tuple(idx)

    c, t = gate.control, gate.target
    if gate.kind == "CPHASE":
        hi = index({c: 1, t: 1})
        psi[hi] = psi[hi] * np.exp(1j * gate.angle)
        return psi.reshape(amps.shape)
    if gate.kind == "CNOT":
        lo, hi = index({c: 1, t: 0}), index({c: 1, t: 1})
    else:
        lo, hi = index({c: 0, t: 1}), index({c: 1, t: 0})
    tmp = psi[lo].copy()
    psi[lo] = psi[hi]
    psi[hi] = tmp
    return psi.reshape(amps.shape)


def feature_map_circuit(x, spec: FeatureMapSpec) -> Circuit:
    """Gate-level encoding circuit: per repetition RY(x_q) on each qubit q,
    then CNOT(j, j + 1 mod n) for each j when entangling; missing trailing
    features encode as RY(0)."""
    n = spec.n_qubits
    angles = np.zeros(n)
    angles[: len(x)] = x
    gates: list[GateOp] = []
    for _ in range(spec.repetitions):
        gates.extend(ry(q, float(angle)) for q, angle in enumerate(angles))
        if spec.entangling and n > 1:
            gates.extend(cnot(j, (j + 1) % n) for j in range(n))
    return Circuit(n, tuple(gates))


def inverse_circuit_kernel(a, b, spec: FeatureMapSpec) -> float:
    """K(a, b) as P(0...0) after U_phi(b) then U_phi(a)^dagger."""
    state = run_circuit(new_zero_state(spec.n_qubits), feature_map_circuit(b, spec))
    run_circuit(state, feature_map_circuit(a, spec).inverse())
    return float(abs(state.amplitudes[0]) ** 2)


def with_support_rows(fit: SvmModel, rows, spec: FeatureMapSpec) -> SvmModel:
    """A ``train_qsvm`` fit with the training rows at its support indices and the
    feature map attached, as ``pipeline._train_model`` attaches them."""
    return replace(fit, support_vectors=np.asarray(rows, dtype=float)[fit.support_indices],
                   feature_map=spec)


def svm_decision_oracle(model, rows) -> np.ndarray:
    """f(x) = b + sum_i alpha_i y_i K(sv_i, x) per row, via the inverse-circuit kernel."""
    return np.array([
        model.bias + sum(
            coeff * inverse_circuit_kernel(sv, x, model.feature_map)
            for coeff, sv in zip(model.dual_coeffs, model.support_vectors)
        )
        for x in rows
    ])


def gate_level_probability(model: VqcModel, x) -> float:
    """p = (1 + <Z>) / 2 for one sample: encode on one state, run build_ansatz."""
    n = model.n_qubits
    if model.encoding == "amplitude":
        amps = np.zeros(2**n, dtype=complex)
        amps[: len(x)] = x
        state = QuantumState(n, amps / np.linalg.norm(amps))
    else:
        state = run_circuit(new_zero_state(n), feature_map_circuit(x, model.feature_map))
    run_circuit(state, build_ansatz(model))
    return (1.0 + float(z_expectations(state.amplitudes, model.readout_qubit, n))) / 2.0


def shift_gradient(model: VqcModel, x) -> np.ndarray:
    """d<Z>/d(theta_i) for one sample, shifting one parameter at a time."""
    grad = np.empty(model.n_params)
    for i in range(model.n_params):
        up = model.params.copy()
        up[i] += PARAM_SHIFT
        down = model.params.copy()
        down[i] -= PARAM_SHIFT
        # <Z> = 2p - 1, so (E(+) - E(-)) / 2 = p(+) - p(-)
        grad[i] = (gate_level_probability(replace(model, params=up), x)
                   - gate_level_probability(replace(model, params=down), x))
    return grad


def shift_attribution(model: VqcModel, x) -> AttributionReport:
    """GRAD attribution by the parameter-shift rule over the encoding angles.

    Row 0 of the table is the input; rows 1 + 2k and 2 + 2k shift angle k =
    (feature j, repetition r) up and down, with k = j * reps + r.  Each row
    is encoded gate by gate, then all rows run through the ansatz at once.
    """
    arr = np.asarray(x, dtype=float)
    spec = model.feature_map
    n, d, reps = spec.n_qubits, arr.size, spec.repetitions
    rows = np.zeros((1 + 2 * d * reps, reps, n))
    rows[:, :, :d] = arr
    k = np.arange(d * reps)
    rows[1 + 2 * k, k % reps, k // reps] += PARAM_SHIFT
    rows[2 + 2 * k, k % reps, k // reps] -= PARAM_SHIFT
    ring = [cnot(j, (j + 1) % n) for j in range(n)] if spec.entangling and n > 1 else []
    states = []
    for row in rows:
        gates = [g for layer in row for g in (*(ry(q, float(a)) for q, a in enumerate(layer)), *ring)]
        states.append(run_circuit(new_zero_state(n), Circuit(n, tuple(gates))).amplitudes)
    probs = (1.0 + ansatz_expectations(model, np.array(states))) / 2.0
    base_p = float(probs[0])
    scores = [float(v) for v in (0.5 * (probs[1::2] - probs[2::2])).reshape(d, reps).sum(axis=1)]
    weighted = [s * float(arr[j]) if s > 0 else 0.0 for j, s in enumerate(scores)]
    return AttributionReport(
        scores=tuple(scores),
        weighted_scores=tuple(weighted),
        method="GRAD",
        base_probability=base_p,
    )


def shift_bce_grad(model: VqcModel, states: np.ndarray, y: np.ndarray):
    """(mean-BCE gradient as ``weights @ shift_jacobian``, mean BCE): 2P + 1 ansatz runs.

    The weights are dL/dp per row times dp/d<Z> = 1/2.  ``y`` may be any
    real targets, which gives the weights arbitrary signs and sizes.
    """
    z = ansatz_expectations(model, states)
    p = np.clip((1.0 + z) / 2.0, PROB_CLAMP, 1.0 - PROB_CLAMP)
    dloss_dp = (p - y) / (p * (1.0 - p)) / len(y)
    loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
    return dloss_dp @ (0.5 * shift_jacobian(model, states)), loss


def jacobi_eigh(matrix: np.ndarray, tol: float = JACOBI_TOL, max_sweeps: int = 100):
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) unsorted; eigenvectors are the
    columns.  Sweeps stop when the off-diagonal Frobenius norm drops
    below ``tol``.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-10, rtol=0.0):
        raise InvalidInputError("matrix is not symmetric")
    n = a.shape[0]
    vecs = np.eye(n)
    if n == 1:
        return np.diag(a).copy(), vecs
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * float(np.sum(np.triu(a, k=1) ** 2)))
        if off < tol:
            return np.diag(a).copy(), vecs
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                vec_p, vec_q = vecs[:, p].copy(), vecs[:, q].copy()
                vecs[:, p] = c * vec_p - s * vec_q
                vecs[:, q] = s * vec_p + c * vec_q
    raise NumericalError(
        f"Jacobi sweeps exhausted ({max_sweeps}) without reaching tolerance {tol}"
    )


def reference_load_csv(
    path, label_column: str, positive_label: str, require_labels: bool = True
) -> Dataset:
    """Read a header-first CSV; the label column maps positive_label to 1.

    Without ``require_labels`` a header lacking the label column is all features,
    and every label is 0."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise IngestionError(f"{path}: file is empty")
    header = rows[0]
    if label_column not in header and require_labels:
        raise IngestionError(
            f"{path}: label column {label_column!r} not found in header {header}"
        )
    label_idx = header.index(label_column) if label_column in header else None
    feature_names = [name for i, name in enumerate(header) if i != label_idx]
    if len(rows) == 1:
        raise DegenerateInputError(f"{path}: no data rows")
    features = []
    labels = []
    for row_num, row in enumerate(rows[1:], start=1):
        line_num = row_num + 1
        if len(row) != len(header):
            raise IngestionError(
                f"{path}: row {row_num} (line {line_num}): expected "
                f"{len(header)} fields, got {len(row)}"
            )
        sample = []
        for col, cell in enumerate(row):
            if col == label_idx:
                continue
            try:
                sample.append(float(cell.strip()))
            except ValueError:
                raise IngestionError(
                    f"{path}: row {row_num} (line {line_num}): column "
                    f"{header[col]!r}: cannot parse {cell.strip()!r} as a number"
                ) from None
        features.append(sample)
        labels.append(int(label_idx is not None and row[label_idx].strip() == positive_label))
    return Dataset(feature_names, np.array(features, dtype=float), np.array(labels))


def reference_fit_preprocess(
    data: Dataset, config: PreprocessConfig
) -> tuple[PreprocessModel, Dataset]:
    """Fit the full chain and return (model, processed training data).

    The two standardization passes and the column drops are folded into a
    single affine map over the surviving original columns.
    """
    # the standardized copies are never named and cleaned is released, so each
    # intermediate matrix is freed as soon as the next stage has its own copy
    first = fit_standardize(data)
    cleaned, _removed = remove_outliers(apply_standardize(first, data), config.outlier_z_cap)
    if cleaned.n_samples < 2:
        raise DegenerateInputError("fewer than 2 rows survive outlier removal")
    second = fit_standardize(cleaned)
    pruned, dropped_local = prune_correlated(
        apply_standardize(second, cleaned), config.correlation_threshold
    )
    del cleaned
    if pruned.n_features == 0:
        raise DegenerateOutputError("no feature columns survive preprocessing")

    # compose the two affine passes over the surviving columns
    orig_after_second = first.kept_columns[second.kept_columns]
    mean_eff = first.means[second.kept_columns] + second.means * first.std_devs[second.kept_columns]
    std_eff = first.std_devs[second.kept_columns] * second.std_devs
    keep_local = np.delete(np.arange(len(orig_after_second)), dropped_local)
    model = PreprocessModel(
        means=mean_eff[keep_local],
        std_devs=std_eff[keep_local],
        kept_columns=orig_after_second[keep_local],
        feature_names=data.feature_names,
    )

    processed = pruned
    if config.apply_pca:
        k = config.pca_components
        if k is None:
            raise ConfigError("pca_components must be set when apply_pca is true")
        k = min(k, pruned.n_features)
        pca = fit_pca(pruned, k)
        model = replace(
            model,
            pca_basis=pca.pca_basis,
            explained_variance=pca.explained_variance,
            pca_center=pca.pca_center,
        )
        processed = apply_pca(pca, pruned)
    return model, processed


def reference_prune_correlated(data: Dataset, threshold: float) -> tuple[list[int], list[int]]:
    """(kept, dropped) columns by greedy Pearson pruning, one pair at a time: scanning
    left to right, each kept column drops every later kept column with |r| >= threshold."""
    d = data.n_features
    corr = np.corrcoef(data.features, rowvar=False)
    keep = [True] * d
    dropped = []
    for i in range(d):
        if not keep[i]:
            continue
        for j in range(i + 1, d):
            if keep[j] and abs(corr[i, j]) >= threshold - CORR_EPS:
                keep[j] = False
                dropped.append(j)
    return [j for j in range(d) if keep[j]], sorted(dropped)


def reference_pca_signs(basis: np.ndarray) -> np.ndarray:
    """A copy of ``basis`` with each column negated where its largest-magnitude entry is
    negative, one column at a time."""
    basis = basis.copy()
    for col in range(basis.shape[1]):
        pivot = np.argmax(np.abs(basis[:, col]))
        if basis[pivot, col] < 0:
            basis[:, col] = -basis[:, col]
    return basis


def reference_train_qsvm(
    kernel: KernelMatrix, y: np.ndarray, C: float, tol: float = 1e-3,
    max_passes: int = 10000, record_objective: bool = False,
) -> SvmModel:
    """SMO over alpha in [0, C] with a separate gradient, for valid +/-1 labels."""
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
        grad += step * y * (k[i] - k[j])
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
        support_vectors=None,
        C=float(C),
        feature_map=None,
        converged=converged,
        n_updates=updates,
        objective_history=tuple(objective) if record_objective else None,
    )


def reference_bootstrap_ci(correct, iterations: int = 1000, seed: int = 0) -> StatReport:
    """``evalstats.bootstrap_ci`` as it was when it spawned all its child seeds in one call."""
    outcomes = _check_binary(correct, "correct").astype(float)
    if iterations < 100:
        raise InvalidInputError(f"need at least 100 bootstrap iterations, got {iterations}")
    n = len(outcomes)
    children = np.random.SeedSequence(seed).spawn(iterations)
    means = np.empty(iterations)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        means[i] = outcomes[rng.integers(0, n, n)].mean()
    ordered = np.sort(means)
    mean = float(outcomes.mean())
    boot_mean = float(means.mean())
    boot_std = float(means.std(ddof=1))
    if boot_std == 0.0:
        cv = 0.0
    elif boot_mean == 0.0:
        cv = None
    else:
        cv = boot_std / boot_mean
    return StatReport(
        mean=mean,
        ci_low=_percentile(ordered, 2.5),
        ci_high=_percentile(ordered, 97.5),
        coeff_variation=cv,
    )


def traced_peak(fn, *args):
    """(``fn(*args)``, the peak bytes ``tracemalloc`` saw allocated during the call).

    Memory allocated before the call, such as the arguments, is not counted.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@contextmanager
def holding_out_dir(out_dir):
    """Hold ``out_dir/.lock`` with ``flock`` as a running command does; yields the fd.

    Two open file descriptions conflict under ``flock`` even inside one
    process, so a command run in-process finds the directory held.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    fd = os.open(out_dir / ".lock", os.O_RDWR | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield fd
    finally:
        os.close(fd)


def json_values():
    """Hypothesis strategy: a small JSON value of any type, nested a few levels."""
    from hypothesis import strategies as st

    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=6,
    )


_SPLICE = "@@splice@@"
# the two texts that once ended a command in an internal error: an integer past
# Python's 4300-digit limit and an array nested past the recursion limit
DIGITS_5000 = "1" * 5000
NESTED_100000 = "[" * 100_000 + "]" * 100_000


def _leaf_paths(value, path: tuple = ()):
    """The key/index path of every number, string and boolean in a parsed JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_paths(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaf_paths(item, (*path, i))
    elif value is not None:
        yield path


def spliced(payload, path: tuple, text: str) -> str:
    """The JSON text of ``payload`` with the value at ``path`` replaced by the raw ``text``."""
    copy = json.loads(json.dumps(payload))
    *parents, last = path
    node = copy
    for key in parents:
        node = node[key]
    node[last] = _SPLICE
    return json.dumps(copy).replace(json.dumps(_SPLICE), text)


def json_defects(payload):
    """Hypothesis strategy: the JSON text of the object ``payload`` with one defect that
    no reader may accept.

    One number, string or boolean becomes a digit run past Python's 4300-digit
    integer limit (or, with a fraction or exponent, past the float range), an
    array or object nest up to 100,000 deep, or ``NaN``/``Infinity``/``-Infinity``;
    or the text gets a UTF-8 byte-order mark; or it is cut short.
    """
    from hypothesis import strategies as st

    text = json.dumps(payload)
    digits = st.builds(
        lambda k, tail: "9" * k + tail, st.integers(4301, 10_000), st.sampled_from(["", ".0", "e5"])
    )
    nests = st.builds(
        lambda depth, nest: nest[0] * depth + nest[1] + nest[2] * depth,
        st.integers(1, 100_000), st.sampled_from([("[", "", "]"), ('{"a": ', "0", "}")]),
    )
    return st.one_of(
        st.tuples(st.sampled_from(list(_leaf_paths(payload))),
                  digits | nests | st.sampled_from(["NaN", "Infinity", "-Infinity"]))
        .map(lambda case: spliced(payload, *case)),
        st.just("\ufeff" + text),
        st.integers(0, len(text) - 1).map(lambda k: text[:k]),
    )
