"""Acceptance suite: one printed pass/fail line per criterion.

Each criterion checks a core guarantee end to end, against independent
oracles where one exists (DFT matrix, finite differences, dense overlaps,
LAPACK eigenvalues, quadrature).  Lines are written to the real stdout so
they appear even when pytest captures output; run with ``-s`` to see them
inline.
"""
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    inverse_circuit_kernel,
    jacobi_eigh,
    kkt_violations,
    random_circuit,
    random_vqc,
    separable_kernel_labels,
    t_two_sided_p_quadrature,
    teacher_vqc_dataset,
)

from qshield.encoding import FeatureMapSpec, amplitude_encode, apply_feature_map
from qshield.errors import DegenerateInputError
from qshield.evalstats import bootstrap_ci, cohens_d, cohens_kappa, paired_t_test
from qshield.explain import grad_attribution, score_attribution
from qshield.pipeline import PipelineConfig, run_experiment
from qshield.preprocess import Dataset, fit_pca, apply_pca, write_csv
from qshield.qkernel import kernel_matrix, train_qsvm
from qshield.statevector import (
    inner_product,
    new_zero_state,
    qft_circuit,
    run_circuit,
)
from qshield.vqc import TrainConfig, VqcModel, param_shift_grad, train_vqc


def announce(number: int, ok: bool, detail: str) -> None:
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {number:2d}: {detail}", file=sys.__stdout__, flush=True)


def test_criterion_01_qft_matches_dft_matrix():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 5):
        dim = 2**n
        circuit = qft_circuit(n)
        omega = np.exp(2j * math.pi / dim)
        dft = np.array(
            [[omega ** (row * col) for col in range(dim)] for row in range(dim)]
        ) / math.sqrt(dim)
        for col in range(dim):
            state = new_zero_state(n)
            state.amplitudes[:] = 0.0
            state.amplitudes[col] = 1.0
            run_circuit(state, circuit)
            worst = max(worst, float(np.abs(state.amplitudes - dft[:, col]).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    announce(1, ok, f"qft equals dft matrix for 1..4 qubits "
                    f"(max err {worst:.2e}, {elapsed:.2f}s)")
    assert ok


def test_criterion_02_random_circuits_preserve_norm_and_invert():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    norm_err = 0.0
    roundtrip_err = 0.0

    def drive(n, depth):
        nonlocal norm_err, roundtrip_err
        circuit = random_circuit(n, depth, rng)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amps /= np.linalg.norm(amps)
        state = new_zero_state(n)
        state.amplitudes[:] = amps
        run_circuit(state, circuit)
        norm_err = max(norm_err, abs(state.norm() - 1.0))
        run_circuit(state, circuit.inverse())
        roundtrip_err = max(roundtrip_err, float(np.abs(state.amplitudes - amps).max()))

    drive(6, 1000)  # one deep circuit
    for _ in range(20):  # plus a spread of widths and depths
        drive(int(rng.integers(1, 7)), int(rng.integers(20, 80)))
    elapsed = time.perf_counter() - t0
    ok = norm_err <= 1e-10 and roundtrip_err <= 1e-9 and elapsed < 10.0
    announce(2, ok, f"random circuits (one 1000-gate, 20 shorter) preserve norm "
                    f"and invert (norm err {norm_err:.2e}, roundtrip "
                    f"{roundtrip_err:.2e}, {elapsed:.2f}s)")
    assert ok


def test_criterion_03_parameter_shift_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        n_qubits = int(rng.integers(1, 5))
        n_layers = int(rng.integers(1, 3))
        model = random_vqc(rng, n_qubits, n_layers)
        x = rng.uniform(-1.5, 1.5, n_qubits)
        grad = param_shift_grad(model, x)
        for i in range(model.n_params):
            up = model.params.copy()
            up[i] += step
            down = model.params.copy()
            down[i] -= step
            z_up = 2.0 * replace(model, params=up).predict_proba([x])[0] - 1.0
            z_dn = 2.0 * replace(model, params=down).predict_proba([x])[0] - 1.0
            worst = max(worst, abs(grad[i] - (z_up - z_dn) / (2.0 * step)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    announce(3, ok, f"parameter-shift gradients match central differences on "
                    f"20 random models (max err {worst:.2e}, {elapsed:.1f}s)")
    assert ok


def test_criterion_04_kernel_gram_properties_and_overlap_oracle():
    rng = np.random.default_rng(404)
    spec = FeatureMapSpec(2, 2)
    sym_err = diag_err = overlap_err = entry_err = 0.0
    min_eig = math.inf
    for _ in range(20):
        m = int(rng.integers(2, 13))
        features = rng.uniform(-math.pi, math.pi, (m, 2))
        gram = kernel_matrix(features, spec)
        k = gram.entries
        sym_err = max(sym_err, float(np.abs(k - k.T).max()))
        diag_err = max(diag_err, float(np.abs(np.diag(k) - 1.0).max()))
        eigvals, _ = jacobi_eigh(k)
        min_eig = min(min_eig, float(eigvals.min()))
        states = [apply_feature_map(row, spec) for row in features]
        for i in range(m):
            for j in range(m):
                oracle = abs(inner_product(states[i], states[j])) ** 2
                overlap_err = max(overlap_err, abs(k[i, j] - oracle))
        # the inverse-circuit route, run one entry at a time
        direct = inverse_circuit_kernel(features[0], features[-1], spec)
        entry_err = max(entry_err, abs(k[0, -1] - direct))

    ok = (sym_err <= 1e-10 and diag_err <= 1e-10 and min_eig >= -1e-8
          and overlap_err <= 1e-10 and entry_err <= 1e-10)
    announce(4, ok, f"20 gram matrices symmetric/unit-diag/psd and match state "
                    f"overlaps (sym {sym_err:.1e}, diag {diag_err:.1e}, "
                    f"min eig {min_eig:.1e}, overlap err {overlap_err:.1e})")
    assert ok


def test_criterion_05_svm_kkt_and_monotone_objective():
    rng = np.random.default_rng(505)
    spec = FeatureMapSpec(2, 2)
    C = 50.0
    worst = {"zero": 0.0, "free": 0.0, "cap": 0.0}
    objective_ok = True
    for _ in range(10):
        features = rng.uniform(-math.pi, math.pi, (12, 2))
        gram = kernel_matrix(features, spec)
        labels = separable_kernel_labels(gram.entries, rng)
        model = train_qsvm(gram, labels, C=C, tol=1e-4, record_objective=True)
        alpha = np.zeros(12)
        alpha[model.support_indices] = model.dual_coeffs * labels[model.support_indices]
        slack = kkt_violations(gram.entries, labels, alpha, model.bias, C)
        for key in worst:
            worst[key] = max(worst[key], slack[key])
        diffs = np.diff(model.objective_history)
        objective_ok = objective_ok and bool(np.all(diffs >= -1e-12))
    ok = (worst["zero"] <= 1e-3 and worst["free"] <= 1e-2
          and worst["cap"] <= 1e-3 and objective_ok)
    announce(5, ok, f"svm solutions satisfy kkt conditions with non-decreasing "
                    f"dual objective (slack zero {worst['zero']:.1e}, free "
                    f"{worst['free']:.1e}, cap {worst['cap']:.1e})")
    assert ok


def test_criterion_06_both_models_learn_realizable_concepts():
    # labels from a fixed random 4-qubit teacher, re-learned from scratch
    t0 = time.perf_counter()
    data, _ = teacher_vqc_dataset(seed=47, n_qubits=4, n_layers=2, n_samples=40)
    model, _ = train_vqc(
        data, VqcModel.fresh(4, 2),
        TrainConfig(epochs=100, learning_rate=0.1, seed=48),
    )
    predicted = (model.predict_proba(data.features) >= 0.5).astype(int)
    vqc_acc = float(np.mean(predicted == data.labels))

    rng = np.random.default_rng(43)
    spec = FeatureMapSpec(4, 2)
    features = rng.uniform(-math.pi, math.pi, (20, 4))
    gram = kernel_matrix(features, spec)
    labels = separable_kernel_labels(gram.entries, rng)
    svm = train_qsvm(gram, labels, C=100.0, tol=1e-4)
    alpha = np.zeros(20)
    alpha[svm.support_indices] = svm.dual_coeffs * labels[svm.support_indices]
    decision = gram.entries @ (alpha * labels) + svm.bias
    svm_acc = float(np.mean(np.sign(decision) == labels))

    elapsed = time.perf_counter() - t0
    ok = vqc_acc >= 0.90 and svm_acc == 1.0 and elapsed < 300.0
    announce(6, ok, f"variational model reaches {vqc_acc:.0%} and kernel svm "
                    f"{svm_acc:.0%} train accuracy on realizable data "
                    f"({elapsed:.1f}s)")
    assert ok


def test_criterion_07_amplitude_encoding_scale_invariance():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(30):
        dim = int(rng.integers(2, 17))
        x = rng.normal(size=dim)
        scale = 10.0 ** rng.uniform(-6, 6)
        a = amplitude_encode(x)
        b = amplitude_encode(scale * x)
        worst = max(worst, float(np.abs(a.amplitudes - b.amplitudes).max()))
    rejects_zero = False
    try:
        amplitude_encode(np.zeros(4))
    except DegenerateInputError:
        rejects_zero = True
    ok = worst <= 1e-10 and rejects_zero
    announce(7, ok, f"amplitude encoding invariant under positive rescaling "
                    f"(max err {worst:.2e}) and rejects the zero vector")
    assert ok


def test_criterion_08_pca_basis_projection_and_degenerate_case():
    rng = np.random.default_rng(808)
    m = rng.normal(size=(6, 6))
    sym = (m + m.T) / 2.0
    evals, _ = jacobi_eigh(sym)
    eig_err = float(np.abs(np.sort(evals) - np.linalg.eigvalsh(sym)).max())

    data = Dataset(
        [f"f{i}" for i in range(5)], rng.normal(size=(30, 5)),
        rng.integers(0, 2, 30),
    )
    model = fit_pca(data, 5)
    # the production spectrum against the Jacobi oracle on the same covariance
    oracle_evals, _ = jacobi_eigh(np.cov(data.features, rowvar=False, ddof=1))
    spectrum_err = float(np.abs(model.explained_variance - np.sort(oracle_evals)[::-1]).max())
    basis = model.pca_basis
    ortho_err = float(np.abs(basis.T @ basis - np.eye(5)).max())
    projected = apply_pca(model, data)
    cov = np.cov(projected.features, rowvar=False, ddof=1)
    proj_err = float(np.abs(cov - np.diag(model.explained_variance)).max())
    # full-rank round trip: un-projecting restores the centered features
    rebuilt = projected.features @ basis.T + model.pca_center
    rebuild_err = float(np.abs(rebuilt - data.features).max())

    t = np.linspace(-2, 2, 9)
    line = Dataset(["x", "y"], np.column_stack([t, t]), np.zeros(9, dtype=int))
    second_ev = float(abs(fit_pca(line, 2).explained_variance[1]))

    ok = (eig_err <= 1e-8 and spectrum_err <= 1e-8 and ortho_err <= 1e-8
          and proj_err <= 1e-8 and rebuild_err <= 1e-8 and second_ev <= 1e-10)
    announce(8, ok, f"pca basis orthonormal, projection decorrelated, round "
                    f"trip exact, degenerate direction flat (eig {eig_err:.1e}, "
                    f"spectrum {spectrum_err:.1e}, ortho {ortho_err:.1e}, proj "
                    f"{proj_err:.1e}, rebuild {rebuild_err:.1e}, second ev "
                    f"{second_ev:.1e})")
    assert ok


def test_criterion_09_attribution_zero_and_analytic_values():
    rng = np.random.default_rng(909)
    detached = VqcModel(
        2, 2, rng.uniform(-math.pi, math.pi, 12),
        FeatureMapSpec(2, 2, entangling=False), entangling=False,
    )
    x = [0.8, -0.5]
    grad_zero = abs(grad_attribution(detached, x).scores[1])
    score_zero = abs(score_attribution(detached, x).scores[1])

    ident = VqcModel(1, 1, np.zeros(3), FeatureMapSpec(1, 1))
    analytic_err = 0.0
    for x0 in (0.3, 1.1, -0.9, 2.2):
        score = grad_attribution(ident, [x0]).scores[0]
        analytic_err = max(analytic_err, abs(score - (-0.5 * math.sin(x0))))

    ok = grad_zero <= 1e-10 and score_zero <= 1e-10 and analytic_err <= 1e-8
    announce(9, ok, f"both attribution methods vanish for disconnected "
                    f"features and the gradient matches the analytic "
                    f"derivative (grad {grad_zero:.1e}, occlusion "
                    f"{score_zero:.1e}, analytic err {analytic_err:.1e})")
    assert ok


def test_criterion_10_statistics_against_independent_oracles():
    rng = np.random.default_rng(1001)
    t_err = 0.0
    for _ in range(10):
        n = int(rng.integers(4, 13))
        a = rng.normal(0.85, 0.05, n)
        b = a - rng.normal(0.02, 0.03, n)
        t_stat, p_value = paired_t_test(a, b)
        p_oracle = t_two_sided_p_quadrature(t_stat, n - 1)
        t_err = max(t_err, abs(p_value - p_oracle))

    # 50/50 outcomes: the percentile interval should sit near the
    # binomial normal approximation 0.5 +/- 1.96 * sqrt(0.25 / 100)
    outcomes = np.zeros(100, dtype=int)
    outcomes[:50] = 1
    outcomes = outcomes[np.random.default_rng(10).permutation(100)]
    stats = bootstrap_ci(outcomes, iterations=1000, seed=10)
    se = math.sqrt(0.25 / 100.0)
    brackets = stats.ci_low <= stats.mean <= stats.ci_high
    close_to_normal = (abs(stats.ci_low - (0.5 - 1.96 * se)) <= 0.03
                       and abs(stats.ci_high - (0.5 + 1.96 * se)) <= 0.03)
    again = bootstrap_ci(outcomes, iterations=1000, seed=10)
    deterministic = (stats.mean, stats.ci_low, stats.ci_high) == (
        again.mean, again.ci_low, again.ci_high,
    )

    # hand-computed cases with dyadic intermediates hold exactly
    d_exact = cohens_d([-1.0, 0.0, 1.0], [1.0, 2.0, 3.0]) == -2.0
    kappa_exact = (cohens_kappa([1, 1, 0, 0], [1, 0, 0, 0]) == 0.5
                   and cohens_kappa([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0)

    ok = (t_err <= 1e-4 and brackets and close_to_normal and deterministic
          and d_exact and kappa_exact)
    announce(10, ok, f"t-test matches quadrature on 10 cases ({t_err:.1e}), "
                     f"bootstrap interval [{stats.ci_low:.3f}, "
                     f"{stats.ci_high:.3f}] sane and reproducible, effect "
                     f"sizes exact")
    assert ok


FROZEN_METRICS = {
    "accuracy": 0.8,
    "precision": 0.8,
    "recall": 0.8,
    "f1": 0.8000000000000002,
    "fpr": 0.2,
    "fnr": 0.2,
}
FROZEN_BOOTSTRAP = {
    "mean": 0.8,
    "ci_low": 0.5,
    "ci_high": 1.0,
    "coeff_variation": 0.16308949809421028,
}
FROZEN_CONFUSION = {"tp": 4, "fp": 1, "tn": 4, "fn": 1}


def test_criterion_11_end_to_end_run_is_frozen_and_reproducible(tmp_path):
    data, _ = teacher_vqc_dataset(seed=443, n_qubits=2, n_layers=1, n_samples=40)
    data_path = tmp_path / "data.csv"
    write_csv(data, data_path)
    config = PipelineConfig.from_dict({
        "seed": 11,
        "model": {"type": "vqc", "n_qubits": 2, "n_layers": 1, "repetitions": 1},
        "training": {"epochs": 50, "learning_rate": 0.1},
        "evaluation": {"test_fraction": 0.25, "bootstrap_iterations": 200},
        "preprocess": {"apply_pca": False},
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    report = run_experiment(config, data_path, out_a)
    run_experiment(config, data_path, out_b)

    metric_err = max(
        abs(report["metrics"][key] - value) for key, value in FROZEN_METRICS.items()
    )
    boot_err = max(
        abs(report["bootstrap"][key] - value) for key, value in FROZEN_BOOTSTRAP.items()
    )
    confusion_ok = report["confusion"] == FROZEN_CONFUSION
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("model.json", "preprocess.json", "predictions.csv",
                      "report.json", "report.txt")
    )

    ok = metric_err <= 1e-9 and boot_err <= 1e-9 and confusion_ok and identical
    announce(11, ok, f"end-to-end run reproduces frozen metrics (err "
                     f"{metric_err:.1e}) with byte-identical artifacts "
                     f"across reruns")
    assert ok
