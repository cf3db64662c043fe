"""Kernel matrix and dual SVM tests."""
import math
import warnings

import numpy as np
import pytest
from helpers import (
    inverse_circuit_kernel,
    jacobi_eigh,
    kkt_violations,
    reference_train_qsvm,
    separable_kernel_labels,
    svm_decision_oracle,
    traced_peak,
)

from qshield.encoding import FeatureMapSpec, apply_feature_map, feature_map_circuit
from qshield.errors import (
    ConfigError,
    DegenerateInputError,
    InvalidInputError,
    NumericalError,
    ShapeError,
)
from qshield.pipeline import predict_labels
from qshield.preprocess import Dataset
from qshield.qkernel import (
    BOUND_SNAP,
    KernelMatrix,
    SvmModel,
    kernel_matrix,
    train_qsvm,
    write_kernel_csv,
)
from qshield.statevector import CHUNK_AMPLITUDES, evolve, inner_product, new_zero_state


def kernel_entry(a, b, spec: FeatureMapSpec) -> float:
    """K(a, b) read off the Gram matrix of the two rows."""
    return float(kernel_matrix(np.array([a, b], dtype=float), spec).entries[0, 1])


def full_alpha(model: SvmModel, labels: np.ndarray, m: int) -> np.ndarray:
    alpha = np.zeros(m)
    alpha[model.support_indices] = model.dual_coeffs * labels[model.support_indices]
    return alpha


def dual_objective(alpha, labels, entries):
    q = np.outer(labels, labels) * entries
    return float(alpha.sum() - 0.5 * alpha @ q @ alpha)


class TestKernelEntry:
    def test_self_overlap_is_one(self):
        spec = FeatureMapSpec(3, 2)
        x = np.array([0.3, -1.1, 2.0])
        assert kernel_entry(x, x, spec) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_in_arguments(self):
        spec = FeatureMapSpec(2, 2)
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = rng.uniform(-math.pi, math.pi, (2, 2))
            assert kernel_entry(a, b, spec) == pytest.approx(
                kernel_entry(b, a, spec), abs=1e-12
            )

    def test_matches_direct_state_overlap(self):
        # independent route: build both states, square the inner product
        spec = FeatureMapSpec(3, 2)
        rng = np.random.default_rng(13)
        for _ in range(10):
            a, b = rng.uniform(-math.pi, math.pi, (2, 3))
            sa = apply_feature_map(a, spec)
            sb = apply_feature_map(b, spec)
            oracle = abs(inner_product(sa, sb)) ** 2
            assert kernel_entry(a, b, spec) == pytest.approx(oracle, abs=1e-10)

    def test_single_qubit_closed_form(self):
        # one repetition, one qubit: K = cos^2((b - a) / 2)
        spec = FeatureMapSpec(1, 1)
        for a, b in [(0.0, math.pi), (0.2, 1.7), (-2.0, 0.5)]:
            expect = math.cos((b - a) / 2.0) ** 2
            assert kernel_entry([a], [b], spec) == pytest.approx(expect, abs=1e-12)

    def test_orthogonal_rows_score_zero(self):
        spec = FeatureMapSpec(1, 1)
        assert kernel_entry([0.0], [math.pi], spec) == pytest.approx(0.0, abs=1e-12)

    def test_entries_within_unit_interval(self):
        spec = FeatureMapSpec(2, 3)
        rng = np.random.default_rng(17)
        for _ in range(25):
            a, b = rng.uniform(-4, 4, (2, 2))
            v = kernel_entry(a, b, spec)
            assert -1e-12 <= v <= 1.0 + 1e-12


class TestKernelMatrix:
    def setup_method(self):
        rng = np.random.default_rng(19)
        self.spec = FeatureMapSpec(2, 2)
        self.features = rng.uniform(-math.pi, math.pi, (8, 2))
        self.gram = kernel_matrix(self.features, self.spec)

    def test_exact_mirror_symmetry(self):
        assert np.array_equal(self.gram.entries, self.gram.entries.T)

    def test_unit_diagonal(self):
        np.testing.assert_allclose(np.diag(self.gram.entries), 1.0, atol=1e-12)

    def test_validate_accepts_real_gram(self):
        self.gram.validate()

    def test_entries_match_pairwise_calls(self):
        for i in range(4):
            for j in range(4):
                direct = inverse_circuit_kernel(self.features[i], self.features[j], self.spec)
                assert self.gram.entries[i, j] == pytest.approx(direct, abs=1e-10)

    def test_psd_by_independent_eigensolver(self):
        eigvals, _ = jacobi_eigh(self.gram.entries)
        assert eigvals.min() >= -1e-8

    def test_dataset_and_array_inputs_agree(self):
        data = Dataset(
            ["a", "b"], self.features, np.zeros(len(self.features), dtype=int)
        )
        via_dataset = kernel_matrix(data, self.spec)
        assert np.array_equal(via_dataset.entries, self.gram.entries)

    def test_zero_samples_rejected(self):
        with pytest.raises(DegenerateInputError):
            kernel_matrix(np.zeros((0, 2)), self.spec)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ShapeError):
            kernel_matrix(np.zeros(4), self.spec)

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ShapeError):
            KernelMatrix(np.zeros((2, 3)))

    def test_validate_flags_asymmetry(self):
        bad = self.gram.entries.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(NumericalError):
            KernelMatrix(bad).validate()

    def test_validate_flags_bad_diagonal(self):
        bad = self.gram.entries.copy()
        bad[2, 2] = 0.5
        with pytest.raises(NumericalError):
            KernelMatrix(bad).validate()

    def test_validate_flags_out_of_range(self):
        bad = np.eye(3)
        bad[0, 1] = bad[1, 0] = 1.5
        with pytest.raises(NumericalError):
            KernelMatrix(bad).validate()

    @pytest.mark.parametrize("n, reps, entangling", [(1, 1, True), (3, 2, True), (5, 3, False)])
    def test_entries_match_complex_overlaps(self, n, reps, entangling):
        # the real product (S S^T)^2 against |S* S^T|^2 over states evolved in complex128
        rng = np.random.default_rng(n)
        spec = FeatureMapSpec(n, reps, entangling=entangling)
        features = rng.uniform(-4.0, 4.0, (40, n))
        zero = new_zero_state(n).amplitudes
        states = evolve(np.broadcast_to(zero, (40, zero.size)), feature_map_circuit(features, spec))
        assert states.dtype == complex
        oracle = np.abs(states.conj() @ states.T) ** 2
        gram = kernel_matrix(features, spec).entries
        np.testing.assert_allclose(gram, oracle, atol=1e-14, rtol=0)

    def test_large_gram_is_psd(self):
        # a fit trusts the Schur product theorem instead of an eigensolver; at
        # 4 qubits the rank is at most 136, so most eigenvalues are round-off zeros
        rng = np.random.default_rng(23)
        gram = kernel_matrix(rng.uniform(-math.pi, math.pi, (1500, 4)), FeatureMapSpec(4, 2))
        assert np.linalg.eigvalsh(gram.entries).min() >= -1e-10

    def test_validate_flags_indefinite(self):
        # symmetric, unit diagonal, entries in range, yet min eig < 0
        bad = np.array([
            [1.0, 0.9, 0.0],
            [0.9, 1.0, 0.9],
            [0.0, 0.9, 1.0],
        ])
        assert np.linalg.eigvalsh(bad).min() < -0.2
        with pytest.raises(NumericalError):
            KernelMatrix(bad).validate()


class TestSvmTraining:
    def test_two_orthogonal_points_closed_form(self):
        # K = I: the dual optimum is alpha = (1, 1), bias 0
        spec = FeatureMapSpec(1, 1)
        vectors = np.array([[0.0], [math.pi]])
        gram = kernel_matrix(vectors, spec)
        labels = np.array([1.0, -1.0])
        model = train_qsvm(gram, labels, C=10.0, vectors=vectors, feature_map=spec)
        alpha = full_alpha(model, labels, 2)
        np.testing.assert_allclose(alpha, [1.0, 1.0], atol=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        assert model.converged
        assert list(model.support_indices) == [0, 1]

    def test_two_point_closed_form_general_overlap(self):
        # for any kernel value k the paired optimum is alpha = 1 / (1 - k)
        spec = FeatureMapSpec(1, 1)
        vectors = np.array([[0.3], [1.9]])
        gram = kernel_matrix(vectors, spec)
        k = gram.entries[0, 1]
        labels = np.array([1.0, -1.0])
        model = train_qsvm(gram, labels, C=100.0, vectors=vectors, feature_map=spec)
        alpha = full_alpha(model, labels, 2)
        np.testing.assert_allclose(alpha, 1.0 / (1.0 - k), atol=1e-9)
        # both points sit exactly on the margin
        np.testing.assert_allclose(labels * svm_decision_oracle(model, vectors), 1.0, atol=1e-9)

    def test_kkt_conditions_on_separable_problem(self):
        rng = np.random.default_rng(23)
        spec = FeatureMapSpec(2, 2)
        features = rng.uniform(-math.pi, math.pi, (14, 2))
        gram = kernel_matrix(features, spec)
        labels = separable_kernel_labels(gram.entries, rng)
        model = train_qsvm(gram, labels, C=50.0, tol=1e-4)
        alpha = full_alpha(model, labels, 14)
        slack = kkt_violations(gram.entries, labels, alpha, model.bias, 50.0)
        assert slack["zero"] <= 1e-3
        assert slack["free"] <= 1e-2
        assert slack["cap"] <= 1e-3

    def test_objective_history_non_decreasing(self):
        rng = np.random.default_rng(29)
        spec = FeatureMapSpec(2, 2)
        features = rng.uniform(-math.pi, math.pi, (12, 2))
        gram = kernel_matrix(features, spec)
        labels = separable_kernel_labels(gram.entries, rng)
        model = train_qsvm(gram, labels, C=5.0, record_objective=True)
        history = np.array(model.objective_history)
        assert len(history) == model.n_updates + 1
        assert np.all(np.diff(history) >= -1e-12)

    def test_objective_history_matches_direct_evaluation(self):
        # incremental bookkeeping must agree with W(alpha) computed from scratch
        rng = np.random.default_rng(31)
        spec = FeatureMapSpec(2, 2)
        features = rng.uniform(-math.pi, math.pi, (10, 2))
        gram = kernel_matrix(features, spec)
        labels = separable_kernel_labels(gram.entries, rng)
        model = train_qsvm(gram, labels, C=3.0, record_objective=True)
        alpha = full_alpha(model, labels, 10)
        assert model.objective_history[-1] == pytest.approx(
            dual_objective(alpha, labels, gram.entries), abs=1e-9
        )

    def test_deterministic(self):
        rng = np.random.default_rng(37)
        spec = FeatureMapSpec(2, 1)
        features = rng.uniform(-math.pi, math.pi, (9, 2))
        gram = kernel_matrix(features, spec)
        labels = separable_kernel_labels(gram.entries, rng)
        a = train_qsvm(gram, labels, C=2.0)
        b = train_qsvm(gram, labels, C=2.0)
        assert np.array_equal(a.dual_coeffs, b.dual_coeffs)
        assert a.bias == b.bias
        assert a.n_updates == b.n_updates

    def test_transposed_gram_gives_the_same_fit(self):
        # the update reads kernel rows for columns, which needs an exactly symmetric Gram
        rng = np.random.default_rng(39)
        spec = FeatureMapSpec(3, 2)
        features = rng.uniform(-math.pi, math.pi, (40, 3))
        gram = kernel_matrix(features, spec)
        labels = np.where(rng.random(40) < 0.5, -1.0, 1.0)
        a = train_qsvm(gram, labels, C=1.0)
        b = train_qsvm(KernelMatrix(gram.entries.T.copy()), labels, C=1.0)
        assert a.n_updates > 10
        assert np.array_equal(a.dual_coeffs, b.dual_coeffs)
        assert np.array_equal(a.support_indices, b.support_indices)
        assert a.bias == b.bias
        assert a.n_updates == b.n_updates

    def test_capped_alphas_snap_exactly(self):
        rng = np.random.default_rng(41)
        spec = FeatureMapSpec(2, 2)
        features = rng.uniform(-math.pi, math.pi, (12, 2))
        gram = kernel_matrix(features, spec)
        labels = np.ones(12)
        labels[rng.permutation(12)[:6]] = -1.0
        model = train_qsvm(gram, labels, C=0.05)
        alpha = full_alpha(model, labels, 12)
        capped = alpha[np.isclose(alpha, 0.05, atol=1e-9)]
        assert capped.size > 0
        assert np.all(capped == 0.05)

    def test_update_limit_is_reported_as_data(self):
        rng = np.random.default_rng(43)
        spec = FeatureMapSpec(2, 2)
        features = rng.uniform(-math.pi, math.pi, (10, 2))
        gram = kernel_matrix(features, spec)
        labels = separable_kernel_labels(gram.entries, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_qsvm(gram, labels, C=50.0, max_passes=1)
        assert not model.converged
        assert model.n_updates == 1

    def test_zero_one_labels_rejected(self):
        gram = KernelMatrix(np.eye(2))
        with pytest.raises(InvalidInputError):
            train_qsvm(gram, [0.0, 1.0], C=1.0)

    def test_single_class_rejected(self):
        gram = KernelMatrix(np.eye(2))
        with pytest.raises(InvalidInputError):
            train_qsvm(gram, [1.0, 1.0], C=1.0)

    def test_label_count_mismatch_rejected(self):
        gram = KernelMatrix(np.eye(3))
        with pytest.raises(ShapeError):
            train_qsvm(gram, [1.0, -1.0], C=1.0)

    def test_nonpositive_c_rejected(self):
        gram = KernelMatrix(np.eye(2))
        with pytest.raises(ConfigError):
            train_qsvm(gram, [1.0, -1.0], C=0.0)

    def test_vector_count_mismatch_rejected(self):
        gram = KernelMatrix(np.eye(2))
        with pytest.raises(ShapeError):
            train_qsvm(gram, [1.0, -1.0], C=1.0, vectors=np.zeros((3, 2)))

    def test_c_below_bound_snap_rejected(self):
        # every step of a smaller C would snap back to 0 and leave no support vector
        gram = KernelMatrix(np.eye(2))
        with pytest.raises(ConfigError, match="C must be at least"):
            train_qsvm(gram, [1.0, -1.0], C=BOUND_SNAP / 10)
        model = train_qsvm(gram, [1.0, -1.0], C=BOUND_SNAP)
        assert model.converged
        assert list(model.support_indices) == [0, 1]

    def test_one_dimensional_vectors_rejected(self):
        # a 1-D vector per row would fit, then fail at scoring time
        gram = KernelMatrix(np.eye(2))
        with pytest.raises(ShapeError):
            train_qsvm(gram, [1.0, -1.0], C=1.0, vectors=np.zeros(2))

    def test_matches_the_unsigned_alpha_solver(self):
        # the signed duals beta = y * alpha reproduce the alpha-form SMO bit for bit
        rng = np.random.default_rng(53)
        exhausted = converged = 0
        for _ in range(240):
            n_qubits = int(rng.integers(1, 5))
            m = int(rng.integers(4, 121))
            spec = FeatureMapSpec(n_qubits, int(rng.integers(1, 3)))
            gram = kernel_matrix(rng.uniform(-math.pi, math.pi, (m, n_qubits)), spec)
            labels = np.where(rng.random(m) < rng.uniform(0.2, 0.8), -1.0, 1.0)
            labels[:2] = (1.0, -1.0)
            labels = labels[rng.permutation(m)]
            C = float(10.0 ** rng.uniform(-3, 2))
            tol = float(10.0 ** rng.uniform(-6, -1))
            max_passes = int(np.exp(rng.uniform(0, math.log(400))))
            got = train_qsvm(gram, labels, C, tol, max_passes, record_objective=True)
            want = reference_train_qsvm(gram, labels, C, tol, max_passes, record_objective=True)
            assert np.array_equal(got.dual_coeffs, want.dual_coeffs)
            assert got.bias == want.bias
            assert np.array_equal(got.support_indices, want.support_indices)
            assert got.n_updates == want.n_updates
            assert got.converged == want.converged
            assert got.objective_history == want.objective_history
            exhausted += not got.converged
            converged += got.converged
        assert exhausted >= 20 and converged >= 20


class TestSvmPrediction:
    def setup_method(self):
        rng = np.random.default_rng(47)
        self.spec = FeatureMapSpec(2, 2)
        self.features = rng.uniform(-math.pi, math.pi, (12, 2))
        self.gram = kernel_matrix(self.features, self.spec)
        self.labels = separable_kernel_labels(self.gram.entries, rng)
        self.model = train_qsvm(
            self.gram, self.labels, C=50.0,
            vectors=self.features, feature_map=self.spec,
        )

    def test_training_rows_classified_by_decision_sign(self):
        # p = logistic(decision), so p >= 0.5 exactly when the decision is >= 0
        predicted = np.where(self.model.predict_proba(self.features) >= 0.5, 1.0, -1.0)
        np.testing.assert_array_equal(predicted, self.labels)

    def test_probability_is_logistic_of_decision(self):
        decision = svm_decision_oracle(self.model, self.features)
        expect = 1.0 / (1.0 + np.exp(-decision))
        np.testing.assert_allclose(self.model.predict_proba(self.features), expect, atol=1e-12)

    def test_label_agrees_with_oracle_decision_sign(self):
        row = self.features[3]
        label = predict_labels(self.model, [row])[1][0]
        assert label == int(svm_decision_oracle(self.model, [row])[0] >= 0)

    def test_decision_needs_stored_vectors(self):
        stripped = SvmModel(
            dual_coeffs=self.model.dual_coeffs,
            bias=self.model.bias,
            support_indices=self.model.support_indices,
            support_vectors=None,
            C=self.model.C,
            feature_map=None,
        )
        with pytest.raises(ConfigError):
            stripped.predict_proba(self.features[:1])

    def test_support_vector_width_must_match_input(self):
        with pytest.raises(ShapeError):
            self.model.predict_proba(np.zeros((2, 1)))

    def test_scoring_memory_is_bounded_by_the_chunk(self):
        # 3000 rows against 1500 support vectors: the rows' overlaps with the
        # support vectors come in chunks of at most CHUNK_AMPLITUDES float64
        # values, and at most two such chunks (overlaps and their squares) live
        # at once, whatever the row count
        rng = np.random.default_rng(59)
        spec = FeatureMapSpec(4, 2)
        model = SvmModel(
            dual_coeffs=rng.normal(size=1500),
            bias=0.1,
            support_indices=np.arange(1500),
            support_vectors=rng.uniform(-math.pi, math.pi, (1500, 4)),
            C=1.0,
            feature_map=spec,
        )
        rows = rng.uniform(-math.pi, math.pi, (3000, 4))
        probs, peak = traced_peak(model.predict_proba, rows)
        assert peak <= 2.5 * 8 * CHUNK_AMPLITUDES
        picked = [698, 699]  # either side of the first chunk boundary
        expect = 1.0 / (1.0 + np.exp(-svm_decision_oracle(model, rows[picked])))
        np.testing.assert_allclose(probs[picked], expect, atol=1e-12, rtol=0)

    def test_probability_bounds(self):
        rng = np.random.default_rng(53)
        p = self.model.predict_proba(rng.uniform(-math.pi, math.pi, (10, 2)))
        assert np.all((0.0 < p) & (p < 1.0))


class TestKernelCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(59)
        gram = kernel_matrix(rng.uniform(-1, 1, (5, 2)), FeatureMapSpec(2, 1))
        path = tmp_path / "kernel.csv"
        write_kernel_csv(gram, path)
        back = np.loadtxt(path, delimiter=",")
        assert np.array_equal(back, gram.entries)
