"""Classifier tests: ansatz structure, gradients, loss, training."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from helpers import gate_level_probability, random_vqc, teacher_vqc_dataset

from qshield import vqc
from qshield.encoding import FeatureMapSpec
from qshield.errors import (
    ConfigError,
    DegenerateInputError,
    InvalidInputError,
    NumericalError,
    ShapeError,
)
from qshield.pipeline import predict_labels
from qshield.preprocess import Dataset
from qshield.statevector import evolve, new_zero_state, run_circuit
from qshield.vqc import (
    TrainConfig,
    VqcModel,
    ansatz_expectations,
    build_ansatz,
    encode_rows,
    param_shift_grad,
    train_vqc,
)


def make_model(n_qubits, n_layers, params, repetitions=2, **kwargs):
    return VqcModel(
        n_qubits, n_layers, np.asarray(params, dtype=float),
        FeatureMapSpec(n_qubits, repetitions, entangling=kwargs.pop("fm_entangling", True)),
        **kwargs,
    )


def predict_one(model, x) -> tuple[float, int]:
    """(probability, label) of one row, through the scoring step the CLI uses."""
    probabilities, labels = predict_labels(model, [x])
    return float(probabilities[0]), int(labels[0])


class TestAnsatz:
    def test_gate_count_two_qubits_one_layer(self):
        model = make_model(2, 1, np.zeros(6))
        assert len(build_ansatz(model).gates) == 8  # 6 rotations + 2 ring CNOTs

    def test_gate_count_three_qubits_four_layers(self):
        model = make_model(3, 4, np.zeros(36), repetitions=1)
        assert model.n_params == 36
        assert len(build_ansatz(model).gates) == 48

    def test_param_order_is_rx_ry_rz(self):
        model = make_model(2, 1, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        kinds = [g.kind for g in build_ansatz(model).gates[:6]]
        assert kinds == ["RX", "RY", "RZ", "RX", "RY", "RZ"]
        angles = [g.angle for g in build_ansatz(model).gates[:6]]
        assert angles == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]

    def test_zero_params_act_as_identity(self):
        model = make_model(2, 2, np.zeros(12))
        state = run_circuit(new_zero_state(2), build_ansatz(model))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-12)

    def test_wrong_param_count(self):
        with pytest.raises(ShapeError):
            make_model(2, 1, np.zeros(7))

    def test_zero_layers_rejected(self):
        with pytest.raises(ConfigError, match="n_layers"):
            VqcModel(2, 0, None, FeatureMapSpec(2))

    def test_feature_map_of_another_width_rejected(self):
        with pytest.raises(ConfigError, match="feature map is 3-qubit"):
            VqcModel(2, 1, None, FeatureMapSpec(3))

    def test_reassigned_params_of_wrong_length_rejected(self):
        model = make_model(2, 1, np.zeros(6))
        model.params = np.zeros(5)
        with pytest.raises(ShapeError):
            build_ansatz(model)

    def test_depth_cap(self):
        with pytest.raises(ConfigError):
            make_model(2, 11, np.zeros(66), repetitions=2)

    def test_single_qubit_has_no_ring(self):
        model = make_model(1, 2, np.zeros(6), repetitions=1)
        assert [g.kind for g in build_ansatz(model).gates] == ["RX", "RY", "RZ"] * 2


class TestForward:
    def test_trivial_model_predicts_one(self):
        model = make_model(2, 1, np.zeros(6))
        p, label = predict_one(model, [0.0, 0.0])
        assert p == pytest.approx(1.0, abs=1e-12)
        assert label == 1

    def test_rx_pi_reads_zero(self):
        model = make_model(1, 1, [math.pi, 0.0, 0.0], repetitions=1)
        p, label = predict_one(model, [0.0])
        assert p == pytest.approx(0.0, abs=1e-12)
        assert label == 0

    def test_tie_probability_labels_malicious(self):
        model = make_model(1, 1, [math.pi / 2, 0.0, 0.0], repetitions=1)
        p, label = predict_one(model, [0.0])
        assert p == pytest.approx(0.5, abs=1e-12)
        assert label == 1

    def test_single_qubit_matrix_oracle(self):
        # z after RZ(c) RY(b) RX(a) |0> via an independent 2x2 product
        a, b, c = 0.73, -1.4, 2.2
        model = make_model(1, 1, [a, b, c], repetitions=1)
        p, _ = predict_one(model, [0.0])

        def mat_rx(t):
            return np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                             [-1j * math.sin(t / 2), math.cos(t / 2)]])

        def mat_ry(t):
            return np.array([[math.cos(t / 2), -math.sin(t / 2)],
                             [math.sin(t / 2), math.cos(t / 2)]])

        def mat_rz(t):
            return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])

        vec = mat_rz(c) @ mat_ry(b) @ mat_rx(a) @ np.array([1.0, 0.0])
        z = abs(vec[0]) ** 2 - abs(vec[1]) ** 2
        assert p == pytest.approx((1 + z) / 2, abs=1e-12)

    def test_probability_in_unit_interval(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            model = random_vqc(rng, int(rng.integers(1, 5)), int(rng.integers(1, 3)))
            x = rng.uniform(-math.pi, math.pi, model.n_qubits)
            p, _ = predict_one(model, x)
            assert 0.0 <= p <= 1.0

    def test_amplitude_encoding_forward(self):
        # ring disabled so zero parameters leave the encoded state alone
        model = make_model(2, 1, np.zeros(6), encoding="amplitude", entangling=False)
        p, _ = predict_one(model, [1.0, 0.0, 0.0, 0.0])
        assert p == pytest.approx(1.0, abs=1e-12)
        # basis index 1: qubit 0 set, so the readout sees z = -1
        p, _ = predict_one(model, [0.0, 1.0])
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_encoding_ring_permutes_basis(self):
        # with the ring on, |01> -> CNOT(0,1) -> |11> -> CNOT(1,0) -> |10>
        model = make_model(2, 1, np.zeros(6), encoding="amplitude")
        p, _ = predict_one(model, [0.0, 1.0])
        assert p == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("encoding", ["amplitude", "angle"])
    def test_only_the_amplitude_encoding_scores_x_and_minus_x_alike(self, encoding):
        # the amplitude state of -x is minus that of x, and p is a quadratic form in it,
        # so this model cannot tell a row from its negation (ROADMAP item 15)
        rng = np.random.default_rng(150)
        model = make_model(4, 2, rng.uniform(-math.pi, math.pi, 24), encoding=encoding)
        X = rng.normal(size=(200, 4))
        same = np.array_equal(model.predict_proba(-X), model.predict_proba(X))
        assert same == (encoding == "amplitude")

    def test_appended_zero_layer_is_inert_without_ring(self):
        rng = np.random.default_rng(67)
        base = VqcModel(
            2, 1, rng.uniform(-math.pi, math.pi, 6),
            FeatureMapSpec(2, 1, entangling=False), entangling=False,
        )
        extended = VqcModel(
            2, 2, np.concatenate([base.params, np.zeros(6)]),
            FeatureMapSpec(2, 1, entangling=False), entangling=False,
        )
        x = [0.4, -0.9]
        assert predict_one(base, x)[0] == pytest.approx(predict_one(extended, x)[0], abs=1e-12)

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_probability_raises(self, p, monkeypatch):
        model = make_model(1, 1, np.zeros(3), repetitions=1)
        monkeypatch.setattr(model, "predict_proba", lambda features: np.full(len(features), p))
        with pytest.raises(NumericalError, match=re.escape(f"({p!r})")):
            predict_one(model, [0.0])


class TestParamShift:
    def test_analytic_single_qubit(self):
        # z(theta) = cos(theta) so the gradient at pi/2 is -1
        model = make_model(1, 1, [math.pi / 2, 0.0, 0.0], repetitions=1)
        grad = param_shift_grad(model, [0.0])
        np.testing.assert_allclose(grad, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(71)
        step = 1e-6
        for _ in range(6):
            n_qubits = int(rng.integers(1, 5))
            model = random_vqc(rng, n_qubits, int(rng.integers(1, 3)))
            x = rng.uniform(-1.5, 1.5, n_qubits)
            grad = param_shift_grad(model, x)
            for i in range(model.n_params):
                up = model.params.copy()
                up[i] += step
                down = model.params.copy()
                down[i] -= step
                z_up = 2 * replace(model, params=up).predict_proba([x])[0] - 1
                z_dn = 2 * replace(model, params=down).predict_proba([x])[0] - 1
                assert grad[i] == pytest.approx((z_up - z_dn) / (2 * step), abs=1e-5)

    def test_disconnected_qubit_has_zero_gradient(self):
        # no entangling rings anywhere: qubit 1 never reaches the readout
        rng = np.random.default_rng(73)
        model = VqcModel(
            2, 2, rng.uniform(-math.pi, math.pi, 12),
            FeatureMapSpec(2, 1, entangling=False), entangling=False,
        )
        grad = param_shift_grad(model, [0.8, -0.4])
        # layout [layer][qubit][rx ry rz]: qubit 1 owns indices 3..5 and 9..11
        for i in (3, 4, 5, 9, 10, 11):
            assert abs(grad[i]) < 1e-10

    def test_rz_on_readout_axis_has_zero_gradient(self):
        # the readout commutes with a final RZ, so its gradient vanishes
        model = make_model(1, 1, [0.9, 0.0, 1.3], repetitions=1)
        grad = param_shift_grad(model, [0.0])
        assert abs(grad[2]) < 1e-12


def training_loss(model, data) -> float:
    """The mean BCE that training records: the loss from the gradient sweep."""
    return vqc._bce_grad(model, encode_rows(model, data.features), data.labels.astype(float))[1]


class TestLoss:
    def test_half_probability_gives_log_two(self):
        model = make_model(1, 1, [math.pi / 2, 0.0, 0.0], repetitions=1)
        data = Dataset(["x"], np.zeros((4, 1)), np.array([0, 1, 0, 1]))
        assert training_loss(model, data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_quarter_probability_on_positive(self):
        theta = math.acos(-0.5)  # z = -1/2 so p = 1/4
        model = make_model(1, 1, [theta, 0.0, 0.0], repetitions=1)
        data = Dataset(["x"], np.zeros((1, 1)), np.array([1]))
        assert training_loss(model, data) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_correct_prediction_clamps(self):
        model = make_model(1, 1, [0.0, 0.0, 0.0], repetitions=1)
        data = Dataset(["x"], np.zeros((1, 1)), np.array([1]))
        assert training_loss(model, data) < 1e-6


class TestTraining:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_bad_optimizer_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, optimizer="sgd")

    def test_batched_path_matches_sequential(self):
        rng = np.random.default_rng(79)
        model = random_vqc(rng, 3, 2)
        features = rng.uniform(-1, 1, (7, 3))
        batched = ansatz_expectations(model, encode_rows(model, features))
        sequential = np.array(
            [2 * gate_level_probability(model, row) - 1 for row in features]
        )
        np.testing.assert_allclose(batched, sequential, atol=1e-12)

    def test_deterministic_given_seed(self):
        data, _ = teacher_vqc_dataset(seed=101, n_qubits=2, n_layers=1, n_samples=16)
        arch = VqcModel.fresh(2, 1)
        config = TrainConfig(epochs=5, learning_rate=0.05, seed=4)
        model_a, hist_a = train_vqc(data, arch, config)
        model_b, hist_b = train_vqc(data, arch, config)
        assert np.array_equal(model_a.params, model_b.params)
        assert hist_a == hist_b

    def test_loss_history_mostly_non_increasing(self):
        data, _ = teacher_vqc_dataset(seed=113, n_qubits=2, n_layers=1, n_samples=24)
        arch = VqcModel.fresh(2, 1)
        model, history = train_vqc(data, arch, TrainConfig(epochs=30, learning_rate=0.05, seed=1))
        assert len(history) == 31  # initial loss plus one entry per epoch
        steps = np.diff(history)
        assert np.mean(steps <= 1e-12) >= 0.8
        assert history[-1] < history[0]

    def test_learns_realizable_concept(self):
        data, _ = teacher_vqc_dataset(seed=131, n_qubits=2, n_layers=1, n_samples=30)
        arch = VqcModel.fresh(2, 1)
        model, _ = train_vqc(data, arch, TrainConfig(epochs=60, learning_rate=0.1, seed=2))
        predicted = (model.predict_proba(data.features) >= 0.5).astype(int)
        assert np.mean(predicted == data.labels) >= 0.9

    @pytest.mark.parametrize("epochs", [2, 4])
    def test_full_batch_loss_comes_from_the_gradient_sweep(self, epochs, monkeypatch):
        data, _ = teacher_vqc_dataset(seed=151, n_qubits=3, n_layers=1, n_samples=20)
        arch = VqcModel.fresh(3, 2)
        config = TrainConfig(epochs=epochs, learning_rate=0.1, seed=7)
        states = encode_rows(arch, data.features)

        def full_loss(params):  # one ansatz run over every row, as each epoch was once scored
            z = ansatz_expectations(replace(arch, params=params), states)
            return vqc._bce((1.0 + z) / 2.0, data.labels.astype(float))

        initial = np.random.default_rng(config.seed).uniform(-math.pi, math.pi, arch.n_params)
        expected = [full_loss(initial)] + [
            full_loss(train_vqc(data, arch, replace(config, epochs=e))[0].params)
            for e in range(1, epochs + 1)
        ]
        calls = []

        def counted_evolve(amps, circuit):
            calls.append(circuit)
            return evolve(amps, circuit)

        monkeypatch.setattr(vqc, "evolve", counted_evolve)
        _, history = train_vqc(data, arch, config)
        assert len(calls) == epochs + 1  # one sweep per epoch and one scoring the result
        assert history == expected

    def test_minibatch_training_runs(self):
        data, _ = teacher_vqc_dataset(seed=137, n_qubits=2, n_layers=1, n_samples=20)
        arch = VqcModel.fresh(2, 1)
        config = TrainConfig(epochs=5, learning_rate=0.05, batch_size=8, seed=3)
        model, history = train_vqc(data, arch, config)
        assert len(history) == 6
        assert np.isfinite(history).all()

    def test_minibatch_adam_matches_recorded_values(self):
        # 19 rows in batches of 5 (5, 5, 5, 4), a shuffle per epoch: the loss history
        # and the final parameters are recorded values, so any change to which rows
        # make a batch, or to the shuffle's draws, shows here
        data, _ = teacher_vqc_dataset(seed=157, n_qubits=2, n_layers=1, n_samples=19)
        config = TrainConfig(epochs=3, learning_rate=0.05, batch_size=5, seed=8)
        model, history = train_vqc(data, VqcModel.fresh(2, 1), config)
        assert repr(history) == (
            "[1.4717415745057871, 1.15812387952284, 0.902210074256171, 0.7034699050930077]"
        )
        assert repr(model.params.tolist()) == (
            "[-1.087165253697278, 3.061650700215168, -1.1390733986622765, "
            "2.345707087423603, 2.912378344055619, -0.6843343451016323]"
        )

    def test_gd_optimizer_runs(self):
        data, _ = teacher_vqc_dataset(seed=139, n_qubits=2, n_layers=1, n_samples=16)
        arch = VqcModel.fresh(2, 1)
        model, history = train_vqc(data, arch, TrainConfig(epochs=8, learning_rate=0.3, optimizer="gd", seed=5))
        assert history[-1] <= history[0]

    def test_empty_training_set_rejected(self):
        data = Dataset(["x"], np.zeros((0, 1)), np.zeros(0, dtype=int))
        with pytest.raises(DegenerateInputError):
            train_vqc(data, VqcModel.fresh(1, 1), TrainConfig(epochs=1))

    def test_non_binary_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(["x"], np.zeros((2, 1)), np.array([0, 2]))

    def test_training_metadata_recorded(self):
        data, _ = teacher_vqc_dataset(seed=149, n_qubits=2, n_layers=1, n_samples=12)
        model, history = train_vqc(
            data, VqcModel.fresh(2, 1), TrainConfig(epochs=2, learning_rate=0.05, seed=6)
        )
        assert model.optimizer_meta["optimizer"] == "adam"
        assert model.optimizer_meta["final_loss"] == history[-1]
        assert model.rng_seed == 6
