"""Attribution tests: adjoint GRAD scores against the parameter-shift
table and finite differences, occlusion scores, ranking."""
import csv
import math

import numpy as np
import pytest
from helpers import random_vqc, shift_attribution, traced_peak

from qshield.encoding import FeatureMapSpec
from qshield.errors import InvalidInputError, ShapeError, UnsupportedMethodError
from qshield.explain import (
    AttributionReport,
    format_attribution,
    grad_attribution,
    rank_features,
    score_attribution,
    write_attribution_csv,
)
from qshield.statevector import Observable
from qshield.vqc import VqcModel


def identity_model(n_qubits, repetitions=1, entangling=True):
    return VqcModel(
        n_qubits, 1, np.zeros(3 * n_qubits),
        FeatureMapSpec(n_qubits, repetitions, entangling=entangling),
        entangling=entangling,
    )


# (qubits, ansatz layers, repetitions, entangling, features supplied, readout qubit)
SHIFT_CASES = {
    "1q": (1, 1, 1, True, 1, 0),
    "2q-3rep-readout-1": (2, 2, 3, True, 2, 1),
    "3q-2rep-no-ring": (3, 2, 2, False, 3, 0),
    "3q-short-readout-2": (3, 1, 1, True, 1, 2),
    "4q-3rep-short-readout-3": (4, 2, 3, True, 3, 3),
    "4q-no-ring-short-readout-1": (4, 1, 2, False, 2, 1),
    "5q-3rep-readout-2": (5, 2, 3, True, 5, 2),
    "5q-no-ring-short-readout-4": (5, 1, 1, False, 4, 4),
}


class TestGradAttribution:
    @pytest.mark.parametrize("name", sorted(SHIFT_CASES))
    def test_matches_parameter_shift_table(self, name):
        n, layers, reps, entangling, d, readout = SHIFT_CASES[name]
        rng = np.random.default_rng(sorted(SHIFT_CASES).index(name))
        model = VqcModel(
            n, layers, rng.uniform(-math.pi, math.pi, 3 * n * layers),
            FeatureMapSpec(n, reps, entangling=entangling),
            readout=Observable(readout), entangling=entangling,
        )
        x = rng.uniform(-2.5, 2.5, d)
        adjoint, shift = grad_attribution(model, x), shift_attribution(model, x)
        np.testing.assert_allclose(adjoint.scores, shift.scores, atol=1e-12, rtol=0)
        assert adjoint.base_probability == pytest.approx(shift.base_probability, abs=1e-12, rel=0)

    def test_memory_is_a_few_states(self):
        # one sweep holds about six 14-qubit states (256 KiB each); a shift table
        # encodes 1 + 2 * 14 * 2 = 57 rows at once, about 50 MiB with temporaries
        model = random_vqc(np.random.default_rng(83), 14, 1)
        x = np.random.default_rng(84).uniform(-1.0, 1.0, 14)
        report, peak = traced_peak(grad_attribution, model, x)
        assert len(report.scores) == 14
        assert peak <= 16 * 2**14 * 16

    def test_single_qubit_analytic_derivative(self):
        # identity ansatz, one repetition: p = cos^2(x/2), dp/dx = -sin(x)/2
        model = identity_model(1)
        for x0 in (0.3, 1.0, -0.7, 2.4):
            report = grad_attribution(model, [x0])
            assert report.scores[0] == pytest.approx(-0.5 * math.sin(x0), abs=1e-10)
            assert report.base_probability == pytest.approx(
                math.cos(x0 / 2.0) ** 2, abs=1e-12
            )

    def test_repetitions_sum_to_total_derivative(self):
        # two repetitions stack to RY(2x): p = cos^2(x), dp/dx = -sin(2x)
        model = identity_model(1, repetitions=2)
        for x0 in (0.4, -1.1):
            report = grad_attribution(model, [x0])
            assert report.scores[0] == pytest.approx(-math.sin(2.0 * x0), abs=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        step = 1e-6
        for _ in range(5):
            n = int(rng.integers(1, 4))
            model = random_vqc(rng, n, 2)
            x = rng.uniform(-1.2, 1.2, n)
            report = grad_attribution(model, x)
            for j in range(n):
                up = x.copy()
                up[j] += step
                down = x.copy()
                down[j] -= step
                p_up, p_down = model.predict_proba([up, down])
                fd = (p_up - p_down) / (2.0 * step)
                assert report.scores[j] == pytest.approx(fd, abs=1e-5)

    def test_disconnected_feature_scores_zero(self):
        # without entangling rings, qubit 1 never influences the readout
        rng = np.random.default_rng(81)
        model = VqcModel(
            2, 2, rng.uniform(-math.pi, math.pi, 12),
            FeatureMapSpec(2, 2, entangling=False), entangling=False,
        )
        report = grad_attribution(model, [0.9, -1.3])
        assert abs(report.scores[1]) < 1e-12
        assert abs(report.scores[0]) > 1e-3

    def test_weighted_scores_clamp_negatives(self):
        model = identity_model(1)
        x0 = 1.0  # score -sin(1)/2 < 0, so the weighted value clamps to 0
        report = grad_attribution(model, [x0])
        assert report.weighted_scores[0] == 0.0
        x0 = -1.0  # positive score times negative feature
        report = grad_attribution(model, [x0])
        assert report.weighted_scores[0] == pytest.approx(
            -0.5 * math.sin(-1.0) * -1.0, abs=1e-10
        )

    def test_clamped_weighted_score_is_positive_zero(self):
        # a negative score meets a negative feature: 0.0, never -0.0
        report = grad_attribution(identity_model(1), [-4.0])
        assert report.scores[0] < 0
        assert math.copysign(1.0, report.weighted_scores[0]) == 1.0
        table = format_attribution(report)
        assert "+0.000000" in table and "-0.000000" not in table

    def test_short_input_pads_with_zeros(self):
        model = identity_model(3)
        report = grad_attribution(model, [0.5])
        assert len(report.scores) == 1  # only supplied features are scored

    def test_amplitude_models_rejected(self):
        model = VqcModel(
            2, 1, np.zeros(6), FeatureMapSpec(2, 1), encoding="amplitude",
        )
        with pytest.raises(UnsupportedMethodError):
            grad_attribution(model, [0.5, 0.5])

    def test_method_tag(self):
        report = grad_attribution(identity_model(1), [0.2])
        assert report.method == "GRAD"


class TestScoreAttribution:
    def test_callable_model_with_known_arithmetic(self):
        def predict(rows):
            return 0.1 + 0.2 * rows[:, 0] + 0.3 * rows[:, 1]

        report = score_attribution(predict, [1.0, 2.0])
        assert report.base_probability == pytest.approx(0.9, abs=1e-12)
        # zeroing x0 removes 0.2, zeroing x1 removes 0.6
        assert report.scores[0] == pytest.approx(0.2, abs=1e-12)
        assert report.scores[1] == pytest.approx(0.6, abs=1e-12)
        assert report.weighted_scores == report.scores

    def test_custom_baseline(self):
        def predict(rows):
            return 0.5 * rows[:, 0]

        report = score_attribution(predict, [1.0], baseline=[0.4])
        assert report.scores[0] == pytest.approx(0.5 - 0.2, abs=1e-12)

    def test_callable_must_return_one_probability_per_row(self):
        with pytest.raises(ShapeError):
            score_attribution(lambda rows: 0.5, [1.0, 2.0])

    def test_baseline_shape_mismatch(self):
        with pytest.raises(ShapeError):
            score_attribution(lambda rows: np.full(len(rows), 0.5), [1.0, 2.0], baseline=[0.0])

    def test_model_objects_use_predict_proba(self):
        model = identity_model(1)
        report = score_attribution(model, [0.8])
        direct, occluded = model.predict_proba([[0.8], [0.0]])
        assert report.base_probability == pytest.approx(direct, abs=1e-12)
        assert report.scores[0] == pytest.approx(direct - occluded, abs=1e-12)

    def test_works_for_amplitude_models(self):
        model = VqcModel(
            2, 1, np.zeros(6), FeatureMapSpec(2, 1),
            encoding="amplitude", entangling=False,
        )
        report = score_attribution(model, [0.6, 0.8])
        assert report.method == "SCORE"
        assert len(report.scores) == 2

    def test_grad_and_score_agree_on_sign_for_small_angles(self):
        # both methods must mark the same feature as probability-raising
        model = identity_model(2)
        x = [0.9, 0.3]
        g = grad_attribution(model, x)
        s = score_attribution(model, x)
        for j in range(2):
            if abs(s.scores[j]) > 1e-6:
                # occlusion removes the feature, so its sign flips relative
                # to the derivative only when the derivative is negative at 0
                assert (g.scores[j] < 0) == (s.scores[j] < 0)


class TestRanking:
    def report(self, scores):
        return AttributionReport(
            feature_indices=tuple(range(len(scores))),
            scores=tuple(scores),
            weighted_scores=tuple(scores),
            method="SCORE",
            base_probability=0.5,
        )

    def test_magnitude_descending(self):
        ranked = rank_features(self.report([0.1, -0.5, 0.3]), 3)
        assert [i for i, _ in ranked] == [1, 2, 0]

    def test_ties_break_on_lower_index(self):
        ranked = rank_features(self.report([0.2, -0.2, 0.1]), 2)
        assert [i for i, _ in ranked] == [0, 1]

    def test_top_k_truncates(self):
        ranked = rank_features(self.report([0.4, 0.2, 0.9, 0.1]), 2)
        assert [i for i, _ in ranked] == [2, 0]

    def test_top_k_bounds(self):
        rep = self.report([0.1, 0.2])
        for bad in (0, 3, -1):
            with pytest.raises(InvalidInputError):
                rank_features(rep, bad)


class TestOutput:
    def test_format_lists_features_in_rank_order(self):
        report = AttributionReport(
            feature_indices=(0, 1),
            scores=(0.1, -0.8),
            weighted_scores=(0.05, 0.0),
            method="GRAD",
            base_probability=0.75,
        )
        text = format_attribution(report, ["entropy", "imports"])
        lines = text.splitlines()
        assert "GRAD" in lines[0]
        assert "0.750000" in lines[0]
        assert lines[2].split()[1] == "imports"
        assert lines[3].split()[1] == "entropy"

    def test_format_name_count_mismatch(self):
        report = AttributionReport((0,), (0.1,), (0.1,), "SCORE", 0.5)
        with pytest.raises(ShapeError):
            format_attribution(report, ["a", "b"])

    def test_csv_round_trip(self, tmp_path):
        report = AttributionReport(
            feature_indices=(0, 1, 2),
            scores=(0.25, -0.5, 0.1),
            weighted_scores=(0.125, 0.0, 0.02),
            method="GRAD",
            base_probability=0.6,
        )
        path = tmp_path / "attr.csv"
        write_attribution_csv(report, path, ["a", "b", "c"])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature_name", "raw_score", "weighted_score", "rank"]
        assert rows[1] == ["a", "0.25", "0.125", "2"]
        assert rows[2] == ["b", "-0.5", "0.0", "1"]
        assert rows[3] == ["c", "0.1", "0.02", "3"]
