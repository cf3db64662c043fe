"""Metrics, bootstrap intervals, effect sizes, and the t-test machinery."""
import math

import numpy as np
import pytest
from helpers import reference_bootstrap_ci, t_two_sided_p_quadrature, traced_peak

from qshield.errors import InvalidInputError, ShapeError
from qshield.evalstats import (
    ConfusionMatrix,
    StatReport,
    bootstrap_ci,
    cohens_d,
    cohens_kappa,
    confusion,
    format_metrics_table,
    metrics,
    paired_t_test,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)


class TestConfusion:
    def test_counts(self):
        preds = [1, 1, 0, 0, 1, 0]
        truth = [1, 0, 0, 1, 1, 0]
        cm = confusion(preds, truth)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)
        assert cm.total == 6

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidInputError):
            confusion([1, 2], [1, 0])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            confusion([], [])

    def test_matrix_rejected(self):
        with pytest.raises(ShapeError):
            confusion([[1, 0]], [1, 0])


class TestMetrics:
    def test_textbook_case(self):
        report = metrics(ConfusionMatrix(tp=40, fp=10, tn=35, fn=15))
        assert report.accuracy == pytest.approx(0.75)
        assert report.precision == pytest.approx(0.8)
        assert report.recall == pytest.approx(40 / 55)
        expected_f1 = 2 * 0.8 * (40 / 55) / (0.8 + 40 / 55)
        assert report.f1 == pytest.approx(expected_f1)
        assert report.fpr == pytest.approx(10 / 45)
        assert report.fnr == pytest.approx(15 / 55)

    def test_perfect_classifier(self):
        report = metrics(ConfusionMatrix(tp=5, fp=0, tn=5, fn=0))
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0
        assert report.fpr == 0.0
        assert report.fnr == 0.0

    def test_no_positive_predictions_undefined_precision(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, tn=8, fn=2))
        assert report.precision is None
        assert report.recall == 0.0
        assert report.f1 is None

    def test_no_positive_truth_undefined_recall(self):
        report = metrics(ConfusionMatrix(tp=0, fp=3, tn=7, fn=0))
        assert report.recall is None
        assert report.fnr is None

    def test_zero_precision_and_recall_gives_undefined_f1(self):
        report = metrics(ConfusionMatrix(tp=0, fp=2, tn=3, fn=2))
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 is None

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            metrics(ConfusionMatrix(0, 0, 0, 0))


class TestBootstrap:
    def test_exact_reproducibility(self):
        rng = np.random.default_rng(8)
        outcomes = rng.integers(0, 2, 60)
        a = bootstrap_ci(outcomes, iterations=500, seed=11)
        b = bootstrap_ci(outcomes, iterations=500, seed=11)
        assert (a.mean, a.ci_low, a.ci_high, a.coeff_variation) == (
            b.mean, b.ci_low, b.ci_high, b.coeff_variation,
        )

    def test_matches_independent_replication(self):
        # replicate the documented resampling scheme from scratch
        outcomes = np.array([1, 1, 0, 1, 0, 1, 1, 0, 1, 1], dtype=float)
        iterations, seed = 250, 4
        children = np.random.SeedSequence(seed).spawn(iterations)
        means = np.array([
            outcomes[np.random.default_rng(c).integers(0, 10, 10)].mean()
            for c in children
        ])
        report = bootstrap_ci(outcomes.astype(int), iterations=iterations, seed=seed)
        assert report.mean == outcomes.mean()
        assert report.ci_low == np.percentile(means, 2.5)
        assert report.ci_high == np.percentile(means, 97.5)

    def test_interval_brackets_mean_and_tightens(self):
        rng = np.random.default_rng(12)
        small = rng.integers(0, 2, 30)
        large = np.tile(small, 40)
        r_small = bootstrap_ci(small, iterations=400, seed=3)
        r_large = bootstrap_ci(large, iterations=400, seed=3)
        assert r_small.ci_low <= r_small.mean <= r_small.ci_high
        width_small = r_small.ci_high - r_small.ci_low
        width_large = r_large.ci_high - r_large.ci_low
        assert width_large < width_small / 3

    def test_constant_outcomes_give_degenerate_interval(self):
        report = bootstrap_ci(np.ones(20, dtype=int), iterations=200, seed=1)
        assert report.mean == 1.0
        assert report.ci_low == 1.0
        assert report.ci_high == 1.0
        assert report.coeff_variation == 0.0

    @pytest.mark.parametrize("n", [1, 2, 19, 500])
    @pytest.mark.parametrize("iterations", [
        100, 127, 128, 129, 1000, 1001,
    ])
    def test_seed_blocks_give_the_one_spawn_result(self, n, iterations):
        # criterion 11 and the stored benchmark references freeze these draws
        outcomes = np.random.default_rng(n).integers(0, 2, n)
        for seed in (0, 5, 2**40 + 3):
            assert bootstrap_ci(outcomes, iterations, seed) == reference_bootstrap_ci(
                outcomes, iterations, seed
            )

    def test_holds_one_block_of_child_seeds(self):
        # 1000 children alive at once took 0.30 MB; one block of them and the
        # 8 kB of means take about 0.05 MB
        outcomes = np.random.default_rng(4).integers(0, 2, 19)
        report, peak = traced_peak(bootstrap_ci, outcomes, 1000, 0)
        assert report == reference_bootstrap_ci(outcomes, 1000, 0)
        assert peak < 100_000

    def test_iteration_floor(self):
        with pytest.raises(InvalidInputError):
            bootstrap_ci(np.ones(5, dtype=int), iterations=99)

    def test_coefficient_of_variation(self):
        rng = np.random.default_rng(16)
        outcomes = rng.integers(0, 2, 40)
        report = bootstrap_ci(outcomes, iterations=300, seed=9)
        # recompute from the same resampling scheme
        children = np.random.SeedSequence(9).spawn(300)
        means = np.array([
            outcomes.astype(float)[np.random.default_rng(c).integers(0, 40, 40)].mean()
            for c in children
        ])
        assert report.coeff_variation == pytest.approx(
            means.std(ddof=1) / means.mean(), abs=1e-15
        )


class TestEffectSizes:
    def test_unit_pooled_std(self):
        # pooled sample std of these two triples is exactly 1
        a = np.array([-1.0, 0.0, 1.0])
        b = np.array([1.0, 2.0, 3.0])
        d = cohens_d(a, b)
        assert d == pytest.approx(-2.0, abs=1e-12)

    def test_sign_and_symmetry(self):
        rng = np.random.default_rng(18)
        a = rng.normal(0.0, 1.0, 50)
        b = rng.normal(1.0, 1.0, 50)
        assert cohens_d(a, b) == pytest.approx(-cohens_d(b, a), abs=1e-12)
        assert cohens_d(a, b) < 0

    def test_constant_samples_give_none(self):
        assert cohens_d([2.0, 2.0, 2.0], [3.0, 3.0]) is None

    def test_needs_two_values(self):
        with pytest.raises(InvalidInputError):
            cohens_d([1.0], [2.0, 3.0])

    @pytest.mark.parametrize("a, b, name", [
        ([1.0, math.nan, 2.0], [0.0, 1.0], "sample_a"),
        ([1.0, 2.0], [0.0, math.inf], "sample_b"),
    ])
    def test_non_finite_sample_refused(self, a, b, name):
        with pytest.raises(InvalidInputError, match=f"{name} holds a NaN or infinite value"):
            cohens_d(a, b)

    def test_two_dimensional_sample_refused(self):
        # refused, not pooled over its cells
        with pytest.raises(ShapeError, match=r"sample_a must be 1-D, got shape \(2, 2\)"):
            cohens_d([[1.0, 2.0], [1.0, 2.0]], [[1.0, 3.0], [2.0, 2.0]])

    def test_samples_near_the_float_limit(self):
        # each sample's squared deviations overflow unless the samples are scaled first
        assert cohens_d([2e154, 5e154], [-5e154, -2e154]) == pytest.approx(
            7.0 / math.sqrt(4.5), rel=1e-12)
        assert cohens_d([1e308, -1e308, 0.0], [-1e308, 1e308, 0.0]) == 0.0
        # scaled only out of [2^-481, 2^480): small spread beside a large value still counts,
        # and None stays for two constant samples
        assert cohens_d([1e200, 1e200], [1e-150, 2e-150]) == math.inf
        assert cohens_d([1e-170, 2e-170], [0.0, 0.0]) == pytest.approx(3.0, rel=1e-12)
        assert cohens_d([1e300, 1e300], [-1e300, -1e300]) is None

    def test_kappa_perfect_agreement(self):
        assert cohens_kappa([1, 0, 1, 0], [1, 0, 1, 0]) == pytest.approx(1.0)

    def test_kappa_chance_level(self):
        # half agreement with balanced marginals: expected agreement is 0.5
        a = [1, 1, 0, 0]
        b = [1, 0, 1, 0]
        assert cohens_kappa(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_kappa_known_value(self):
        # observed 0.7, marginals 0.5/0.6: expected 0.5, kappa 0.4
        a = [1] * 5 + [0] * 5
        b = [1, 1, 1, 1, 0, 1, 1, 0, 0, 0]
        kappa = cohens_kappa(a, b)
        observed = 0.7
        expected = 0.5 * 0.6 + 0.5 * 0.4
        assert kappa == pytest.approx((observed - expected) / (1 - expected), abs=1e-12)

    def test_kappa_degenerate_marginals(self):
        assert cohens_kappa([1, 1, 1], [1, 1, 1]) is None

    def test_kappa_length_mismatch(self):
        with pytest.raises(ShapeError):
            cohens_kappa([1, 0], [1])


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        # I_x(1, 1) = x
        for x in (0.1, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_symmetry_identity(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        for a, b, x in [(2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (4.0, 1.5, 0.55)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_closed_form_integer_case(self):
        # I_x(2, 2) = x^2 (3 - 2x)
        for x in (0.2, 0.5, 0.8):
            expect = x * x * (3.0 - 2.0 * x)
            assert regularized_incomplete_beta(2.0, 2.0, x) == pytest.approx(expect, abs=1e-13)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentT:
    def test_one_dof_closed_form(self):
        # dof 1 is Cauchy: p = 1 - (2/pi) arctan|t|
        for t in (0.5, 1.0, 3.0):
            expect = 1.0 - 2.0 / math.pi * math.atan(t)
            assert student_t_two_sided_p(t, 1) == pytest.approx(expect, abs=1e-12)

    def test_two_dof_closed_form(self):
        # dof 2: p = 1 - t / sqrt(t^2 + 2)
        for t in (0.7, 1.5, 4.0):
            expect = 1.0 - t / math.sqrt(t * t + 2.0)
            assert student_t_two_sided_p(t, 2) == pytest.approx(expect, abs=1e-12)

    def test_matches_quadrature(self):
        for t, dof in [(1.2, 5), (2.5, 9), (0.3, 3), (3.4641016151377544, 2)]:
            assert student_t_two_sided_p(t, dof) == pytest.approx(
                t_two_sided_p_quadrature(t, dof), abs=1e-9
            )

    @pytest.mark.parametrize("t", [1e-4, 1e-3])
    def test_large_dof_small_statistic_matches_quadrature(self, t):
        # t^2 / (dof + t^2) is tiny here, so it must not be formed as 1 - dof / (dof + t^2)
        assert student_t_two_sided_p(t, 100_000) == pytest.approx(
            t_two_sided_p_quadrature(t, 100_000), abs=1e-12
        )

    @pytest.mark.parametrize("t, dof", [(1.0, 1), (2.0, 3), (3.0, 9), (400.0, 100_000)])
    def test_tail_keeps_the_direct_call(self, t, dof):
        # t^2 >= dof takes I_x(dof/2, 1/2) at x = dof / (dof + t^2) directly
        assert student_t_two_sided_p(t, dof) == regularized_incomplete_beta(
            dof / 2.0, 0.5, dof / (dof + t * t)
        )

    def test_zero_statistic(self):
        assert student_t_two_sided_p(0.0, 7) == pytest.approx(1.0, abs=1e-12)

    def test_nan_statistic_refused(self):
        with pytest.raises(InvalidInputError, match="t_stat is NaN"):
            student_t_two_sided_p(math.nan, 3)

    def test_symmetry_in_sign(self):
        assert student_t_two_sided_p(-2.2, 6) == student_t_two_sided_p(2.2, 6)

    def test_infinite_statistic(self):
        assert student_t_two_sided_p(math.inf, 4) == 0.0

    def test_dof_floor(self):
        with pytest.raises(InvalidInputError):
            student_t_two_sided_p(1.0, 0)


class TestPairedTTest:
    def test_worked_example(self):
        # differences (2, 2, 5): mean 3, sd sqrt(3), t = 3 / (sqrt(3)/sqrt(3)) = 3
        a = [5.0, 7.0, 9.0]
        b = [3.0, 5.0, 4.0]
        t, p = paired_t_test(a, b)
        assert t == pytest.approx(3.0, abs=1e-12)
        assert p == pytest.approx(t_two_sided_p_quadrature(3.0, 2), abs=1e-9)

    def test_antisymmetric_in_argument_order(self):
        rng = np.random.default_rng(22)
        a, b = rng.normal(size=(2, 12))
        t_ab, p_ab = paired_t_test(a, b)
        t_ba, p_ba = paired_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba, abs=1e-12)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_identical_samples(self):
        t, p = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (t, p) == (0.0, 1.0)

    def test_constant_nonzero_shift(self):
        t, p = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert t == math.inf
        assert p == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_minimum_pairs(self):
        with pytest.raises(InvalidInputError):
            paired_t_test([1.0], [2.0])

    def test_samples_near_the_float_limit(self):
        # differences (2, 5, 1) * 1e154: t = 8 / sqrt(13), though the squared deviations
        # overflow unscaled; 1e308 - (-1e308) overflows, yet the differences average 0
        t, p = paired_t_test([2e154, 5e154, 1e154], [0.0, 0.0, 0.0])
        assert t == pytest.approx(8.0 / math.sqrt(13.0), rel=1e-12)
        assert p == pytest.approx(t_two_sided_p_quadrature(8.0 / math.sqrt(13.0), 2), abs=1e-9)
        assert paired_t_test([1e308, -1e308, 0.0], [-1e308, 1e308, 0.0]) == (0.0, 1.0)
        # only the differences are scaled, so a tiny one beside a large value keeps its square
        for large in (1e200, 1e300):
            t, p = paired_t_test([large, 0.0, 0.0], [large, 1e-150, 0.0])
            assert t == pytest.approx(-1.0, rel=1e-12)
            assert p == pytest.approx(t_two_sided_p_quadrature(-1.0, 2), abs=1e-9)

    @pytest.mark.parametrize("a, b, name", [
        ([1.0, math.nan, 2.0], [0.0, 0.0, 0.0], "sample_a"),
        ([1.0, 2.0, 3.0], [0.0, -math.inf, 0.0], "sample_b"),
    ])
    def test_non_finite_sample_refused(self, a, b, name):
        with pytest.raises(InvalidInputError, match=f"{name} holds a NaN or infinite value"):
            paired_t_test(a, b)


class TestFormatting:
    STATS = StatReport(mean=0.7, ci_low=0.4, ci_high=0.9, coeff_variation=0.2)

    def test_table_contains_all_metrics(self):
        report = metrics(ConfusionMatrix(tp=4, fp=1, tn=3, fn=2))
        text = format_metrics_table(report, self.STATS)
        for key in ("accuracy", "precision", "recall", "f1", "fpr", "fnr", "tp=4"):
            assert key in text

    def test_undefined_marker(self):
        report = metrics(ConfusionMatrix(tp=0, fp=0, tn=5, fn=1))
        assert "undefined" in format_metrics_table(report, self.STATS)

    def test_stats_block_appended(self):
        report = metrics(ConfusionMatrix(tp=4, fp=1, tn=3, fn=2))
        stats = bootstrap_ci(np.array([1, 1, 0, 1]), iterations=100, seed=0)
        text = format_metrics_table(report, stats)
        assert "95% CI" in text
        assert "bootstrap mean" in text
