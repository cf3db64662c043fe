"""Classification metrics and statistical validation.

Undefined ratios (zero denominators) are reported as None rather than
being coerced to 0.  The paired t-test p-value comes from the regularized
incomplete beta function evaluated with a Lentz continued fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError, ShapeError

_BETA_EPS = 1e-15
_BETA_MAX_ITER = 400


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    fpr: float | None
    fnr: float | None
    confusion: ConfusionMatrix


@dataclass(frozen=True)
class StatReport:
    mean: float
    ci_low: float
    ci_high: float
    coeff_variation: float | None


def _check_binary(values: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInputError(f"{name} is empty")
    if not np.all(np.isin(arr, (0, 1))):
        raise InvalidInputError(f"{name} must contain only 0 and 1")
    return arr.astype(int)


def confusion(predictions, labels) -> ConfusionMatrix:
    """Counts with label 1 = positive (malicious)."""
    preds = _check_binary(predictions, "predictions")
    truth = _check_binary(labels, "labels")
    if len(preds) != len(truth):
        raise ShapeError(f"{len(preds)} predictions for {len(truth)} labels")
    return ConfusionMatrix(
        tp=int(np.sum((preds == 1) & (truth == 1))),
        fp=int(np.sum((preds == 1) & (truth == 0))),
        tn=int(np.sum((preds == 0) & (truth == 0))),
        fn=int(np.sum((preds == 0) & (truth == 1))),
    )


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Derived rates; any rate with a zero denominator is None."""
    if cm.total == 0:
        raise InvalidInputError("confusion matrix is empty")

    def ratio(num: int, den: int) -> float | None:
        return num / den if den > 0 else None

    precision = ratio(cm.tp, cm.tp + cm.fp)
    recall = ratio(cm.tp, cm.tp + cm.fn)
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricsReport(
        accuracy=(cm.tp + cm.tn) / cm.total,
        precision=precision,
        recall=recall,
        f1=f1,
        fpr=ratio(cm.fp, cm.fp + cm.tn),
        fnr=ratio(cm.fn, cm.fn + cm.tp),
        confusion=cm,
    )


def _percentile(sorted_values: np.ndarray, q: float) -> float:
    """Linear-interpolation percentile on pre-sorted values."""
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return float(sorted_values[lo] + frac * (sorted_values[hi] - sorted_values[lo]))


def bootstrap_ci(correct, iterations: int = 1000, seed: int = 0) -> StatReport:
    """Percentile bootstrap (95%) of mean accuracy over 0/1 outcomes.

    Each iteration draws from its own spawned child of the seed sequence,
    so results are reproducible regardless of evaluation order.
    """
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


def cohens_d(sample_a, sample_b) -> float | None:
    """(mean(a) - mean(b)) / pooled sample std; None when both are constant."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise InvalidInputError("cohens_d needs at least 2 values per sample")
    var_a = a.var(ddof=1)
    var_b = b.var(ddof=1)
    pooled = math.sqrt(
        ((a.size - 1) * var_a + (b.size - 1) * var_b) / (a.size + b.size - 2)
    )
    if pooled == 0.0:
        return None
    return float((a.mean() - b.mean()) / pooled)


def _off_zero(v: float) -> float:
    """``v``, or 1e-300 when it is too close to zero to divide by (Lentz's guard)."""
    return 1e-300 if abs(v) < 1e-300 else v


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    result = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        result *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        delta = d * c
        result *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return result
    raise NumericalError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x < 0.0 or x > 1.0:
        raise InvalidInputError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t_stat: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with ``dof`` degrees of freedom."""
    if dof < 1:
        raise InvalidInputError(f"degrees of freedom must be >= 1, got {dof}")
    if math.isinf(t_stat):
        return 0.0
    x = dof / (dof + t_stat * t_stat)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


def paired_t_test(sample_a, sample_b) -> tuple[float, float]:
    """Two-sided paired t-test; returns (t, p).

    Zero-variance differences: all-zero gives (0, 1), nonzero mean gives
    (+/-inf, 0).
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError(f"paired samples must match, got {a.shape} and {b.shape}")
    if a.size < 2:
        raise InvalidInputError("paired t-test needs at least 2 pairs")
    diff = a - b
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t_stat = mean / (sd / math.sqrt(diff.size))
    return float(t_stat), float(student_t_two_sided_p(t_stat, diff.size - 1))


def cohens_kappa(pred_a, pred_b) -> float | None:
    """Agreement beyond chance between two binary prediction vectors."""
    a = _check_binary(pred_a, "pred_a")
    b = _check_binary(pred_b, "pred_b")
    if len(a) != len(b):
        raise ShapeError(f"{len(a)} and {len(b)} predictions cannot be paired")
    observed = float(np.mean(a == b))
    pa1, pb1 = float(np.mean(a == 1)), float(np.mean(b == 1))
    expected = pa1 * pb1 + (1.0 - pa1) * (1.0 - pb1)
    if expected == 1.0:
        return None
    return (observed - expected) / (1.0 - expected)


def format_metrics_table(report: MetricsReport, stats: StatReport | None = None) -> str:
    """Fixed-width plain-text summary."""

    def fmt(value: float | None) -> str:
        return "undefined" if value is None else f"{value:.6f}"

    cm = report.confusion
    lines = [
        "metric            value",
        "-----------------------",
        f"accuracy     {fmt(report.accuracy):>10}",
        f"precision    {fmt(report.precision):>10}",
        f"recall       {fmt(report.recall):>10}",
        f"f1           {fmt(report.f1):>10}",
        f"fpr          {fmt(report.fpr):>10}",
        f"fnr          {fmt(report.fnr):>10}",
        "",
        f"confusion    tp={cm.tp} fp={cm.fp} tn={cm.tn} fn={cm.fn}",
    ]
    if stats is not None:
        lines += [
            "",
            f"bootstrap mean {fmt(stats.mean):>10}",
            f"95% CI         [{fmt(stats.ci_low)}, {fmt(stats.ci_high)}]",
            f"coeff var      {fmt(stats.coeff_variation):>10}",
        ]
    return "\n".join(lines) + "\n"
