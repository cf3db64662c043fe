"""Feature attribution for trained classifiers.

Two methods: GRAD differentiates the encoding angles of an
angle-encoded variational model with the parameter-shift rule; SCORE
occludes one feature at a time against a baseline and works with any
model exposing ``predict_proba``.  Each method scores all of its shifted
or occluded rows in one batched call.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .encoding import angle_rows, as_feature_array, encode_angle_rows
from .errors import InvalidInputError, ShapeError, UnsupportedMethodError
from .vqc import PARAM_SHIFT, VqcModel, ansatz_expectations


@dataclass(frozen=True)
class AttributionReport:
    """Per-feature scores; ``weighted_scores`` is max(score, 0) * x_j for
    GRAD and a copy of ``scores`` for SCORE."""

    feature_indices: tuple[int, ...]
    scores: tuple[float, ...]
    weighted_scores: tuple[float, ...]
    method: str
    base_probability: float


def grad_attribution(model: VqcModel, x) -> AttributionReport:
    """d p / d x_j via parameter shifts, summed over encoding repetitions."""
    if getattr(model, "encoding", None) != "angle":
        raise UnsupportedMethodError(
            "gradient attribution needs an angle-encoded variational model; "
            "use score_attribution instead"
        )
    arr = as_feature_array(x)
    spec = model.feature_map
    d, reps = arr.size, spec.repetitions
    # row 0 is the input; rows 1 + 2k and 2 + 2k shift angle k = (feature j,
    # repetition r) up and down, with k = j * reps + r
    rows = np.repeat(angle_rows(arr[np.newaxis], spec), 1 + 2 * d * reps, axis=0)
    k = np.arange(d * reps)
    rows[1 + 2 * k, k % reps, k // reps] += PARAM_SHIFT
    rows[2 + 2 * k, k % reps, k // reps] -= PARAM_SHIFT
    probs = (1.0 + ansatz_expectations(model, encode_angle_rows(rows, spec))) / 2.0
    base_p = float(probs[0])
    scores = [float(v) for v in (0.5 * (probs[1::2] - probs[2::2])).reshape(d, reps).sum(axis=1)]
    weighted = [s * float(arr[j]) if s > 0 else 0.0 for j, s in enumerate(scores)]
    return AttributionReport(
        feature_indices=tuple(range(arr.size)),
        scores=tuple(scores),
        weighted_scores=tuple(weighted),
        method="GRAD",
        base_probability=base_p,
    )


def score_attribution(model, x, baseline=None) -> AttributionReport:
    """Occlusion: score_j = p(x) - p(x with x_j replaced by the baseline).

    ``model`` may be any object with ``predict_proba`` or a plain callable
    mapping an (m, d) feature matrix to m probabilities.  Row 0 of the
    scored matrix is the input, row j + 1 has feature j occluded.
    """
    predict = model if callable(model) else model.predict_proba
    arr = as_feature_array(x)
    if baseline is None:
        base_vec = np.zeros_like(arr)
    else:
        base_vec = as_feature_array(baseline)
        if base_vec.shape != arr.shape:
            raise ShapeError(
                f"baseline shape {base_vec.shape} does not match input {arr.shape}"
            )
    rows = np.tile(arr, (arr.size + 1, 1))
    rows[np.arange(arr.size) + 1, np.arange(arr.size)] = base_vec
    probs = np.asarray(predict(rows), dtype=float)
    if probs.shape != (arr.size + 1,):
        raise ShapeError(f"expected {arr.size + 1} probabilities, got shape {probs.shape}")
    base_p = float(probs[0])
    scores = [base_p - float(p) for p in probs[1:]]
    return AttributionReport(
        feature_indices=tuple(range(arr.size)),
        scores=tuple(scores),
        weighted_scores=tuple(scores),
        method="SCORE",
        base_probability=base_p,
    )


def rank_features(report: AttributionReport, top_k: int) -> list[tuple[int, float]]:
    """Top features by |score| descending; ties break on the lower index."""
    n = len(report.scores)
    if not 1 <= top_k <= n:
        raise InvalidInputError(f"top_k must be in [1, {n}], got {top_k!r}")
    order = sorted(range(n), key=lambda i: (-abs(report.scores[i]), i))
    return [(i, report.scores[i]) for i in order[:top_k]]


def format_attribution(report: AttributionReport, feature_names=None) -> str:
    """Human-readable ranking table."""
    names = feature_names or [f"x{i}" for i in report.feature_indices]
    if len(names) != len(report.scores):
        raise ShapeError(f"{len(names)} names for {len(report.scores)} scores")
    ranked = rank_features(report, len(report.scores))
    lines = [
        f"method: {report.method}   base probability: {report.base_probability:.6f}",
        "rank  feature               score        weighted",
    ]
    for rank, (idx, score) in enumerate(ranked, start=1):
        lines.append(
            f"{rank:>4}  {names[idx]:<20}  {score:+.6f}    "
            f"{report.weighted_scores[idx]:+.6f}"
        )
    return "\n".join(lines) + "\n"


def write_attribution_csv(report: AttributionReport, path, feature_names=None) -> None:
    """CSV with columns feature_name, raw_score, weighted_score, rank."""
    names = feature_names or [f"x{i}" for i in report.feature_indices]
    if len(names) != len(report.scores):
        raise ShapeError(f"{len(names)} names for {len(report.scores)} scores")
    ranks = {idx: rank for rank, (idx, _) in enumerate(rank_features(report, len(report.scores)), start=1)}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_name", "raw_score", "weighted_score", "rank"])
        for i in report.feature_indices:
            writer.writerow(
                [names[i], repr(report.scores[i]), repr(report.weighted_scores[i]), ranks[i]]
            )
