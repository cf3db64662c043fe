"""Feature attribution for trained classifiers.

Two methods: GRAD differentiates the encoding angles of an
angle-encoded variational model by one adjoint sweep through the
encoding and the ansatz; SCORE occludes one feature at a time against a
baseline, scores all occluded rows in one batched call, and works with
any model exposing ``predict_proba``.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .encoding import as_feature_array, feature_map_circuit
from .errors import InvalidInputError, ShapeError, UnsupportedMethodError
from .statevector import Circuit, evolve, new_zero_state, z_expectations
from .vqc import VqcModel, adjoint_grad, build_ansatz


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
    """d p / d x_j by the adjoint method, summed over encoding repetitions."""
    if getattr(model, "encoding", None) != "angle":
        raise UnsupportedMethodError(
            "gradient attribution needs an angle-encoded variational model; use the SCORE "
            "method instead (--method score on the command line, score_attribution in Python)"
        )
    arr = as_feature_array(x)
    n, qubit, reps = model.n_qubits, model.readout_qubit, model.feature_map.repetitions
    encoding = feature_map_circuit(arr[np.newaxis], model.feature_map)
    circuit = Circuit(n, encoding.gates + build_ansatz(model).gates)
    phi = evolve(new_zero_state(n).amplitudes[np.newaxis], circuit)
    base_p = float((1.0 + z_expectations(phi, qubit, n)[0]) / 2.0)
    # dp/d<Z> = 1/2; the encoding's RY angles lead the gate list, repetition by repetition
    grad = adjoint_grad(circuit, phi, np.array([0.5]), qubit)
    scores = [float(v) for v in grad[: reps * arr.size].reshape(reps, arr.size).sum(axis=0)]
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
