"""Classical-to-quantum data loading: amplitude encoding and the angle feature map.

Both encoders are batched: they take a ``(rows, features)`` matrix and
return one encoded state per row as a ``(rows, 2**n)`` amplitude array.
The single-sample forms are one-row views of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, InvalidInputError, ShapeError
from .statevector import (
    MAX_QUBITS,
    Circuit,
    QuantumState,
    _apply_1q_matrix,
    _check_qubit_count,
    cnot_ring,
    evolve,
)

NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class FeatureMapSpec:
    """Angle feature map: per repetition, one RY(x_j) layer plus a CNOT ring.

    ``entangling=False`` drops the ring; it exists so tests can isolate
    qubits from the readout.
    """

    n_qubits: int
    repetitions: int = 2
    entangling: bool = True

    def __post_init__(self) -> None:
        _check_qubit_count(self.n_qubits)
        if not isinstance(self.repetitions, int) or self.repetitions < 1:
            raise ConfigError(f"repetitions must be a positive integer, got {self.repetitions!r}")


def as_feature_matrix(features) -> np.ndarray:
    """Validate and coerce a feature matrix to a 2-D float array, one sample per row."""
    arr = np.asarray(features, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D feature matrix, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise DegenerateInputError("feature vector is empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("feature vector contains NaN or infinite entries")
    return arr


def as_feature_array(x) -> np.ndarray:
    """Validate and coerce a feature vector to a 1-D float array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-D feature vector, got shape {arr.shape}")
    return as_feature_matrix(arr[np.newaxis])[0]


def encode_amplitude_rows(features, n_qubits: int) -> np.ndarray:
    """L2-normalized rows as amplitudes of an n-qubit register, zero-padded."""
    arr = as_feature_matrix(features)
    dim = 2**n_qubits
    if arr.shape[1] > dim:
        raise ShapeError(f"{arr.shape[1]} features do not fit in {dim} amplitudes")
    norms = np.linalg.norm(arr, axis=1)
    if np.any(norms <= NORM_FLOOR):
        raise DegenerateInputError(
            f"cannot amplitude-encode a near-zero vector (norm {norms.min():.3e})"
        )
    amps = np.zeros((arr.shape[0], dim), dtype=complex)
    amps[:, : arr.shape[1]] = arr / norms[:, np.newaxis]
    return amps


def amplitude_encode(x) -> QuantumState:
    """L2-normalized features as amplitudes, zero-padded to a power of two.

    Uses the smallest register that fits (at least one qubit).
    """
    arr = as_feature_array(x)
    n_qubits = max(1, math.ceil(math.log2(arr.size)))
    if n_qubits > MAX_QUBITS:
        raise ShapeError(f"{arr.size} features need more than {MAX_QUBITS} qubits")
    return QuantumState(n_qubits, encode_amplitude_rows(arr[np.newaxis], n_qubits)[0])


def angle_rows(features, spec: FeatureMapSpec) -> np.ndarray:
    """RY angles of shape (rows, repetitions, n_qubits); missing trailing features are 0."""
    arr = as_feature_matrix(features)
    if arr.shape[1] > spec.n_qubits:
        raise ShapeError(f"{arr.shape[1]} features do not fit on {spec.n_qubits} qubits")
    angles = np.zeros((arr.shape[0], spec.repetitions, spec.n_qubits))
    angles[:, :, : arr.shape[1]] = arr[:, np.newaxis, :]
    return angles


def encode_angle_rows(angles: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """Feature-map states U_phi|0...0> for (rows, repetitions, n_qubits) angles.

    Each repetition is one RY layer, with per-row angles, then the CNOT ring.
    """
    n = spec.n_qubits
    if angles.shape[1:] != (spec.repetitions, n):
        raise ShapeError(
            f"angle rows have shape {angles.shape[1:]}, expected {(spec.repetitions, n)}"
        )
    amps = np.zeros((angles.shape[0], 2**n), dtype=complex)
    amps[:, 0] = 1.0
    ring = Circuit(n, cnot_ring(n) if spec.entangling else ())
    for layer in angles.transpose(1, 2, 0):
        for q, theta in enumerate(layer):
            c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
            amps = _apply_1q_matrix(amps, np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2), q, n)
        amps = evolve(amps, ring)
    return amps


def feature_map_states(features, spec: FeatureMapSpec) -> np.ndarray:
    """Encoded state per row of a (rows, features) matrix, shape (rows, 2**n)."""
    return encode_angle_rows(angle_rows(features, spec), spec)


def apply_feature_map(x, spec: FeatureMapSpec) -> QuantumState:
    """Encoded state U_phi(x)|0...0>."""
    return QuantumState(spec.n_qubits, feature_map_states(as_feature_array(x)[np.newaxis], spec)[0])
