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
    _check_qubit_count,
    cnot_ring,
    evolve,
    new_zero_state,
    ry,
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


def feature_map_circuit(features, spec: FeatureMapSpec) -> Circuit:
    """The feature map over a (rows, features) matrix as one gate list.

    Per repetition: RY on qubit j with one angle per row, column j of the
    matrix, then the CNOT ring.  Qubits beyond the supplied features get no
    RY, which is exact: a missing feature is an angle of 0.
    """
    arr = as_feature_matrix(features)
    if arr.shape[1] > spec.n_qubits:
        raise ShapeError(f"{arr.shape[1]} features do not fit on {spec.n_qubits} qubits")
    layer = tuple(ry(q, arr[:, q]) for q in range(arr.shape[1]))
    ring = cnot_ring(spec.n_qubits) if spec.entangling else ()
    return Circuit(spec.n_qubits, (layer + ring) * spec.repetitions)


def feature_map_states(features, spec: FeatureMapSpec) -> np.ndarray:
    """Encoded state U_phi(x)|0...0> per row of a (rows, features) matrix, shape (rows, 2**n)."""
    circuit = feature_map_circuit(features, spec)
    zero = new_zero_state(spec.n_qubits).amplitudes
    # evolve copies its input, so the batch is allocated once, from a broadcast view
    return evolve(np.broadcast_to(zero, (len(features), zero.size)), circuit)


def apply_feature_map(x, spec: FeatureMapSpec) -> QuantumState:
    """Encoded state U_phi(x)|0...0>."""
    return QuantumState(spec.n_qubits, feature_map_states(as_feature_array(x)[np.newaxis], spec)[0])
