"""The architecture limits, their checks and the training settings, one definition each.

This module imports no qshield module but ``errors``: reading a config loads no simulator."""

import math
from dataclasses import dataclass, field

from .errors import ConfigError, QubitCapError

MAX_QUBITS = 20
MAX_DEPTH_BLOCKS = 12  # n_layers + repetitions
ENCODINGS = ("angle", "amplitude")
BOUND_SNAP = 1e-12  # an SVM dual closer than this to 0 or C snaps to it


def check_qubit_count(n_qubits: int) -> None:
    if not isinstance(n_qubits, int) or n_qubits < 1 or n_qubits > MAX_QUBITS:
        raise QubitCapError(f"qubit count must be an integer in [1, {MAX_QUBITS}], "
                            f"got {n_qubits!r}")


def check_feature_map(n_qubits: int, repetitions: int) -> None:
    check_qubit_count(n_qubits)
    if not isinstance(repetitions, int) or repetitions < 1:
        raise ConfigError(f"repetitions must be a positive integer, got {repetitions!r}")


def check_ansatz(n_layers: int, encoding: str, repetitions: int) -> None:
    """An ansatz of ``n_layers`` after a feature map of ``repetitions`` (already checked)."""
    if not isinstance(n_layers, int) or n_layers < 1:
        raise ConfigError(f"n_layers must be a positive integer, got {n_layers!r}")
    if encoding not in ENCODINGS:
        raise ConfigError(f"encoding must be one of {ENCODINGS}, got {encoding!r}")
    if n_layers + repetitions > MAX_DEPTH_BLOCKS:
        raise ConfigError(f"n_layers + repetitions = {n_layers + repetitions} exceeds the "
                          f"depth cap {MAX_DEPTH_BLOCKS}")


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings; ``batch_size=None`` trains full-batch."""

    epochs: int = 20
    learning_rate: float = 0.01
    batch_size: int | None = None
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # derived from the experiment seed, so neither a config nor a report holds it
    seed: int = field(default=0, metadata={"saved": False})

    def __post_init__(self) -> None:
        if not isinstance(self.epochs, int) or self.epochs < 1:
            raise ConfigError(f"epochs must be a positive integer, got {self.epochs!r}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be positive, got {self.eps!r}")
        if self.batch_size is not None and (
            not isinstance(self.batch_size, int) or self.batch_size < 1
        ):
            raise ConfigError(f"batch_size must be a positive integer or None, got {self.batch_size!r}")
        if self.optimizer not in ("adam", "gd"):
            raise ConfigError(f"optimizer must be 'adam' or 'gd', got {self.optimizer!r}")
