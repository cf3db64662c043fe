"""Variational quantum classifier: ansatz, inference, adjoint-gradient training.

The ansatz stacks ``n_layers`` blocks of per-qubit RX, RY, RZ rotations
followed by a circular CNOT ring.  Readout is <Z> on one qubit, squashed
to a malicious-class probability p = (1 + <Z>) / 2.  Inference, training
and gradients all run over ``(rows, 2**n)`` arrays of encoded states.

Training and GRAD attribution take every derivative from one adjoint
sweep (:func:`statevector.adjoint_grad`; Jones & Gacon 2020, arXiv:2009.02823),
whatever the angle count.  The parameter-shift rule, which is what
would run on hardware, stays as the exact public reference in
:func:`shift_jacobian` and :func:`param_shift_grad`.
"""

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .encoding import (
    FeatureMapSpec,
    as_feature_array,
    as_feature_matrix,
    encode_amplitude_rows,
    feature_map_states,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    InvalidInputError,
    NumericalError,
    ShapeError,
)
from .limits import TrainConfig, check_ansatz
from .statevector import (
    Circuit,
    adjoint_grad,
    cnot_ring,
    evolve,
    row_chunks,
    rx,
    ry,
    rz,
    z_expectations,
)

PARAM_SHIFT = math.pi / 2
PROB_CLAMP = 1e-9


@dataclass
class VqcModel:
    """Trainable classifier: encoding spec plus ansatz parameters.

    ``params`` is flat with layout [layer][qubit][RX, RY, RZ], length
    3 * n_qubits * n_layers; ``None`` means all zeros, allocated only after
    the depth checks pass.  ``readout_qubit`` is the qubit whose <Z> is
    read out.  ``entangling=False`` drops the ansatz CNOT ring (diagnostic
    configurations only).
    """

    n_qubits: int
    n_layers: int
    params: np.ndarray | None
    feature_map: FeatureMapSpec
    readout_qubit: int = 0
    rng_seed: int = 0
    encoding: str = "angle"
    entangling: bool = True
    optimizer_meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_ansatz(self.n_layers, self.encoding, self.feature_map.repetitions)
        if self.feature_map.n_qubits != self.n_qubits:
            raise ConfigError(
                f"feature map is {self.feature_map.n_qubits}-qubit but the "
                f"model has {self.n_qubits} qubits"
            )
        if not isinstance(self.readout_qubit, int) or not 0 <= self.readout_qubit < self.n_qubits:
            raise ConfigError(
                f"readout_qubit must be an integer in [0, {self.n_qubits}), "
                f"got {self.readout_qubit!r}"
            )
        params = self.params
        params = np.zeros(self.n_params) if params is None else np.asarray(params, dtype=float)
        if params.shape != (self.n_params,):
            raise ShapeError(
                f"expected {self.n_params} parameters, got shape {params.shape}"
            )
        self.params = params

    @property
    def n_params(self) -> int:
        return 3 * self.n_qubits * self.n_layers

    @classmethod
    def fresh(
        cls,
        n_qubits: int,
        n_layers: int,
        repetitions: int = 2,
        encoding: str = "angle",
    ) -> "VqcModel":
        """Architecture shell with zeroed parameters; training draws the real init."""
        spec = FeatureMapSpec(n_qubits, repetitions)
        return cls(n_qubits, n_layers, params=None, feature_map=spec, encoding=encoding)

    def predict_proba(self, features) -> np.ndarray:
        """Malicious-class probability per row of a (rows, features) matrix, in row blocks."""
        features = as_feature_matrix(features)
        out = np.empty(len(features))
        for rows in row_chunks(len(features), 2**self.n_qubits):
            out[rows] = (1.0 + ansatz_expectations(self, encode_rows(self, features[rows]))) / 2.0
        return np.clip(out, 0.0, 1.0)


def build_ansatz(model: VqcModel) -> Circuit:
    """Parameterized circuit over model.params (encoding not included)."""
    params = np.asarray(model.params, dtype=float)
    if params.shape != (model.n_params,):
        raise ShapeError(f"expected {model.n_params} parameters, got shape {params.shape}")
    gates = []
    angles = iter(params.tolist())
    for _ in range(model.n_layers):
        for q in range(model.n_qubits):
            gates.extend((rx(q, next(angles)), ry(q, next(angles)), rz(q, next(angles))))
        if model.entangling:
            gates.extend(cnot_ring(model.n_qubits))
    return Circuit(model.n_qubits, tuple(gates))


def encode_rows(model: VqcModel, features) -> np.ndarray:
    """Encoded input state per row of a (rows, features) matrix, per the model's encoding."""
    if model.encoding == "amplitude":
        return encode_amplitude_rows(features, model.n_qubits)
    return feature_map_states(features, model.feature_map)


def ansatz_expectations(model: VqcModel, states: np.ndarray) -> np.ndarray:
    """Readout <Z> per row of encoded states after the ansatz; ``states`` is untouched.

    Rows run in the gate-sweep blocks of :func:`statevector.row_chunks`.
    """
    circuit, n = build_ansatz(model), model.n_qubits
    z = np.empty(len(states))
    for rows in row_chunks(len(states), 2**n):
        z[rows] = z_expectations(evolve(states[rows], circuit), model.readout_qubit, n)
    return z


def shift_jacobian(model: VqcModel, states: np.ndarray) -> np.ndarray:
    """d<Z>/d(theta) per row of encoded states, shape (rows, n_params).

    Column i is (E(theta_i + pi/2) - E(theta_i - pi/2)) / 2.  Shifts are
    evaluated one parameter at a time over all rows, so memory stays at
    one evolved copy of ``states``.
    """
    jac = np.empty((len(states), model.n_params))
    for i in range(model.n_params):
        shifted = []
        for delta in (PARAM_SHIFT, -PARAM_SHIFT):
            params = model.params.copy()
            params[i] += delta
            shifted.append(ansatz_expectations(replace(model, params=params), states))
        jac[:, i] = 0.5 * (shifted[0] - shifted[1])
    return jac


def param_shift_grad(model: VqcModel, x) -> np.ndarray:
    """Exact gradient of <Z> for one sample w.r.t. each ansatz parameter."""
    return shift_jacobian(model, encode_rows(model, as_feature_array(x)[np.newaxis]))[0]


def _bce(probs: np.ndarray, labels: np.ndarray) -> float:
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)))


def train_vqc(dataset, arch: VqcModel, config: TrainConfig) -> tuple[VqcModel, list[float]]:
    """Minimize BCE with adjoint-differentiation gradients.

    Returns the trained model and the loss history; history[0] is the
    loss at initialization and history[e] the loss after epoch e.
    Raises NumericalError when an optimiser step leaves a parameter
    non-finite (a learning rate large enough to overflow).
    """
    if dataset.n_samples == 0:
        raise DegenerateInputError("training dataset is empty")
    labels = np.asarray(dataset.labels)
    if not np.all(np.isin(labels, (0, 1))):
        raise InvalidInputError("training labels must be 0 or 1")
    rng = np.random.default_rng(config.seed)
    params = rng.uniform(-math.pi, math.pi, arch.n_params)
    states = encode_rows(arch, dataset.features)
    y = labels.astype(float)
    m = len(y)

    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    adam_t = 0

    def full_loss(theta: np.ndarray) -> float:
        z = ansatz_expectations(replace(arch, params=theta), states)
        return _bce((1.0 + z) / 2.0, y)

    full_batch = config.batch_size is None or config.batch_size >= m
    step = m if full_batch else config.batch_size
    history = [] if full_batch else [full_loss(params)]
    for epoch in range(1, config.epochs + 1):
        # a full batch reads plain slices, so no epoch copies the states
        order = None if full_batch else rng.permutation(m)
        for start in range(0, m, step):
            batch = slice(start, start + step) if order is None else order[start : start + step]
            grad, loss = _bce_grad(replace(arch, params=params), states[batch], y[batch])
            # an overflowing step is reported below as a NumericalError, not a warning
            with np.errstate(over="ignore"):
                if config.optimizer == "adam":
                    adam_t += 1
                    adam_m = config.beta1 * adam_m + (1.0 - config.beta1) * grad
                    adam_v = config.beta2 * adam_v + (1.0 - config.beta2) * grad**2
                    m_hat = adam_m / (1.0 - config.beta1**adam_t)
                    v_hat = adam_v / (1.0 - config.beta2**adam_t)
                    params = params - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
                else:
                    params = params - config.learning_rate * grad
            if not np.all(np.isfinite(params)):
                raise NumericalError(
                    f"training diverged in epoch {epoch}: an optimiser step left the "
                    f"parameters non-finite (training.learning_rate {config.learning_rate!r})"
                )
        # a full-batch gradient sweep already gave the loss at the epoch's start
        history.append(loss if full_batch else full_loss(params))
    if full_batch:
        history.append(full_loss(params))

    meta = {**asdict(config), "final_loss": history[-1]}
    model = replace(arch, params=params, rng_seed=config.seed, optimizer_meta=meta)
    return model, history


def _bce_grad(model: VqcModel, states: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """(gradient of mean BCE by adjoint differentiation, the mean BCE)."""
    circuit = build_ansatz(model)
    n, qubit = model.n_qubits, model.readout_qubit
    grad = np.zeros(model.n_params)
    probs = np.empty(len(y))
    for rows in row_chunks(len(y), 2**n):
        phi = evolve(states[rows], circuit)
        p = np.clip((1.0 + z_expectations(phi, qubit, n)) / 2.0, PROB_CLAMP, 1.0 - PROB_CLAMP)
        probs[rows] = p
        # each row weighs its d<Z>/dtheta by dL/dp * dp/d<Z> = dL/dp / 2
        grad += adjoint_grad(circuit, phi, 0.5 * (p - y[rows]) / (p * (1.0 - p)) / len(y), qubit)
    return grad, _bce(probs, y)
