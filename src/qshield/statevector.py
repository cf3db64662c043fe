"""Exact dense state-vector quantum circuit simulation.

Conventions, fixed package-wide:

* Qubit 0 is the least-significant bit of the basis index, so basis
  state ``|k>`` assigns qubit ``q`` the bit ``(k >> q) & 1``.
* Rotations use the half-angle convention ``R_a(theta) = exp(-i theta sigma_a / 2)``.
* Global phase is never normalized away.  Compare probabilities,
  expectations, or inner products unless a phase is pinned by
  construction.

States are mutated in place by :func:`apply_gate` and :func:`run_circuit`
and must not be shared between threads; gate ops and circuits are frozen
and safe to share.  :func:`evolve` runs a circuit over a ``(batch, 2**n)``
amplitude array and is the one runner every model builds on, and
:func:`adjoint_grad` is the one gradient of a ``<Z>`` readout by its angles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .limits import check_qubit_count

GATE_KINDS = frozenset({"RX", "RY", "RZ", "H", "CNOT", "CPHASE", "SWAP"})
_ANGLED_KINDS = frozenset({"RX", "RY", "RZ", "CPHASE"})
# the two-qubit kinds, and the (control, target) bits of the two subspaces that CNOT and
# SWAP swap; CPHASE scales the second
_PAIR_BITS = {"CNOT": ((1, 0), (1, 1)), "SWAP": ((0, 1), (1, 0)), "CPHASE": ((1, 0), (1, 1))}
_REAL_KINDS = frozenset({"RY", "H", "CNOT", "SWAP"})

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_H_MATRIX = np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]])


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, target qubit, optional control and angle.

    For SWAP the two swapped qubits are stored as (control, target); the
    order is immaterial.  An RY angle may be a 1-D array, one angle per row
    of the ``(rows, 2**n)`` batch it is applied to.
    """

    kind: str
    target: int
    control: int | None = None
    angle: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        needs_pair = self.kind in _PAIR_BITS
        if needs_pair and self.control is None:
            raise ValueError(f"{self.kind} needs a second qubit")
        if not needs_pair and self.control is not None:
            raise ValueError(f"{self.kind} does not take a control qubit")
        needs_angle = self.kind in _ANGLED_KINDS
        if needs_angle and self.angle is None:
            raise ValueError(f"{self.kind} needs an angle")
        if not needs_angle and self.angle is not None:
            raise ValueError(f"{self.kind} does not take an angle")
        if self.target < 0 or (self.control is not None and self.control < 0):
            raise ValueError("qubit indices must be non-negative")
        if self.control == self.target:
            raise ValueError("control and target qubits must differ")

    @property
    def qubits(self) -> tuple[int, ...]:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)

    def inverse(self) -> "GateOp":
        """Inverse gate: angles negate, the rest are self-inverse."""
        if self.angle is not None:
            return GateOp(self.kind, self.target, self.control, -self.angle)
        return self


def rx(target: int, angle: float) -> GateOp:
    return GateOp("RX", target, angle=angle)


def ry(target: int, angle: float) -> GateOp:
    return GateOp("RY", target, angle=angle)


def rz(target: int, angle: float) -> GateOp:
    return GateOp("RZ", target, angle=angle)


def h(target: int) -> GateOp:
    return GateOp("H", target)


def cnot(control: int, target: int) -> GateOp:
    return GateOp("CNOT", target, control=control)


def cphase(control: int, target: int, angle: float) -> GateOp:
    return GateOp("CPHASE", target, control=control, angle=angle)


def swap(qubit_a: int, qubit_b: int) -> GateOp:
    return GateOp("SWAP", qubit_b, control=qubit_a)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over a fixed-width register."""

    n_qubits: int
    gates: tuple[GateOp, ...] = ()

    def __post_init__(self) -> None:
        check_qubit_count(self.n_qubits)
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            for q in gate.qubits:
                if q >= self.n_qubits:
                    raise IndexError(
                        f"gate {gate.kind} touches qubit {q} on a "
                        f"{self.n_qubits}-qubit circuit"
                    )

    def inverse(self) -> "Circuit":
        """Gate-wise inverse: reversed order, negated angles."""
        return Circuit(self.n_qubits, tuple(g.inverse() for g in reversed(self.gates)))


@dataclass
class QuantumState:
    """Dense amplitude vector of length 2**n_qubits (complex128)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        check_qubit_count(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ShapeError(
                f"expected {2**self.n_qubits} amplitudes for {self.n_qubits} "
                f"qubits, got shape {amps.shape}"
            )
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def new_zero_state(n_qubits: int) -> QuantumState:
    """The all-zeros computational basis state |0...0>."""
    check_qubit_count(n_qubits)
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


def _rotation_matrix(kind: str, angle) -> np.ndarray:
    """R_kind(angle) as a (2, 2) matrix, or (rows, 2, 2) ones for 1-D RY angles; RY is real."""
    if isinstance(angle, np.ndarray):
        if kind != "RY":
            raise ValueError(f"per-row angles are supported for RY only, not {kind}")
        c, s = np.cos(0.5 * angle), np.sin(0.5 * angle)
        return np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    half = 0.5 * angle
    c, s = math.cos(half), math.sin(half)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if kind == "RY":
        return np.array([[c, -s], [s, c]])
    if kind == "RZ":
        return np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]], dtype=complex)
    raise ValueError(f"not a rotation kind: {kind!r}")


# Amplitude arrays have shape (..., 2**n): one state, or one state per row.
# The kernels below may overwrite their input; callers use the returned array.

# Gate sweeps (encoding, ansatz, adjoint) run over row blocks of at most
# BLOCK_AMPLITUDES amplitudes, so a block and a gate's temporaries stay in cache.
BLOCK_AMPLITUDES = 1 << 15


def row_chunks(n_rows: int, row_size: int) -> list[slice]:
    """Slices of at least one row and at most BLOCK_AMPLITUDES (read at call time) values
    of ``row_size`` per row; zero rows give one empty slice, so a block's checks run on an
    empty matrix too."""
    step = max(1, BLOCK_AMPLITUDES // row_size)
    return [slice(start, start + step) for start in range(0, max(n_rows, 1), step)]


def _split(amps: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """View of shape (..., 2**(n-1-q), 2, 2**q) whose axis -2 is the bit of qubit q."""
    return amps.reshape(amps.shape[:-1] + (2 ** (n_qubits - 1 - qubit), 2, 2**qubit))


def _apply_1q_matrix(amps: np.ndarray, mat: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Two-slice update with one (2, 2) matrix or per-row (m, 2, 2) matrices."""
    psi = _split(amps, qubit, n_qubits)
    m = np.asarray(mat)[..., None, None]
    a0, a1 = psi[..., 0, :], psi[..., 1, :]
    new0 = m[..., 0, 0, :, :] * a0 + m[..., 0, 1, :, :] * a1
    psi[..., 1, :] = m[..., 1, 0, :, :] * a0 + m[..., 1, 1, :, :] * a1
    psi[..., 0, :] = new0
    return psi.reshape(amps.shape)


def _split_pair(amps: np.ndarray, gate: GateOp, n_qubits: int) -> tuple[np.ndarray, ...]:
    """The two-qubit twin of _split: the view psi of shape (..., 2**(n-1-hi), 2, 2**(hi-lo-1), 2,
    2**lo) for the gate's qubits lo < hi, and its two views at the gate's _PAIR_BITS."""
    c, t = gate.control, gate.target
    lo, hi = (c, t) if c < t else (t, c)
    psi = amps.reshape(amps.shape[:-1] + (2 ** (n_qubits - 1 - hi), 2, 2 ** (hi - lo - 1), 2, 2**lo))
    (c0, t0), (c1, t1) = _PAIR_BITS[gate.kind]
    if c > t:
        return psi, psi[..., c0, :, t0, :], psi[..., c1, :, t1, :]
    return psi, psi[..., t0, :, c0, :], psi[..., t1, :, c1, :]


def _apply_gate_to_array(amps: np.ndarray, gate: GateOp, n_qubits: int) -> np.ndarray:
    kind = gate.kind
    if kind in ("RX", "RY", "RZ"):
        return _apply_1q_matrix(amps, _rotation_matrix(kind, gate.angle), gate.target, n_qubits)
    if kind == "H":
        return _apply_1q_matrix(amps, _H_MATRIX, gate.target, n_qubits)
    psi, first, second = _split_pair(amps, gate, n_qubits)
    if kind == "CPHASE":
        second[...] = second * np.exp(1j * gate.angle)
    else:
        first[...], second[...] = second, first.copy()
    return psi.reshape(amps.shape)


def apply_gate(state: QuantumState, gate: GateOp) -> QuantumState:
    """Apply one gate, updating the state in place.  Returns the state."""
    for q in gate.qubits:
        if q >= state.n_qubits:
            raise IndexError(
                f"gate {gate.kind} touches qubit {q} on a {state.n_qubits}-qubit state"
            )
    state.amplitudes = _apply_gate_to_array(state.amplitudes, gate, state.n_qubits)
    return state


def evolve(amps: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Every gate in order on each row of an (..., 2**n) array, into a new C-ordered array.

    The array is float64 if the input is real and every gate is, else complex128.
    """
    if np.shape(amps)[-1] != 2**circuit.n_qubits:
        raise ShapeError(
            f"circuit width {circuit.n_qubits} needs {2**circuit.n_qubits} amplitudes "
            f"per row, got shape {np.shape(amps)}"
        )
    real = np.isrealobj(amps) and all(gate.kind in _REAL_KINDS for gate in circuit.gates)
    out = np.array(amps, dtype=float if real else complex, order="C")
    for gate in circuit.gates:
        out = _apply_gate_to_array(out, gate, circuit.n_qubits)
    return out


def run_circuit(state: QuantumState, circuit: Circuit) -> QuantumState:
    """Apply every gate in order, updating the state in place."""
    state.amplitudes = evolve(state.amplitudes, circuit)
    return state


def cnot_ring(n_qubits: int) -> tuple[GateOp, ...]:
    """CNOT(j, j + 1 mod n) for each qubit j in order; empty on one qubit."""
    if n_qubits < 2:
        return ()
    return tuple(cnot(j, (j + 1) % n_qubits) for j in range(n_qubits))


def qft_circuit(n_qubits: int) -> Circuit:
    """Quantum Fourier transform as H + controlled-phase ladders + bit reversal.

    Maps basis state |x> to (1/sqrt(N)) * sum_k exp(2 pi i k x / N) |k>
    with N = 2**n_qubits.
    """
    check_qubit_count(n_qubits)
    gates: list[GateOp] = []
    for j in range(n_qubits - 1, -1, -1):
        gates.append(h(j))
        for m in range(j - 1, -1, -1):
            gates.append(cphase(m, j, math.pi / 2 ** (j - m)))
    for j in range(n_qubits // 2):
        gates.append(swap(j, n_qubits - 1 - j))
    return Circuit(n_qubits, tuple(gates))


def z_expectations(amps: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """<Z_q> for each row of an (..., 2**n) amplitude array."""
    marg = _split(np.abs(amps) ** 2, qubit, n_qubits).sum(axis=(-3, -1))
    return marg[..., 0] - marg[..., 1]


def adjoint_grad(circuit: Circuit, phi: np.ndarray, weights: np.ndarray, qubit: int) -> np.ndarray:
    """d/dtheta of sum_b weights_b <Z_qubit>_b per angled gate, in circuit order.

    ``phi`` holds the rows' states after ``circuit`` and is consumed.  The
    backward sweep starts from lam = weights * Z phi and walks the gates in
    reverse: at each rotation R(theta) = exp(-i theta sigma / 2),
    d/dtheta = 2 Re sum_b <lam_b|(-i sigma / 2)|phi_b> = Re sum_b <lam_b|R(pi)|phi_b>,
    since R(pi) = -i sigma; then both phi and lam step back through the
    gate's inverse.  A gate with per-row angles gets the sum over its rows.
    Raises ValueError, before any gate is applied, on an angled gate that is
    not one of these rotations (CPHASE).
    """
    for i, gate in enumerate(circuit.gates):
        if gate.angle is not None and gate.kind not in ("RX", "RY", "RZ"):
            raise ValueError(f"adjoint_grad: gate {i} is {gate.kind}, not RX, RY or RZ")
    n = circuit.n_qubits
    lam = weights[:, None] * (1.0 - 2.0 * ((np.arange(2**n) >> qubit) & 1)) * phi
    k = sum(gate.angle is not None for gate in circuit.gates)
    grad = np.zeros(k)
    for gate in reversed(circuit.gates):
        if gate.angle is not None:
            k -= 1
            r_pi = _rotation_matrix(gate.kind, math.pi)
            turned = _apply_1q_matrix(phi.copy(), r_pi, gate.target, n)
            # Re <lam|turned> as one real dot over the (re, im) pairs; a complex
            # np.vdot here raised the vqc-train peak RSS by about 0.25 MB
            grad[k] = np.dot(lam.view(float).ravel(), turned.view(float).ravel())
        inverse = gate.inverse()
        phi = _apply_gate_to_array(phi, inverse, n)
        lam = _apply_gate_to_array(lam, inverse, n)
    return grad


def inner_product(state_a: QuantumState, state_b: QuantumState) -> complex:
    """<a|b>, conjugating the first argument."""
    if state_a.n_qubits != state_b.n_qubits:
        raise ShapeError(
            f"states have different widths: {state_a.n_qubits} and {state_b.n_qubits}"
        )
    return complex(np.vdot(state_a.amplitudes, state_b.amplitudes))
