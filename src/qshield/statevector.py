"""Exact dense state-vector quantum circuit simulation.

Conventions, fixed package-wide:

* Qubit 0 is the least-significant bit of the basis index, so basis
  state ``|k>`` assigns qubit ``q`` the bit ``(k >> q) & 1``.
* Rotations use the half-angle convention ``R_a(theta) = exp(-i theta sigma_a / 2)``.
* Global phase is never normalized away.  Compare probabilities,
  expectations, or inner products unless a phase is pinned by
  construction.

States are mutated in place by :func:`apply_gate` and :func:`run_circuit`
and must not be shared between threads; gate ops, circuits, and
observables are frozen and safe to share.  :func:`evolve` runs a circuit
over a ``(batch, 2**n)`` amplitude array and is the one runner every
model builds on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QubitCapError, ShapeError

MAX_QUBITS = 20

GATE_KINDS = frozenset({"RX", "RY", "RZ", "H", "CNOT", "CPHASE", "SWAP"})
_ANGLED_KINDS = frozenset({"RX", "RY", "RZ", "CPHASE"})
_PAIRED_KINDS = frozenset({"CNOT", "CPHASE", "SWAP"})

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_H_MATRIX = np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex)


def _check_qubit_count(n_qubits: int) -> None:
    if not isinstance(n_qubits, int) or n_qubits < 1 or n_qubits > MAX_QUBITS:
        raise QubitCapError(
            f"qubit count must be an integer in [1, {MAX_QUBITS}], got {n_qubits!r}"
        )


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
        needs_pair = self.kind in _PAIRED_KINDS
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
        _check_qubit_count(self.n_qubits)
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            for q in gate.qubits:
                if q >= self.n_qubits:
                    raise IndexError(
                        f"gate {gate.kind} touches qubit {q} on a "
                        f"{self.n_qubits}-qubit circuit"
                    )

    def __len__(self) -> int:
        return len(self.gates)

    def inverse(self) -> "Circuit":
        """Gate-wise inverse: reversed order, negated angles."""
        return Circuit(self.n_qubits, tuple(g.inverse() for g in reversed(self.gates)))


@dataclass(frozen=True)
class Observable:
    """Single-qubit Pauli-Z readout."""

    qubit: int
    kind: str = "Z"

    def __post_init__(self) -> None:
        if self.kind != "Z":
            raise ValueError(f"only Pauli-Z observables are supported, got {self.kind!r}")
        if self.qubit < 0:
            raise ValueError("qubit index must be non-negative")


@dataclass
class QuantumState:
    """Dense amplitude vector of length 2**n_qubits (complex128)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        _check_qubit_count(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2**self.n_qubits,):
            raise ShapeError(
                f"expected {2**self.n_qubits} amplitudes for {self.n_qubits} "
                f"qubits, got shape {amps.shape}"
            )
        self.amplitudes = amps

    def copy(self) -> "QuantumState":
        return QuantumState(self.n_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def new_zero_state(n_qubits: int) -> QuantumState:
    """The all-zeros computational basis state |0...0>."""
    _check_qubit_count(n_qubits)
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


def _rotation_matrix(kind: str, angle) -> np.ndarray:
    """R_kind(angle) as a (2, 2) matrix, or real (rows, 2, 2) ones for a 1-D array of RY angles."""
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
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        return np.array([[c - 1j * s, 0.0], [0.0, c + 1j * s]], dtype=complex)
    raise ValueError(f"not a rotation kind: {kind!r}")


# Amplitude arrays have shape (..., 2**n): one state, or one state per row.
# The kernels below may overwrite their input; callers use the returned array.

# Rows per chunk in batched prediction are capped so that one chunk of
# encoded states holds at most this many amplitudes (16 MiB of complex128).
CHUNK_AMPLITUDES = 1 << 20


def row_chunks(n_rows: int, n_qubits: int) -> list[slice]:
    """Row slices of at most CHUNK_AMPLITUDES amplitudes each (at least one row)."""
    step = max(1, CHUNK_AMPLITUDES >> n_qubits)
    return [slice(start, start + step) for start in range(0, n_rows, step)]


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


def _bit_index(lead_ndim: int, n_qubits: int, bits: dict[int, int]) -> tuple:
    idx: list = [slice(None)] * (lead_ndim + n_qubits)
    for qubit, bit in bits.items():
        idx[lead_ndim + (n_qubits - 1 - qubit)] = bit
    return tuple(idx)


def _swap_subspaces(amps: np.ndarray, n_qubits: int, lo_bits: dict, hi_bits: dict) -> np.ndarray:
    lead = amps.shape[:-1]
    psi = amps.reshape(lead + (2,) * n_qubits)
    lo = _bit_index(len(lead), n_qubits, lo_bits)
    hi = _bit_index(len(lead), n_qubits, hi_bits)
    tmp = psi[lo].copy()
    psi[lo] = psi[hi]
    psi[hi] = tmp
    return psi.reshape(amps.shape)


def _apply_cphase(amps: np.ndarray, control: int, target: int, angle: float, n_qubits: int) -> np.ndarray:
    lead = amps.shape[:-1]
    psi = amps.reshape(lead + (2,) * n_qubits)
    hi = _bit_index(len(lead), n_qubits, {control: 1, target: 1})
    psi[hi] = psi[hi] * np.exp(1j * angle)
    return psi.reshape(amps.shape)


def _apply_gate_to_array(amps: np.ndarray, gate: GateOp, n_qubits: int) -> np.ndarray:
    kind = gate.kind
    if kind in ("RX", "RY", "RZ"):
        return _apply_1q_matrix(amps, _rotation_matrix(kind, gate.angle), gate.target, n_qubits)
    if kind == "H":
        return _apply_1q_matrix(amps, _H_MATRIX, gate.target, n_qubits)
    if kind == "CNOT":
        return _swap_subspaces(
            amps, n_qubits, {gate.control: 1, gate.target: 0}, {gate.control: 1, gate.target: 1}
        )
    if kind == "CPHASE":
        return _apply_cphase(amps, gate.control, gate.target, gate.angle, n_qubits)
    return _swap_subspaces(
        amps, n_qubits, {gate.control: 0, gate.target: 1}, {gate.control: 1, gate.target: 0}
    )


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
    """Every gate in order on each row of an (..., 2**n) array, into a new C-ordered array."""
    if np.shape(amps)[-1] != 2**circuit.n_qubits:
        raise ShapeError(
            f"circuit width {circuit.n_qubits} needs {2**circuit.n_qubits} amplitudes "
            f"per row, got shape {np.shape(amps)}"
        )
    out = np.array(amps, dtype=complex, order="C")
    for gate in circuit.gates:
        out = _apply_gate_to_array(out, gate, circuit.n_qubits)
    return out


def run_circuit(state: QuantumState, circuit: Circuit) -> QuantumState:
    """Apply every gate in order, updating the state in place."""
    if circuit.n_qubits != state.n_qubits:
        raise ShapeError(
            f"circuit width {circuit.n_qubits} does not match state width {state.n_qubits}"
        )
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
    _check_qubit_count(n_qubits)
    gates: list[GateOp] = []
    for j in range(n_qubits - 1, -1, -1):
        gates.append(h(j))
        for m in range(j - 1, -1, -1):
            gates.append(cphase(m, j, math.pi / 2 ** (j - m)))
    for j in range(n_qubits // 2):
        gates.append(swap(j, n_qubits - 1 - j))
    return Circuit(n_qubits, tuple(gates))


def probabilities(state: QuantumState) -> np.ndarray:
    """Measurement probabilities |amplitude|^2 per basis state."""
    return np.abs(state.amplitudes) ** 2


def expectation_z(state: QuantumState, observable: Observable) -> float:
    """<Z_q> = P(qubit q reads 0) - P(qubit q reads 1)."""
    if observable.qubit >= state.n_qubits:
        raise IndexError(
            f"observable on qubit {observable.qubit} but state has "
            f"{state.n_qubits} qubits"
        )
    return float(z_expectations(state.amplitudes, observable.qubit, state.n_qubits))


def z_expectations(amps: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """<Z_q> for each row of an (..., 2**n) amplitude array."""
    marg = _split(np.abs(amps) ** 2, qubit, n_qubits).sum(axis=(-3, -1))
    return marg[..., 0] - marg[..., 1]


def inner_product(state_a: QuantumState, state_b: QuantumState) -> complex:
    """<a|b>, conjugating the first argument."""
    if state_a.n_qubits != state_b.n_qubits:
        raise ShapeError(
            f"states have different widths: {state_a.n_qubits} and {state_b.n_qubits}"
        )
    return complex(np.vdot(state_a.amplitudes, state_b.amplitudes))
