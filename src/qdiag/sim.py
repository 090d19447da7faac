"""Dense statevector simulation of small qubit registers.

States are numpy complex128 vectors over the computational basis.  Qubit 0
is the most significant bit of a basis index, so for two qubits the basis
order is |00>, |01>, |10>, |11>: the product state of qubit 0 in a and
qubit 1 in b has amplitudes np.kron(a, b).
Gates are plain 2x2 (or 4x4 for CNOT) unitary ndarrays; application checks
unitarity rather than trusting the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# 2**20 complex amplitudes is 16 MiB; anything larger is a caller bug,
# not a use case this simulator is meant for.
MAX_QUBITS = 20

_NORM_TOL = 1e-10
_UNITARY_TOL = 1e-10

SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class QuantumState:
    """Normalized amplitude vector over 2**num_qubits basis states."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {self.num_qubits}"
            )
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubit(s), got shape {amps.shape}"
            )
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise ValueError("amplitudes must be finite")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than {_NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)


def new_zero_state(num_qubits: int) -> QuantumState:
    """All-qubits-|0> register, amplitude 1 on basis index 0."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")
    amps = np.zeros(2**num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return QuantumState(num_qubits, amps)


def _check_angle(xi: float) -> float:
    xi = float(xi)
    if not math.isfinite(xi):
        raise ValueError(f"rotation angle must be finite, got {xi}")
    return xi


def gate_h() -> np.ndarray:
    return np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]], dtype=np.complex128)


def gate_rx(xi: float) -> np.ndarray:
    xi = _check_angle(xi)
    c, s = math.cos(xi / 2.0), math.sin(xi / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def gate_ry(xi: float) -> np.ndarray:
    xi = _check_angle(xi)
    c, s = math.cos(xi / 2.0), math.sin(xi / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def gate_rz(xi: float) -> np.ndarray:
    xi = _check_angle(xi)
    phase = np.exp(-0.5j * xi)
    return np.array([[phase, 0.0], [0.0, np.conj(phase)]], dtype=np.complex128)


def gate_cnot() -> np.ndarray:
    """CNOT on two qubits, control = qubit 0 (most significant bit)."""
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=np.complex128,
    )


def _check_target(state: QuantumState, target: int, name: str = "target") -> None:
    if not 0 <= target < state.num_qubits:
        raise ValueError(
            f"{name} qubit {target} out of range for {state.num_qubits}-qubit state"
        )


def apply_single_qubit_gate(
    state: QuantumState, gate: np.ndarray, target: int
) -> QuantumState:
    """Apply a 2x2 unitary to one qubit of the register."""
    _check_target(state, target)
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (2, 2):
        raise ValueError(f"single-qubit gate must be 2x2, got shape {gate.shape}")
    if not np.allclose(gate.conj().T @ gate, np.eye(2), atol=_UNITARY_TOL):
        raise ValueError("gate matrix is not unitary")
    n = state.num_qubits
    psi = state.amplitudes.reshape([2] * n)
    # Contract the gate with the target axis; tensordot puts it first.
    out = np.tensordot(gate, psi, axes=([1], [target]))
    out = np.moveaxis(out, 0, target).reshape(-1)
    return QuantumState(n, out)


def apply_cnot(state: QuantumState, control: int, target: int) -> QuantumState:
    """Flip the target qubit on every basis state whose control bit is 1."""
    _check_target(state, control, "control")
    _check_target(state, target)
    if control == target:
        raise ValueError(f"control and target must differ, both are {control}")
    n = state.num_qubits
    k = np.arange(2**n)
    control_set = (k >> (n - 1 - control)) & 1 == 1
    flipped = k ^ (1 << (n - 1 - target))
    out = state.amplitudes.copy()
    out[k[control_set]] = state.amplitudes[flipped[control_set]]
    return QuantumState(n, out)


def probabilities(state: QuantumState) -> np.ndarray:
    """Born-rule probability of each basis outcome."""
    return np.abs(state.amplitudes) ** 2


def expectation_z(state: QuantumState, target: int) -> float:
    """<Z> of one qubit: P(bit = 0) - P(bit = 1)."""
    _check_target(state, target)
    n = state.num_qubits
    k = np.arange(2**n)
    bit = (k >> (n - 1 - target)) & 1
    p = np.abs(state.amplitudes) ** 2
    return float(p[bit == 0].sum() - p[bit == 1].sum())
