"""Trainable per-qubit rotation circuit with z-expectation readout.

Each qubit i carries three angles and evolves independently:

    |0> -> Rz(angles[i, 2]) Rx(angles[i, 1]) Ry(angles[i, 0]) Ry(pi * x_i) |0>

followed by a <Z> measurement.  There are no entangling gates, so each
readout is exactly <Z_i> = cos(angles[i, 1]) * cos(pi * x_i + angles[i, 0]):
expectation i reacts only to row i of the angle table.  The Rz angle never
moves <Z> at all (it commutes with the measurement); it is kept so the
circuit matches its published layout, and its gradient is identically zero.

The batched path evaluates that closed form; the per-sample path runs the
statevector simulator and is the oracle the tests and `gradcheck` pin it to.

Gradients come from the parameter-shift rule

    d<Z>/d(angle) = (f(angle + pi/2) - f(angle - pi/2)) / 2

which is exact for these rotation gates.  Central finite differences
(`pqc_gradient_finite_difference`) are an independent oracle for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import encode_as_ry_rotations
from .sim import (
    MAX_QUBITS,
    apply_single_qubit_gate,
    expectation_z,
    gate_rx,
    gate_ry,
    gate_rz,
    new_zero_state,
)

# Column layout of the angle table.
RY_ANGLE, RX_ANGLE, RZ_ANGLE = 0, 1, 2

PARAM_SHIFT = np.pi / 2.0

# Added to an angle table, the six shifted tables of the parameter-shift rule:
# row 2k adds +PARAM_SHIFT to column k, row 2k + 1 adds -PARAM_SHIFT.  The
# other entries are -0.0, because x + -0.0 is x for every x, signed zeros too.
_SHIFTS = np.full((6, 1, 3), -0.0)
_SHIFTS[np.arange(6), 0, np.arange(6) // 2] = [PARAM_SHIFT, -PARAM_SHIFT] * 3
_SHIFTS.setflags(write=False)


@dataclass
class PqcParams:
    """Angle table of the circuit, one (Ry, Rx, Rz) row per qubit."""

    num_qubits: int
    angles: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"num_qubits must be in [1, {MAX_QUBITS}], got {self.num_qubits}"
            )
        angles = np.asarray(self.angles, dtype=np.float64)
        if angles.shape != (self.num_qubits, 3):
            raise ValueError(
                f"expected angle table of shape ({self.num_qubits}, 3), "
                f"got {angles.shape}"
            )
        if not np.isfinite(angles).all():
            raise ValueError("angles must be finite")
        self.angles = angles

    def copy(self) -> "PqcParams":
        return PqcParams(self.num_qubits, self.angles.copy())


def random_pqc_params(num_qubits: int, rng: np.random.Generator) -> PqcParams:
    """Fresh angle table, uniform in (-pi, pi)."""
    return PqcParams(num_qubits, rng.uniform(-np.pi, np.pi, size=(num_qubits, 3)))


def _check_input(x, params: PqcParams) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (params.num_qubits,):
        raise ValueError(
            f"input has shape {x.shape}, circuit expects ({params.num_qubits},)"
        )
    return x


def pqc_forward(x, params: PqcParams) -> np.ndarray:
    """Per-qubit <Z> readout for one normalized input vector.

    Reference implementation: runs each qubit's four-gate circuit through
    the statevector simulator.  The result is clipped to [-1, 1] to shave
    off float rounding at the boundary.
    """
    x = _check_input(x, params)
    encode_angles = encode_as_ry_rotations(x)  # validates the [0, 1] range
    out = np.empty(params.num_qubits)
    for i in range(params.num_qubits):
        state = new_zero_state(1)
        state = apply_single_qubit_gate(state, gate_ry(encode_angles[i]), 0)
        state = apply_single_qubit_gate(state, gate_ry(params.angles[i, RY_ANGLE]), 0)
        state = apply_single_qubit_gate(state, gate_rx(params.angles[i, RX_ANGLE]), 0)
        state = apply_single_qubit_gate(state, gate_rz(params.angles[i, RZ_ANGLE]), 0)
        out[i] = expectation_z(state, 0)
    return np.clip(out, -1.0, 1.0)


def _shifted(params: PqcParams, qubit: int, column: int, delta: float) -> PqcParams:
    shifted = params.copy()
    shifted.angles[qubit, column] += delta
    return shifted


def _difference_jacobian(x, params: PqcParams, delta: float, divisor: float) -> np.ndarray:
    """(f(angle + delta) - f(angle - delta)) / divisor per angle, shape (n, n, 3)."""
    x = _check_input(x, params)
    n = params.num_qubits
    jac = np.zeros((n, n, 3))
    for q in range(n):
        for k in range(3):
            plus = pqc_forward(x, _shifted(params, q, k, delta))
            minus = pqc_forward(x, _shifted(params, q, k, -delta))
            jac[:, q, k] = (plus - minus) / divisor
    return jac


def pqc_gradient_parameter_shift(x, params: PqcParams) -> np.ndarray:
    """Exact Jacobian d<Z_i>/d(angles[q, k]), shape (n, n, 3).

    Two shifted forward passes per parameter.  Off-diagonal blocks come out
    zero because the qubits never interact.
    """
    return _difference_jacobian(x, params, PARAM_SHIFT, 2.0)


def pqc_gradient_finite_difference(
    x, params: PqcParams, step: float = 1e-4
) -> np.ndarray:
    """Central-difference Jacobian with the same (n, n, 3) layout."""
    if not step > 0.0:
        raise ValueError(f"finite-difference step must be positive, got {step}")
    return _difference_jacobian(x, params, step, 2.0 * step)


def _check_batch(batch, params: PqcParams) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.num_qubits:
        raise ValueError(f"batch has shape {batch.shape}, expected (*, {params.num_qubits})")
    # NaN carries through min and max and fails the test; +-inf falls outside.
    if batch.size and not (batch.min() >= 0.0 and batch.max() <= 1.0):
        raise ValueError("batch values must lie in [0, 1]")
    return batch


def _readout(normed: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """cos(rx) * cos(pi x + ry) on checked rows, in place on one fresh array."""
    out = np.multiply(normed, np.pi)
    out += angles[:, RY_ANGLE]
    return np.multiply(np.cos(out, out=out), np.cos(angles[:, RX_ANGLE]), out=out)


def pqc_expectations_batch(batch, params: PqcParams) -> np.ndarray:
    """<Z> readout for a whole batch at once, shape (batch, n).

    Checks the batch, then evaluates the closed form cos(rx) * cos(pi x + ry)
    of the circuit that pqc_forward simulates gate by gate.  Training uses
    this path; scoring calls `_readout` on rows `apply_normalizer` checked.
    """
    return _readout(_check_batch(batch, params), params.angles)


def pqc_jacobian_batch(batch, params: PqcParams) -> np.ndarray:
    """Diagonal Jacobian blocks d<Z_i>/d(angles[i, k]) for a batch.

    Returns shape (batch, n, 3).  Because expectation i depends only on
    row i of the angle table, shifting one column across every row at once
    yields all diagonal entries for that column in a single batched pass of
    the parameter-shift rule.  One add builds the six shifted tables, and a
    working copy of the parameters takes each in turn: six validated
    readout passes in all.
    """
    work = params.copy()  # checked once: a finite angle +- pi/2 stays finite
    tables = work.angles + _SHIFTS
    jac = None
    for k in range(3):
        work.angles = tables[2 * k]
        plus = pqc_expectations_batch(batch, work)
        if jac is None:  # allocated once the first pass has checked the batch
            jac = np.empty(plus.shape + (3,))
        work.angles = tables[2 * k + 1]
        np.subtract(plus, pqc_expectations_batch(batch, work), out=jac[:, :, k])
    return np.divide(jac, 2.0, out=jac)
