"""Simulator checks against brute-force matrix construction.

The oracle here never uses the simulator's apply path: it builds the full
2^n x 2^n operator with explicit Kronecker products (identity on every
untouched qubit, most significant qubit first) and multiplies it out.
"""

import math

import numpy as np
import pytest

from qdiag.sim import (
    MAX_QUBITS,
    QuantumState,
    apply_cnot,
    apply_single_qubit_gate,
    expectation_z,
    gate_cnot,
    gate_h,
    gate_rx,
    gate_ry,
    gate_rz,
    new_zero_state,
    probabilities,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


def full_single_qubit_operator(gate: np.ndarray, target: int, n: int) -> np.ndarray:
    """Kron chain I x ... x gate x ... x I with qubit 0 leftmost."""
    op = np.eye(1, dtype=np.complex128)
    for q in range(n):
        op = np.kron(op, gate if q == target else np.eye(2))
    return op


def random_state(rng: np.random.Generator, n: int) -> QuantumState:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QuantumState(n, amps / np.linalg.norm(amps))


def test_zero_state_has_unit_amplitude_on_index_zero():
    for n in (1, 2, 5):
        state = new_zero_state(n)
        assert state.amplitudes[0] == 1.0
        assert np.all(state.amplitudes[1:] == 0.0)


def test_zero_state_rejects_out_of_range_sizes():
    for bad in (0, -1, MAX_QUBITS + 1):
        with pytest.raises(ValueError):
            new_zero_state(bad)


def test_state_rejects_unnormalized_amplitudes():
    with pytest.raises(ValueError):
        QuantumState(1, np.array([1.0, 1.0]))


def test_state_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError):
        QuantumState(1, np.array([np.nan, 0.0]))


def test_hadamard_matrix_values():
    expected = SQRT1_2 * np.array([[1, 1], [1, -1]])
    assert np.allclose(gate_h(), expected, atol=1e-15)


def test_rx_at_zero_is_identity():
    assert np.allclose(gate_rx(0.0), np.eye(2), atol=1e-15)


def test_ry_pi_maps_zero_to_one():
    state = apply_single_qubit_gate(new_zero_state(1), gate_ry(math.pi), 0)
    assert np.allclose(state.amplitudes, [0.0, 1.0], atol=1e-12)


def test_rotation_gates_reject_non_finite_angle():
    for builder in (gate_rx, gate_ry, gate_rz):
        with pytest.raises(ValueError):
            builder(float("nan"))
        with pytest.raises(ValueError):
            builder(float("inf"))


def test_gate_unitarity_at_random_angles():
    rng = np.random.default_rng(7)
    gates = [gate_h(), gate_cnot()]
    for xi in rng.uniform(-4 * math.pi, 4 * math.pi, size=100):
        gates.extend([gate_rx(xi), gate_ry(xi), gate_rz(xi)])
    for gate in gates:
        eye = np.eye(gate.shape[0])
        assert np.max(np.abs(gate.conj().T @ gate - eye)) < 1e-12


def test_hadamard_on_zero_gives_equal_superposition():
    state = apply_single_qubit_gate(new_zero_state(1), gate_h(), 0)
    assert np.allclose(state.amplitudes, [SQRT1_2, SQRT1_2], atol=1e-15)


def test_hadamard_twice_is_identity():
    state = new_zero_state(1)
    state = apply_single_qubit_gate(state, gate_h(), 0)
    state = apply_single_qubit_gate(state, gate_h(), 0)
    assert np.allclose(state.amplitudes, [1.0, 0.0], atol=1e-15)


def test_rz_leaves_superposition_probabilities_unchanged():
    # Oracle: explicit 2x2 product Rz(0.7) H |0>.
    expected = gate_rz(0.7) @ gate_h() @ np.array([1.0, 0.0], dtype=np.complex128)
    state = apply_single_qubit_gate(new_zero_state(1), gate_h(), 0)
    state = apply_single_qubit_gate(state, gate_rz(0.7), 0)
    assert np.allclose(state.amplitudes, expected, atol=1e-15)
    assert np.allclose(probabilities(state), [0.5, 0.5], atol=1e-12)


def test_apply_rejects_bad_target_and_non_unitary_gate():
    state = new_zero_state(2)
    with pytest.raises(ValueError):
        apply_single_qubit_gate(state, gate_h(), 2)
    with pytest.raises(ValueError):
        apply_single_qubit_gate(state, gate_h(), -1)
    with pytest.raises(ValueError):
        apply_single_qubit_gate(state, np.array([[1.0, 0.0], [1.0, 1.0]]), 0)


def test_apply_matches_full_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        target = int(rng.integers(0, n))
        state = random_state(rng, n)
        gate = (gate_rx, gate_ry, gate_rz)[rng.integers(0, 3)](rng.uniform(-7, 7))
        if rng.uniform() < 0.25:
            gate = gate_h()
        expected = full_single_qubit_operator(gate, target, n) @ state.amplitudes
        got = apply_single_qubit_gate(state, gate, target)
        assert np.max(np.abs(got.amplitudes - expected)) < 1e-12


def test_cnot_truth_table_on_basis_states():
    # Control = qubit 0 (most significant bit): |10> -> |11>, |11> -> |10>.
    mapping = {0: 0, 1: 1, 2: 3, 3: 2}
    for source, expected in mapping.items():
        amps = np.zeros(4, dtype=np.complex128)
        amps[source] = 1.0
        moved = apply_cnot(QuantumState(2, amps), 0, 1)
        assert moved.amplitudes[expected] == 1.0
        assert np.sum(np.abs(moved.amplitudes)) == 1.0


def test_cnot_matches_matrix_on_random_states():
    rng = np.random.default_rng(13)
    for _ in range(50):
        state = random_state(rng, 2)
        expected = gate_cnot() @ state.amplitudes
        got = apply_cnot(state, 0, 1)
        assert np.max(np.abs(got.amplitudes - expected)) < 1e-12


def test_cnot_with_target_as_control_qubit():
    # Reversed direction: control = qubit 1 (least significant bit).
    state = QuantumState(2, np.array([0, 1, 0, 0], dtype=np.complex128))  # |01>
    moved = apply_cnot(state, 1, 0)
    assert moved.amplitudes[3] == 1.0  # |11>


def test_cnot_rejects_equal_control_and_target():
    with pytest.raises(ValueError):
        apply_cnot(new_zero_state(2), 1, 1)


def test_bell_state_construction():
    state = apply_single_qubit_gate(new_zero_state(2), gate_h(), 0)
    state = apply_cnot(state, 0, 1)
    assert np.allclose(state.amplitudes, [SQRT1_2, 0.0, 0.0, SQRT1_2], atol=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = random_state(rng, int(rng.integers(1, 5)))
        p = probabilities(state)
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-10


def test_expectation_z_of_ry_rotation_is_cosine():
    for theta in (0.0, math.pi / 3, math.pi / 2, 2.0, math.pi):
        state = apply_single_qubit_gate(new_zero_state(1), gate_ry(theta), 0)
        assert abs(expectation_z(state, 0) - math.cos(theta)) < 1e-12


def test_expectation_z_addresses_the_right_qubit():
    # |0> x Ry(pi)|0> = |01>: qubit 0 reads +1, qubit 1 reads -1.
    state = apply_single_qubit_gate(new_zero_state(2), gate_ry(math.pi), 1)
    assert abs(expectation_z(state, 0) - 1.0) < 1e-12
    assert abs(expectation_z(state, 1) + 1.0) < 1e-12


def test_norm_is_conserved_across_random_circuits():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        state = random_state(rng, n)
        for _ in range(10):
            if n >= 2 and rng.uniform() < 0.2:
                q = rng.choice(n, size=2, replace=False)
                state = apply_cnot(state, int(q[0]), int(q[1]))
            else:
                gate = (gate_rx, gate_ry, gate_rz, lambda _: gate_h())[
                    rng.integers(0, 4)
                ](rng.uniform(-7, 7))
                state = apply_single_qubit_gate(state, gate, int(rng.integers(0, n)))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10
