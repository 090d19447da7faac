"""Circuit readout and gradient checks.

Two independent oracles pin the forward pass: a trigonometric closed form
(the circuit factorizes per qubit, so <Z_i> = cos(rx_angle_i) *
cos(pi x_i + ry_angle_i); the Rz never moves <Z>), and a full-register
simulation that builds the 2^n-amplitude product state gate by gate.
Gradients are checked shift-vs-differences and against the closed form.
"""

import math

import numpy as np
import pytest

from qdiag.pqc import (
    PARAM_SHIFT,
    RX_ANGLE,
    RY_ANGLE,
    RZ_ANGLE,
    PqcParams,
    pqc_expectations_batch,
    pqc_forward,
    pqc_gradient_finite_difference,
    pqc_gradient_parameter_shift,
    pqc_jacobian_batch,
    random_pqc_params,
)
from qdiag.sim import (
    apply_single_qubit_gate,
    expectation_z,
    gate_rx,
    gate_ry,
    gate_rz,
    new_zero_state,
)


def closed_form(x: np.ndarray, params: PqcParams) -> np.ndarray:
    return np.cos(params.angles[:, RX_ANGLE]) * np.cos(
        np.pi * np.asarray(x) + params.angles[:, RY_ANGLE]
    )


def full_register_forward(x: np.ndarray, params: PqcParams) -> np.ndarray:
    """Run every gate on one joint 2^n-amplitude register, then read each
    qubit; factorization makes this equal to the per-qubit path."""
    n = params.num_qubits
    state = new_zero_state(n)
    for i in range(n):
        state = apply_single_qubit_gate(state, gate_ry(math.pi * x[i]), i)
        state = apply_single_qubit_gate(state, gate_ry(params.angles[i, RY_ANGLE]), i)
        state = apply_single_qubit_gate(state, gate_rx(params.angles[i, RX_ANGLE]), i)
        state = apply_single_qubit_gate(state, gate_rz(params.angles[i, RZ_ANGLE]), i)
    return np.array([expectation_z(state, i) for i in range(n)])


def test_zero_angles_read_cos_pi_x():
    params = PqcParams(3, np.zeros((3, 3)))
    out = pqc_forward([0.0, 0.5, 1.0], params)
    assert np.allclose(out, [1.0, 0.0, -1.0], atol=1e-12)


def test_forward_matches_closed_form_oracle():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        params = random_pqc_params(n, rng)
        x = rng.uniform(0.0, 1.0, size=n)
        assert np.max(np.abs(pqc_forward(x, params) - closed_form(x, params))) < 1e-12


def test_forward_matches_full_register_simulation():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        params = random_pqc_params(n, rng)
        x = rng.uniform(0.0, 1.0, size=n)
        got = pqc_forward(x, params)
        assert np.max(np.abs(got - full_register_forward(x, params))) < 1e-12


def test_expectations_are_bounded():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        out = pqc_forward(rng.uniform(0, 1, size=n), random_pqc_params(n, rng))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_angles_are_two_pi_periodic():
    rng = np.random.default_rng(53)
    params = random_pqc_params(4, rng)
    x = rng.uniform(0.0, 1.0, size=4)
    wrapped = PqcParams(4, params.angles + 2.0 * np.pi)
    assert np.max(np.abs(pqc_forward(x, params) - pqc_forward(x, wrapped))) < 1e-12


def test_forward_validates_input():
    params = PqcParams(2, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        pqc_forward([0.1], params)  # wrong width
    with pytest.raises(ValueError, match="feature 1"):
        pqc_forward([0.1, 1.2], params)  # out of range


def test_params_validation():
    with pytest.raises(ValueError):
        PqcParams(2, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PqcParams(2, np.full((2, 3), np.inf))
    with pytest.raises(ValueError):
        PqcParams(0, np.zeros((0, 3)))


def test_gradient_examples_from_closed_form():
    # d<Z>/d(ry_angle) at x=0: -cos(rx_angle) * sin(ry_angle).
    flat = PqcParams(1, np.zeros((1, 3)))
    jac = pqc_gradient_parameter_shift([0.0], flat)
    assert abs(jac[0, 0, RY_ANGLE]) < 1e-12

    steep = PqcParams(1, np.array([[math.pi / 2, 0.0, 0.0]]))
    jac = pqc_gradient_parameter_shift([0.0], steep)
    assert abs(jac[0, 0, RY_ANGLE] + 1.0) < 1e-12


def test_parameter_shift_matches_closed_form_derivatives():
    rng = np.random.default_rng(59)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        params = random_pqc_params(n, rng)
        x = rng.uniform(0.0, 1.0, size=n)
        jac = pqc_gradient_parameter_shift(x, params)
        ry, rx = params.angles[:, RY_ANGLE], params.angles[:, RX_ANGLE]
        phase = np.pi * x + ry
        expected_ry = -np.cos(rx) * np.sin(phase)
        expected_rx = -np.sin(rx) * np.cos(phase)
        diag = jac[np.arange(n), np.arange(n), :]
        assert np.max(np.abs(diag[:, RY_ANGLE] - expected_ry)) < 1e-12
        assert np.max(np.abs(diag[:, RX_ANGLE] - expected_rx)) < 1e-12


def test_parameter_shift_agrees_with_finite_differences():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        params = random_pqc_params(n, rng)
        x = rng.uniform(0.0, 1.0, size=n)
        shift = pqc_gradient_parameter_shift(x, params)
        fd = pqc_gradient_finite_difference(x, params, step=1e-4)
        assert np.max(np.abs(shift - fd)) < 1e-6


def test_rz_angle_gradients_vanish():
    # The shift rule is exact, so its rz column is zero to machine noise.
    # The differences route divides one-ulp forward rounding by 2h, so its
    # floor is eps/h ~ 2e-12; anything under 1e-11 means a null derivative.
    rng = np.random.default_rng(67)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        params = random_pqc_params(n, rng)
        x = rng.uniform(0.0, 1.0, size=n)
        assert np.max(np.abs(pqc_gradient_parameter_shift(x, params)[:, :, RZ_ANGLE])) < 1e-12
        assert np.max(np.abs(pqc_gradient_finite_difference(x, params)[:, :, RZ_ANGLE])) < 1e-11


def test_jacobian_is_block_diagonal():
    rng = np.random.default_rng(71)
    params = random_pqc_params(4, rng)
    x = rng.uniform(0.0, 1.0, size=4)
    jac = pqc_gradient_parameter_shift(x, params)
    for i in range(4):
        for q in range(4):
            if i != q:
                assert np.all(jac[i, q, :] == 0.0)


def test_perturbing_one_qubit_leaves_others_exactly_unchanged():
    rng = np.random.default_rng(73)
    params = random_pqc_params(5, rng)
    x = rng.uniform(0.0, 1.0, size=5)
    base = pqc_forward(x, params)
    bumped = params.copy()
    bumped.angles[2, :] += rng.uniform(0.1, 1.0, size=3)
    moved = pqc_forward(x, bumped)
    others = np.arange(5) != 2
    assert np.all(moved[others] == base[others])


def test_finite_difference_rejects_bad_step():
    params = PqcParams(1, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        pqc_gradient_finite_difference([0.5], params, step=0.0)
    with pytest.raises(ValueError):
        pqc_gradient_finite_difference([0.5], params, step=-1e-4)


def test_batch_expectations_match_per_sample_forward():
    rng = np.random.default_rng(79)
    params = random_pqc_params(5, rng)
    batch = rng.uniform(0.0, 1.0, size=(40, 5))
    fast = pqc_expectations_batch(batch, params)
    slow = np.stack([pqc_forward(row, params) for row in batch])
    assert np.max(np.abs(fast - slow)) < 1e-14


def test_batch_jacobian_matches_per_sample_diagonal():
    rng = np.random.default_rng(83)
    params = random_pqc_params(4, rng)
    batch = rng.uniform(0.0, 1.0, size=(7, 4))
    fast = pqc_jacobian_batch(batch, params)
    for b, row in enumerate(batch):
        full = pqc_gradient_parameter_shift(row, params)
        diag = full[np.arange(4), np.arange(4), :]
        assert np.max(np.abs(fast[b] - diag)) < 1e-12
    # Shifting Rz leaves the readout bit-identical, so its column is exactly 0.
    assert np.all(fast[:, :, RZ_ANGLE] == 0.0)
    # The batch is validated by the readout passes the Jacobian makes.
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        pqc_jacobian_batch(np.full((2, 4), 1.5), params)
    with pytest.raises(ValueError, match="batch has shape"):
        pqc_jacobian_batch(np.zeros((2, 3)), params)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [pqc_expectations_batch, pqc_jacobian_batch])
def test_batch_paths_refuse_non_finite_values(fn, bad):
    params = random_pqc_params(3, np.random.default_rng(89))
    batch = np.full((4, 3), 0.5)
    batch[2, 1] = bad
    with pytest.raises(ValueError, match="lie in"):
        fn(batch, params)


def fresh_table_jacobian(batch, params: PqcParams) -> np.ndarray:
    """The batched shift rule with a freshly built angle table per pass."""
    columns = []
    for k in range(3):
        shift = np.zeros((params.num_qubits, 3))
        shift[:, k] = PARAM_SHIFT
        plus = pqc_expectations_batch(batch, PqcParams(params.num_qubits, params.angles + shift))
        minus = pqc_expectations_batch(batch, PqcParams(params.num_qubits, params.angles - shift))
        columns.append((plus - minus) / 2.0)
    return np.stack(columns, axis=-1)


def test_batch_jacobian_leaves_its_input_and_matches_fresh_tables():
    rng = np.random.default_rng(97)
    for trial in range(60):
        n = int(rng.integers(1, 6))
        params = random_pqc_params(n, rng)
        rows = (0, 1, int(rng.integers(2, 40)))[trial % 3]
        batch = rng.uniform(0.0, 1.0, size=(rows, n))
        if trial % 2:  # signed zeros in the table, exact zeros in the batch
            params.angles[rng.random((n, 3)) < 0.4] = -0.0
            batch[rng.random((rows, n)) < 0.3] = 0.0
        before = params.angles.tobytes()
        jac = pqc_jacobian_batch(batch, params)
        assert params.angles.tobytes() == before
        assert not np.shares_memory(jac, params.angles) and not np.shares_memory(jac, batch)
        assert jac.shape == (rows, n, 3)
        assert np.array_equal(jac, fresh_table_jacobian(batch, params))


@pytest.mark.parametrize("fn, tail", [(pqc_expectations_batch, ()), (pqc_jacobian_batch, (3,))])
def test_batch_range_check_edges(fn, tail):
    params = random_pqc_params(4, np.random.default_rng(101))
    edges = np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.5, 0.25]])
    assert fn(edges, params).shape == (2, 4) + tail
    assert fn(np.empty((0, 4)), params).shape == (0, 4) + tail
    for bad in (np.nextafter(1.0, 2.0), -5e-324):
        batch = edges.copy()
        batch[1, 2] = bad
        with pytest.raises(ValueError, match="lie in"):
            fn(batch, params)
