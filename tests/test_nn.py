"""Tests for the dense classifier: activations, backprop, Adam."""

import numpy as np
import pytest

from qdiag.nn import (
    PROB_FLOOR,
    AdamState,
    DenseLayer,
    MlpModel,
    adam_init,
    adam_step,
    cross_entropy,
    elu,
    elu_grad,
    init_mlp,
    mlp_backward_batch,
    mlp_forward_batch,
    softmax,
)


def batch_loss(model, batch, labels) -> float:
    """Mean cross-entropy, recomputed from scratch (the FD oracle)."""
    probs, _ = mlp_forward_batch(model, batch)
    return float(np.mean([cross_entropy(p, int(y)) for p, y in zip(probs, labels)]))


def random_model(rng, shape):
    model = init_mlp(shape, seed=int(rng.integers(0, 2**31)))
    # Nudge biases off zero so their gradients are exercised at a
    # non-symmetric point.
    for layer in model.layers:
        layer.biases += rng.normal(scale=0.3, size=layer.biases.shape)
    return model


# --- activations and loss -------------------------------------------------


def test_elu_values():
    x = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])
    expected = np.array([np.expm1(-2.0), np.expm1(-1.0), 0.0, 1.0, 3.0])
    assert np.allclose(elu(x), expected, atol=1e-15)


def test_elu_and_softmax_equal_their_select_and_divide_forms():
    # The forms elu, elu_grad and softmax had before they worked in place or
    # column by column: elu must equal them up to the sign of a zero,
    # elu_grad and softmax bit for bit.
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 10)) * 10.0 ** rng.uniform(-320, 3, size=(400, 10))
    x[:5] = [-0.0, 0.0, -5e-324, 5e-324, -1e-300, 1e-300, -745.0, -1e308, 1e308, 0.5]
    assert np.array_equal(elu(x), np.where(x >= 0.0, x, np.expm1(np.minimum(x, 0.0))))
    assert elu(-0.5) == np.expm1(-0.5) and elu(2.0) == 2.0
    edges = np.concatenate([x.ravel(), [np.inf, -np.inf, np.nan]])
    with np.errstate(invalid="ignore"):
        want_grad = np.where(edges >= 0.0, 1.0, np.exp(np.minimum(edges, 0.0)))
    assert elu_grad(edges).tobytes() == want_grad.tobytes()
    assert elu_grad(0.0) == 1.0 and elu_grad(-0.0) == 1.0
    odd = rng.choice([0.0, -0.0, 1.0, np.inf, -np.inf, np.nan], size=(300, 5))
    cases = [x[:, :3] / 1e300, rng.normal(scale=30.0, size=(50, 3)), np.zeros(3),
             rng.normal(size=4), np.empty((0, 3)), odd, odd[:, :3], odd[0]]
    cases += [rng.normal(scale=10.0 ** k, size=(rows, c))
              for c in range(1, 13) for rows in (1, 7, 2000) for k in (-3, 0, 3)]
    cases += [np.round(rng.normal(size=(500, c))) for c in (2, 3, 8, 12)]  # ties
    with np.errstate(invalid="ignore"):
        for logits in cases:
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            assert softmax(logits).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
    for no_class in (np.empty((2, 0)), np.empty(0), 1.0):
        with pytest.raises(ValueError) as info:
            softmax(no_class)
        assert type(info.value) is ValueError and "at least one class" in str(info.value)


def test_elu_is_continuous_at_zero():
    eps = 1e-9
    assert abs(elu(eps) - elu(-eps)) < 1e-8
    assert elu_grad(0.0) == 1.0


def test_elu_grad_matches_difference_quotient():
    rng = np.random.default_rng(7)
    x = rng.normal(scale=2.0, size=200)
    x = x[np.abs(x) > 1e-3]  # stay away from the kink
    h = 1e-6
    numeric = (elu(x + h) - elu(x - h)) / (2.0 * h)
    assert np.allclose(elu_grad(x), numeric, atol=1e-8)


def test_softmax_uniform_logits():
    probs = softmax(np.zeros(3))
    assert np.allclose(probs, [1.0 / 3.0] * 3, atol=1e-15)


def test_softmax_known_values():
    probs = softmax(np.array([np.log(1.0), np.log(2.0), np.log(3.0)]))
    assert np.allclose(probs, [1.0 / 6.0, 2.0 / 6.0, 3.0 / 6.0], atol=1e-15)


def test_softmax_shift_invariance_and_stability():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(10, 4))
    assert np.allclose(softmax(logits), softmax(logits + 123.456), atol=1e-14)
    # Huge logits must not overflow into nan.
    big = softmax(np.array([1000.0, 1001.0, 999.0]))
    assert np.all(np.isfinite(big))
    assert np.isclose(big.sum(), 1.0, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    probs = softmax(rng.normal(scale=5.0, size=(50, 3)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-14)
    assert np.all(probs > 0.0)


def test_cross_entropy_values():
    assert np.isclose(cross_entropy(np.array([1 / 3, 1 / 3, 1 / 3]), 0), np.log(3.0))
    assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) == 0.0
    assert np.isclose(cross_entropy(np.array([0.25, 0.5, 0.25]), 0), np.log(4.0))
    # A batch takes the mean of its rows' values.
    probs = softmax(np.random.default_rng(3).normal(size=(7, 3)))
    labels = np.array([0, 2, 1, 1, 0, 2, 2])
    per_row = [cross_entropy(p, y) for p, y in zip(probs, labels)]
    assert np.isclose(cross_entropy(probs, labels), np.mean(per_row), rtol=1e-15, atol=0)


def test_cross_entropy_floor_caps_the_loss():
    loss = cross_entropy(np.array([0.0, 1.0]), 0)
    assert np.isclose(loss, -np.log(PROB_FLOOR))


def test_cross_entropy_label_range():
    with pytest.raises(ValueError, match="label"):
        cross_entropy(np.array([0.5, 0.5]), 2)


# --- model construction ---------------------------------------------------


def test_init_mlp_shapes_and_bounds():
    model = init_mlp((5, 10, 3), seed=0)
    assert model.input_dim == 5
    assert model.output_dim == 3
    assert [(l.out_dim, l.in_dim) for l in model.layers] == [(10, 5), (3, 10)]
    for layer in model.layers:
        bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
        assert np.all(np.abs(layer.weights) <= bound)
        assert np.all(layer.biases == 0.0)


def test_init_mlp_is_seeded():
    a = init_mlp((5, 10, 3), seed=42)
    b = init_mlp((5, 10, 3), seed=42)
    c = init_mlp((5, 10, 3), seed=43)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
    assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)


def test_init_mlp_rejects_bad_shape():
    with pytest.raises(ValueError, match="shape"):
        init_mlp((5,), seed=0)
    with pytest.raises(ValueError, match="shape"):
        init_mlp((5, 0, 3), seed=0)


def test_layer_and_model_validation():
    with pytest.raises(ValueError, match="biases"):
        DenseLayer(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        DenseLayer(np.array([[np.inf]]), np.zeros(1))
    ok = DenseLayer(np.zeros((3, 2)), np.zeros(3))
    bad_chain = DenseLayer(np.zeros((4, 5)), np.zeros(4))
    with pytest.raises(ValueError, match="dim"):
        MlpModel([ok, bad_chain])


# --- forward pass ---------------------------------------------------------


def test_forward_zero_model_is_uniform():
    model = MlpModel(
        [
            DenseLayer(np.zeros((10, 5)), np.zeros(10)),
            DenseLayer(np.zeros((3, 10)), np.zeros(3)),
        ]
    )
    probs, _ = mlp_forward_batch(model, np.zeros((1, 5)))
    assert np.allclose(probs[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_forward_single_layer_matches_hand_computation():
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    model = MlpModel([DenseLayer(w, np.array([0.0, 0.5, -0.5]))])
    x = np.array([0.2, -0.3])
    probs, cache = mlp_forward_batch(model, x[None])
    logits = w @ x + np.array([0.0, 0.5, -0.5])
    assert np.allclose(probs[0], softmax(logits), atol=1e-15)
    assert np.allclose(cache.pre_acts[0][0], logits, atol=1e-15)


def test_forward_batch_matches_per_sample():
    rng = np.random.default_rng(19)
    model = random_model(rng, (5, 10, 3))
    batch = rng.normal(size=(8, 5))
    probs, _ = mlp_forward_batch(model, batch)
    for i, row in enumerate(batch):
        single, _ = mlp_forward_batch(model, row[None])
        assert np.allclose(probs[i], single[0], atol=1e-14)


def test_forward_input_validation():
    model = init_mlp((5, 10, 3), seed=0)
    with pytest.raises(ValueError, match="width"):
        mlp_forward_batch(model, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="finite"):
        mlp_forward_batch(model, np.array([[np.nan, 0, 0, 0, 0]]))
    with pytest.raises(ValueError, match="batch of input rows"):
        mlp_forward_batch(model, np.zeros(5))


# --- backward pass --------------------------------------------------------


def test_backward_zero_model_example():
    # probs are uniform, so d(loss)/d(logits) = [1/3 - 1, 1/3, 1/3]; with
    # zero weights everything upstream of the output biases is zero too.
    model = MlpModel(
        [
            DenseLayer(np.zeros((10, 5)), np.zeros(10)),
            DenseLayer(np.zeros((3, 10)), np.zeros(3)),
        ]
    )
    _, cache = mlp_forward_batch(model, np.ones((1, 5)))
    grads = mlp_backward_batch(model, cache, np.array([0]))
    assert np.allclose(grads.biases[1], [1 / 3 - 1, 1 / 3, 1 / 3], atol=1e-15)
    assert np.allclose(grads.weights[1], 0.0)
    assert np.allclose(grads.weights[0], 0.0)
    assert np.allclose(grads.inputs, 0.0)


def test_backward_single_layer_weight_gradient():
    # For a bare softmax layer the weight gradient is (p - onehot) outer x.
    model = MlpModel([DenseLayer(np.zeros((3, 2)), np.zeros(3))])
    x = np.array([2.0, -1.0])
    probs, cache = mlp_forward_batch(model, x[None])
    grads = mlp_backward_batch(model, cache, np.array([1]))
    delta = probs[0] - np.array([0.0, 1.0, 0.0])
    assert np.allclose(grads.weights[0], np.outer(delta, x), atol=1e-15)
    assert np.allclose(grads.biases[0], delta, atol=1e-15)
    assert np.allclose(grads.inputs[0], delta @ model.layers[0].weights, atol=1e-15)


def test_backward_batch_averages_per_sample_gradients():
    rng = np.random.default_rng(5)
    model = random_model(rng, (5, 10, 3))
    batch = rng.normal(size=(6, 5))
    labels = rng.integers(0, 3, size=6)
    _, cache = mlp_forward_batch(model, batch)
    grads = mlp_backward_batch(model, cache, labels)
    acc_w = [np.zeros_like(l.weights) for l in model.layers]
    for row, label in zip(batch, labels):
        _, c1 = mlp_forward_batch(model, row[None])
        g1 = mlp_backward_batch(model, c1, np.array([label]))
        for i in range(len(acc_w)):
            acc_w[i] += g1.weights[i] / len(batch)
    for i in range(len(acc_w)):
        assert np.allclose(grads.weights[i], acc_w[i], atol=1e-14)


def test_backward_label_validation():
    model = init_mlp((5, 10, 3), seed=1)
    _, cache = mlp_forward_batch(model, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="labels"):
        mlp_backward_batch(model, cache, np.array([0]))
    with pytest.raises(ValueError, match="range"):
        mlp_backward_batch(model, cache, np.array([0, 3]))
    with pytest.raises(ValueError, match="^labels must be integers, got dtype float64$"):
        mlp_backward_batch(model, cache, np.array([0.0, 1.0]))


def test_gradients_match_finite_differences():
    # Central differences over every weight, bias, and input entry.
    rng = np.random.default_rng(23)
    h = 1e-5
    for trial in range(10):
        shape = (5, 10, 3) if trial % 2 == 0 else (4, 6, 6, 3)
        model = random_model(rng, shape)
        batch = rng.normal(size=(4, shape[0]))
        labels = rng.integers(0, shape[-1], size=4)
        _, cache = mlp_forward_batch(model, batch)
        grads = mlp_backward_batch(model, cache, labels)

        worst = 0.0
        for li, layer in enumerate(model.layers):
            for arr, grad in ((layer.weights, grads.weights[li]),
                              (layer.biases, grads.biases[li])):
                flat = arr.ravel()
                for j in range(flat.size):
                    keep = flat[j]
                    flat[j] = keep + h
                    up = batch_loss(model, batch, labels)
                    flat[j] = keep - h
                    down = batch_loss(model, batch, labels)
                    flat[j] = keep
                    numeric = (up - down) / (2.0 * h)
                    analytic = grad.ravel()[j]
                    rel = abs(analytic - numeric) / max(abs(numeric), 1e-4)
                    worst = max(worst, rel)
        for b in range(batch.shape[0]):
            for j in range(batch.shape[1]):
                keep = batch[b, j]
                batch[b, j] = keep + h
                up = batch_loss(model, batch, labels)
                batch[b, j] = keep - h
                down = batch_loss(model, batch, labels)
                batch[b, j] = keep
                numeric = (up - down) / (2.0 * h)
                rel = abs(grads.inputs[b, j] - numeric) / max(abs(numeric), 1e-4)
                worst = max(worst, rel)
        assert worst < 1e-5


# --- Adam -----------------------------------------------------------------


def test_adam_first_step_size_is_the_learning_rate():
    # With bias correction the first update is lr * g / (|g| + eps').
    params = np.array([0.0])
    state = adam_init(params, lr=0.01)
    new_params, state = adam_step(params, np.array([5.0]), state)
    assert abs(new_params[0] + 0.01) < 1e-9
    assert state.step_count == 1
    # Scale invariance of the first step.
    big, _ = adam_step(np.array([0.0]), np.array([4000.0]), adam_init(params, 0.01))
    assert abs(big[0] + 0.01) < 1e-9


def test_adam_zero_gradient_is_a_no_op():
    params = np.array([1.5, -2.0])
    state = adam_init(params, lr=0.1)
    new_params, _ = adam_step(params, np.zeros(2), state)
    assert np.array_equal(new_params, params)


def test_adam_descends_a_quadratic():
    params = np.array([3.0])
    state = adam_init(params, lr=0.05)
    for _ in range(400):
        params, state = adam_step(params, 2.0 * params, state)
    assert abs(params[0]) < 1e-2


def test_adam_is_deterministic_and_functional():
    rng = np.random.default_rng(9)
    params = rng.normal(size=(3, 2))
    grads = rng.normal(size=(3, 2))
    before = params.copy()
    state = adam_init(params, 0.01)
    a1, s1 = adam_step(params, grads, state)
    a2, _ = adam_step(params, grads, adam_init(params, 0.01))
    assert np.array_equal(a1, a2)
    assert np.array_equal(params, before)  # inputs untouched
    assert not state.m.any() and not state.v.any() and state.step_count == 0
    assert s1.step_count == 1


def test_adam_validation():
    with pytest.raises(ValueError, match="learning rate"):
        adam_init(np.zeros(1), lr=0.0)
    state = adam_init(np.zeros(2), lr=0.01)
    with pytest.raises(ValueError, match="shape"):
        adam_step(np.zeros(2), np.zeros(3), state)
    assert isinstance(state, AdamState)


# --- end to end -----------------------------------------------------------


def test_training_reduces_loss_on_separable_data():
    rng = np.random.default_rng(31)
    centers = np.array(
        [
            [1.0, 0.0, 0.0, 0.5, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.5],
            [0.0, 0.0, 1.0, 0.5, 0.5],
        ]
    )
    batch = np.concatenate([c + rng.normal(scale=0.05, size=(10, 5)) for c in centers])
    labels = np.repeat(np.arange(3), 10)

    model = init_mlp((5, 10, 3), seed=2)
    params = []
    for layer in model.layers:
        params.extend([layer.weights, layer.biases])
    states = [adam_init(p, lr=0.05) for p in params]

    losses = []
    for _ in range(80):
        _, cache = mlp_forward_batch(model, batch)
        grads = mlp_backward_batch(model, cache, labels)
        losses.append(batch_loss(model, batch, labels))
        flat_grads = []
        for i in range(len(model.layers)):
            flat_grads.extend([grads.weights[i], grads.biases[i]])
        stepped = [adam_step(p, g, st) for p, g, st in zip(params, flat_grads, states)]
        params, states = [p for p, _ in stepped], [st for _, st in stepped]
        for i, layer in enumerate(model.layers):
            layer.weights = params[2 * i]
            layer.biases = params[2 * i + 1]

    for i in range(len(losses) - 20):
        assert losses[i + 20] < losses[i]
    probs, _ = mlp_forward_batch(model, batch)
    assert np.array_equal(np.argmax(probs, axis=1), labels)
