"""Small dense softmax classifier with hand-rolled backprop and Adam.

The default topology is 5-10-3: ELU on the hidden layer, softmax on the
output, categorical cross-entropy loss.  Forward passes cache the
pre-activations so the backward pass can run analytically; the softmax and
cross-entropy gradients are fused into the usual (p - onehot) form.  The
backward pass also returns the gradient with respect to the network input,
which is what lets an upstream feature extractor train jointly.

All functions are pure: parameters in, parameters out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Probabilities are floored here before the log so a confident wrong
# prediction costs at most -ln(1e-12) instead of infinity.
PROB_FLOOR = 1e-12

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class DenseLayer:
    """Affine map y = W x + b with W of shape (out_dim, in_dim)."""

    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[0],):
            raise ValueError(
                f"biases shape {self.biases.shape} does not match "
                f"{self.weights.shape[0]} output rows"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class MlpModel:
    """Stack of dense layers; every layer but the last is followed by ELU."""

    layers: list[DenseLayer]

    def __post_init__(self) -> None:
        if len(self.layers) < 1:
            raise ValueError("model needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer output dim {a.out_dim} feeds layer input dim {b.in_dim}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim


def elu(x: np.ndarray) -> np.ndarray:
    """ELU with alpha = 1; expm1 keeps the negative branch accurate near 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, np.expm1(np.minimum(x, 0.0)))  # expm1(x) > x for x < 0


def elu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of elu; the kink at 0 takes the left/right-agreeing value 1."""
    return np.exp(np.minimum(np.asarray(x, dtype=np.float64), 0.0))  # exp(0) is 1


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted for stability by the row max: a running max
    over the class columns, far cheaper than a reduction on many short rows."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 0 or logits.shape[-1] == 0:
        raise ValueError(f"softmax needs at least one class, got shape {logits.shape}")
    top = logits[..., 0]
    for k in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., k])
    e = np.subtract(logits, top[..., None])
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


def _check_labels(labels, rows: int, classes: int) -> np.ndarray:
    """The label rule of the loss and its gradient: one integer label per
    row, each in range(classes)."""
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise ValueError(f"expected {rows} labels, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    outside = (labels < 0) | (labels >= classes)
    if outside.any():
        raise ValueError(f"label {labels[outside][0]} out of range for {classes} classes")
    return labels


def cross_entropy(probs: np.ndarray, labels) -> float:
    """Mean -ln P(correct class) over the rows of `probs`, each probability
    floored at PROB_FLOOR.  A single 1-D row takes a single label."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim == 1:
        probs, labels = probs[None, :], np.asarray(labels)[None]
    labels = _check_labels(labels, *probs.shape)
    picked = probs[np.arange(labels.size), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def init_mlp(shape: tuple[int, ...] = (5, 10, 3), seed: int = 0) -> MlpModel:
    """Glorot-uniform weights, zero biases, reproducible from the seed."""
    if len(shape) < 2 or any(d < 1 for d in shape):
        raise ValueError(f"shape must list at least two positive dims, got {shape}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(shape, shape[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(DenseLayer(weights, np.zeros(fan_out)))
    return MlpModel(layers)


@dataclass
class ForwardCache:
    """Intermediates of one batched forward pass, consumed by the backward."""

    inputs: list[np.ndarray]  # input to each layer, shape (batch, in_dim)
    pre_acts: list[np.ndarray]  # W x + b per layer, shape (batch, out_dim)
    probs: np.ndarray  # softmax output, shape (batch, classes)


@dataclass
class MlpGradients:
    """Loss gradients for every layer plus the network input."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    inputs: np.ndarray


def mlp_forward_batch(model: MlpModel, batch) -> tuple[np.ndarray, ForwardCache]:
    """Class probabilities for a (batch, input_dim) array."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"expected a batch of input rows, got shape {batch.shape}")
    if batch.shape[1] != model.input_dim:
        raise ValueError(
            f"input width {batch.shape[1]} does not match model input "
            f"dim {model.input_dim}"
        )
    if not np.isfinite(batch).all():
        raise ValueError("network input contains non-finite values")
    cache = _forward(model, batch)
    return cache.probs, cache


def _forward(model: MlpModel, a: np.ndarray) -> ForwardCache:
    """The one layer loop, on a batch `a` that is already checked."""
    inputs, pre_acts = [], []
    for i, layer in enumerate(model.layers):
        inputs.append(a)
        z = a @ layer.weights.T
        z += layer.biases
        pre_acts.append(z)
        a = z if i == len(model.layers) - 1 else elu(z)
    return ForwardCache(inputs, pre_acts, softmax(a))


def mlp_backward_batch(model: MlpModel, cache: ForwardCache, labels) -> MlpGradients:
    """Gradients of the mean cross-entropy over the batch.

    Weight and bias gradients are averaged across the batch.  The input
    gradient keeps its per-sample rows (each already scaled by 1/batch) so
    a caller can chain it into whatever produced each sample.
    """
    probs = cache.probs
    n, classes = probs.shape
    labels = _check_labels(labels, n, classes)
    # Fused softmax + cross-entropy gradient p - onehot, averaged over the batch.
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    weight_grads: list[np.ndarray] = [None] * len(model.layers)  # type: ignore[list-item]
    bias_grads: list[np.ndarray] = [None] * len(model.layers)  # type: ignore[list-item]
    for i in reversed(range(len(model.layers))):
        weight_grads[i] = delta.T @ cache.inputs[i]
        bias_grads[i] = delta.sum(axis=0)
        delta = delta @ model.layers[i].weights
        if i > 0:
            delta = delta * elu_grad(cache.pre_acts[i - 1])
    return MlpGradients(weight_grads, bias_grads, delta)


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    lr: float
    step_count: int
    m: np.ndarray
    v: np.ndarray


def adam_init(params: np.ndarray, lr: float = 0.01) -> AdamState:
    if not lr > 0.0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    return AdamState(lr=lr, step_count=0, m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and new state."""
    if grads.shape != params.shape:
        raise ValueError(f"gradient shape {grads.shape} != parameter shape {params.shape}")
    t = state.step_count + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, AdamState(lr=state.lr, step_count=t, m=m, v=v)
