"""Quantum-classical pipeline: normalize -> encode/circuit -> MLP -> softmax.

The model owns three frozen-shape pieces: min-max normalizer bounds, the
circuit angle table, and the dense network.  A forward pass normalizes the
five raw features into [0, 1], reads five z-expectations off the circuit,
and feeds them to the classifier.  Training updates circuit angles and
network parameters simultaneously with Adam; the gradient crosses the
quantum/classical boundary by chaining the network's input gradient through
the circuit's (block-diagonal) Jacobian.

Checkpoints are a small JSON document whose floats are written in Python's
shortest round-trip repr, so a reload gives back the same IEEE doubles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import (
    LABELS,
    Dataset,
    NormalizerParams,
    apply_normalizer,
    fit_normalizer,
    open_input,
)
from .nn import (
    DenseLayer,
    MlpModel,
    _forward,
    adam_init,
    adam_step,
    cross_entropy,
    init_mlp,
    mlp_backward_batch,
    mlp_forward_batch,
)
from .pqc import PqcParams, _readout, pqc_expectations_batch, pqc_jacobian_batch, random_pqc_params

CHECKPOINT_VERSION = 1
DEFAULT_HIDDEN_UNITS = 10
MAX_EPOCHS = np.iinfo(np.intp).max // 8 - 1  # so numpy can shape epochs + 1 float64s
# Rows scored per block: 2048 to 8192 score a 69,300-row batch equally fast,
# and one whole-batch block is about 25 % slower.
SCORE_ROWS = 4096


@dataclass
class HybridModel:
    """Normalizer bounds + circuit angles + dense classifier, dims chained."""

    normalizer: NormalizerParams
    pqc: PqcParams
    mlp: MlpModel

    def __post_init__(self) -> None:
        n = self.normalizer.num_features
        if self.pqc.num_qubits != n:
            raise ValueError(
                f"normalizer covers {n} features but the circuit has "
                f"{self.pqc.num_qubits} qubits"
            )
        if self.mlp.input_dim != self.pqc.num_qubits:
            raise ValueError(
                f"circuit emits {self.pqc.num_qubits} expectations but the "
                f"network expects {self.mlp.input_dim} inputs"
            )
        if self.mlp.output_dim != len(LABELS):
            raise ValueError(
                f"network emits {self.mlp.output_dim} class scores but the "
                f"label set {LABELS} needs {len(LABELS)}"
            )


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training protocol, checked on construction."""

    learning_rate: float = 0.01
    epochs: int = 150
    batch_size: int = 32
    num_runs: int = 25
    base_seed: int = 0

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        for name in ("epochs", "batch_size", "num_runs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.epochs > MAX_EPOCHS:
            raise ValueError(f"epochs must be at most {MAX_EPOCHS}, got {self.epochs}")


@dataclass
class RunMetrics:
    """Everything one training run reports.

    The epoch curves have epochs + 1 entries; entry 0 is the freshly
    initialized model before any update.  test_accuracy is computed as
    confusion trace over total, so the two always agree exactly.
    """

    seed: int
    epoch_train_accuracy: np.ndarray
    epoch_train_loss: np.ndarray
    final_train_accuracy: float
    final_train_loss: float
    test_accuracy: float
    test_loss: float
    confusion: np.ndarray  # (classes, classes) counts, rows = true class


def confusion_row_percent(confusion: np.ndarray) -> np.ndarray:
    counts = np.asarray(confusion, dtype=np.float64)
    row_sums = counts.sum(axis=1, keepdims=True)
    return 100.0 * counts / np.where(row_sums > 0, row_sums, 1.0)


@dataclass
class SummaryReport:
    """Aggregate over seeded runs: per-run metrics, the four mean/sample-std
    pairs, and the pooled confusion counts."""

    runs: list[RunMetrics]
    models: list[HybridModel]
    mean_train_accuracy: float
    std_train_accuracy: float
    mean_test_accuracy: float
    std_test_accuracy: float
    mean_train_loss: float
    std_train_loss: float
    mean_test_loss: float
    std_test_loss: float
    pooled_confusion: np.ndarray

    def best_run_index(self) -> int:
        return int(np.argmax([r.test_accuracy for r in self.runs]))


def new_hybrid_model(
    normalizer: NormalizerParams,
    seed: int = 0,
    hidden_units: int = DEFAULT_HIDDEN_UNITS,
) -> HybridModel:
    """Fresh model: circuit angles uniform in (-pi, pi), Glorot network."""
    rng = np.random.default_rng(seed)
    n = normalizer.num_features
    pqc = random_pqc_params(n, rng)
    mlp = init_mlp((n, hidden_units, len(LABELS)), seed=int(rng.integers(2**31 - 1)))
    return HybridModel(normalizer, pqc, mlp)


def _score_block(model: HybridModel, normed: np.ndarray) -> np.ndarray:
    """Class probabilities for one block of rows that `apply_normalizer`
    checked and scaled.  A one-row block is scored as two equal rows: BLAS
    sums a one-row product (gemv) in another order than a batch (gemm)."""
    rows = normed if normed.shape[0] != 1 else np.concatenate((normed, normed))
    readout = _readout(rows, model.pqc.angles)
    if not np.isfinite(readout).all():  # angles can be overwritten in place
        raise ValueError("network input contains non-finite values")
    return _forward(model.mlp, readout).probs[: normed.shape[0]]


def _forward_normed(model: HybridModel, normed: np.ndarray) -> np.ndarray:
    """`_score_block` on SCORE_ROWS rows at a time, into one output array."""
    n = normed.shape[0]
    probs = np.empty((n, model.mlp.output_dim))
    for lo in range(0, n, SCORE_ROWS):
        probs[lo : lo + SCORE_ROWS] = _score_block(model, normed[lo : lo + SCORE_ROWS])
    return probs


def hybrid_forward_batch(model: HybridModel, features) -> np.ndarray:
    """Class probabilities, shape (rows, classes), for raw feature rows.

    The rows are normalized (and checked) once as a whole, then scored in
    blocks of SCORE_ROWS rows: the temporaries of the readout and the layer
    loop stay block-sized, so memory grows only with the input and the
    output.  A row's result depends neither on its block nor on the rows with it.
    """
    return _forward_normed(model, apply_normalizer(model.normalizer, features))


def hybrid_forward(model: HybridModel, features) -> np.ndarray:
    """Class probabilities for one raw feature vector, bit-equal to its batch row."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 1:
        raise ValueError("hybrid_forward takes one sample; use hybrid_forward_batch")
    return _score_block(model, apply_normalizer(model.normalizer, features[None, :]))[0]


def model_parameters(model: HybridModel) -> list[np.ndarray]:
    """The trainable arrays in update order: angles, then W, b per layer."""
    params = [model.pqc.angles]
    for layer in model.mlp.layers:
        params.extend([layer.weights, layer.biases])
    return params


def with_parameters(model: HybridModel, params: list[np.ndarray]) -> HybridModel:
    """Same model shell around a new parameter list (normalizer untouched)."""
    expected = 1 + 2 * len(model.mlp.layers)
    if len(params) != expected:
        raise ValueError(f"expected {expected} parameter arrays, got {len(params)}")
    pqc = PqcParams(model.pqc.num_qubits, params[0])
    layers = [
        DenseLayer(params[1 + 2 * i], params[2 + 2 * i])
        for i in range(len(model.mlp.layers))
    ]
    return HybridModel(model.normalizer, pqc, MlpModel(layers))


def _gradients(
    model: HybridModel, normed: np.ndarray, labels: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradients of every trainable array on normalized rows, plus the
    class probabilities they were taken at."""
    expectations = pqc_expectations_batch(normed, model.pqc)
    probs, cache = mlp_forward_batch(model.mlp, expectations)
    mlp_grads = mlp_backward_batch(model.mlp, cache, labels)
    jac = pqc_jacobian_batch(normed, model.pqc)
    angle_grads = np.einsum("bq,bqk->qk", mlp_grads.inputs, jac)
    grads = [angle_grads]
    for w, b in zip(mlp_grads.weights, mlp_grads.biases):
        grads.extend([w, b])
    return grads, probs


def hybrid_gradients(
    model: HybridModel, features, labels
) -> tuple[list[np.ndarray], float]:
    """Mean-loss gradients for every trainable array, plus the loss itself.

    Network gradients are analytic.  Circuit gradients chain the network's
    per-sample input gradient through the parameter-shift circuit Jacobian,
    then sum over the batch; the 1/batch factor already rides on the input
    gradient.
    """
    grads, probs = _gradients(model, apply_normalizer(model.normalizer, features), labels)
    return grads, cross_entropy(probs, labels)


@dataclass
class EvalResult:
    accuracy: float
    loss: float
    confusion: np.ndarray


def evaluate(model: HybridModel, features, labels) -> EvalResult:
    """Accuracy (as confusion trace / total), mean loss, and counts.

    Zero rows have neither, and are refused."""
    normed = apply_normalizer(model.normalizer, features)
    if normed.shape[0] == 0:
        raise ValueError("evaluate needs at least one row")
    return _score(model, normed, np.asarray(labels))


def _score(model: HybridModel, normed: np.ndarray, labels: np.ndarray) -> EvalResult:
    probs = _forward_normed(model, normed)
    loss = cross_entropy(probs, labels)  # checks the labels before they index
    predicted = np.argmax(probs, axis=1)
    confusion = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    np.add.at(confusion, (labels, predicted), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalResult(accuracy, loss, confusion)


def _check_split_classes(labels: np.ndarray, side: str) -> None:
    present = set(np.unique(labels).tolist())
    missing = [name for i, name in enumerate(LABELS) if i not in present]
    if missing:
        raise ValueError(f"{side} split is missing class(es): {', '.join(missing)}")


class TrainingDiverged(ValueError):
    """A run whose parameters or loss left the finite range."""


def _diverged(epoch: int, config: TrainConfig) -> TrainingDiverged:
    return TrainingDiverged(
        f"training diverged in epoch {epoch} at learning rate {config.learning_rate!r}"
    )


def train_run(
    dataset: Dataset, config: TrainConfig, seed: int
) -> tuple[HybridModel, RunMetrics]:
    """One seeded run: fit the normalizer on the train split, train with
    mini-batch Adam, evaluate the test split once at the end."""
    train_x, train_y = dataset.train
    test_x, test_y = dataset.test
    _check_split_classes(train_y, "train")
    _check_split_classes(test_y, "test")

    rng = np.random.default_rng(seed)
    normalizer = fit_normalizer(train_x)
    model = new_hybrid_model(normalizer, seed=int(rng.integers(2**31 - 1)))
    # One flat vector holds every trainable value; the model's arrays are
    # views into it, so one Adam update in place moves the whole model.
    params = model_parameters(model)
    theta = np.concatenate([p.ravel() for p in params])
    parts = np.split(theta, np.cumsum([p.size for p in params])[:-1])
    model = with_parameters(model, [v.reshape(p.shape) for v, p in zip(parts, params)])
    opt_state = adam_init(theta, lr=config.learning_rate)

    n_train = train_x.shape[0]
    curve_acc = np.empty(config.epochs + 1)
    curve_loss = np.empty(config.epochs + 1)
    normed = apply_normalizer(normalizer, train_x)
    start_eval = _score(model, normed, train_y)
    curve_acc[0], curve_loss[0] = start_eval.accuracy, start_eval.loss

    # Too large a learning rate overflows in the network; that is reported
    # once, as divergence, instead of as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n_train)
            for lo in range(0, n_train, config.batch_size):
                pick = order[lo : lo + config.batch_size]
                grads, _ = _gradients(model, normed[pick], train_y[pick])
                grad = np.concatenate([g.ravel() for g in grads])
                updated, opt_state = adam_step(theta, grad, opt_state)
                if not np.isfinite(updated).all():
                    raise _diverged(epoch, config)
                theta[:] = updated
            epoch_eval = _score(model, normed, train_y)
            if not math.isfinite(epoch_eval.loss):
                raise _diverged(epoch, config)
            curve_acc[epoch], curve_loss[epoch] = epoch_eval.accuracy, epoch_eval.loss

    test_eval = evaluate(model, test_x, test_y)
    metrics = RunMetrics(
        seed=seed,
        epoch_train_accuracy=curve_acc,
        epoch_train_loss=curve_loss,
        final_train_accuracy=float(curve_acc[-1]),
        final_train_loss=float(curve_loss[-1]),
        test_accuracy=test_eval.accuracy,
        test_loss=test_eval.loss,
        confusion=test_eval.confusion,
    )
    return model, metrics


def multi_seed_report(dataset: Dataset, config: TrainConfig) -> SummaryReport:
    """Train config.num_runs runs, seeded base_seed, base_seed + 1, ...,
    and aggregate them into Table-style stats.

    Std is the sample standard deviation (ddof = 1); a single run has no
    spread and reports 0.0, with its own numbers as the means.
    """
    results = [
        train_run(dataset, config, config.base_seed + i) for i in range(config.num_runs)
    ]
    models = [model for model, _ in results]
    runs = [metrics for _, metrics in results]
    stats = {}
    for name, values in (
        ("train_accuracy", [r.final_train_accuracy for r in runs]),
        ("test_accuracy", [r.test_accuracy for r in runs]),
        ("train_loss", [r.final_train_loss for r in runs]),
        ("test_loss", [r.test_loss for r in runs]),
    ):
        arr = np.array(values)
        stats[f"mean_{name}"] = float(arr.mean())
        stats[f"std_{name}"] = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    pooled = np.sum([r.confusion for r in runs], axis=0)
    return SummaryReport(runs=runs, models=models, pooled_confusion=pooled, **stats)


# --- checkpoint serialization ----------------------------------------------


def save_checkpoint(model: HybridModel, path) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "normalizer": {
            "min": model.normalizer.minimum.tolist(),
            "max": model.normalizer.maximum.tolist(),
        },
        "pqc": {
            "num_qubits": int(model.pqc.num_qubits),
            "angles": model.pqc.angles.tolist(),
        },
        "mlp": {
            "layers": [
                {
                    "rows": layer.out_dim,
                    "cols": layer.in_dim,
                    "weights": layer.weights.reshape(-1).tolist(),
                    "biases": layer.biases.tolist(),
                }
                for layer in model.mlp.layers
            ]
        },
    }
    # Serialized first, so a model that cannot be written leaves no file.
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _field(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"checkpoint is missing field {where}.{key}")
    return doc[key]


def _float_list(values, expect: int, where: str) -> np.ndarray:
    """A flat JSON list of exactly `expect` numbers, as float64.

    Checkpoint numbers are checked by exact type, here and for the integer
    fields: JSON true/false load as bool, which isinstance counts as int.
    """
    if not (
        isinstance(values, list)
        and len(values) == expect
        and all(type(v) in (int, float) for v in values)
    ):
        raise ValueError(f"checkpoint field {where} must hold {expect} numbers")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(
            f"checkpoint field {where} holds an integer too large for a double"
        ) from None


def load_checkpoint(path) -> HybridModel:
    """Parse and validate a checkpoint; any defect raises ValueError."""
    with open_input(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(
                f"parse error at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
        except RecursionError:
            raise ValueError("JSON nested too deeply to parse") from None
        version = _field(doc, "version", "$")
        if type(version) is not int or version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")

        norm_doc = _field(doc, "normalizer", "$")
        min_doc = _field(norm_doc, "min", "normalizer")
        if not isinstance(min_doc, list) or not min_doc:
            raise ValueError("checkpoint field normalizer.min must be a flat number list")
        minimum = _float_list(min_doc, len(min_doc), "normalizer.min")
        maximum = _float_list(
            _field(norm_doc, "max", "normalizer"), minimum.size, "normalizer.max"
        )

        pqc_doc = _field(doc, "pqc", "$")
        num_qubits = _field(pqc_doc, "num_qubits", "pqc")
        if type(num_qubits) is not int:
            raise ValueError("checkpoint field pqc.num_qubits must be an integer")
        angle_rows = _field(pqc_doc, "angles", "pqc")
        if not isinstance(angle_rows, list) or len(angle_rows) != num_qubits:
            raise ValueError(
                f"checkpoint field pqc.angles must be {num_qubits} rows of 3 angles"
            )
        angles = np.array(
            [_float_list(row, 3, f"pqc.angles[{q}]") for q, row in enumerate(angle_rows)]
        )

        mlp_doc = _field(doc, "mlp", "$")
        layer_docs = _field(mlp_doc, "layers", "mlp")
        if not isinstance(layer_docs, list) or not layer_docs:
            raise ValueError("checkpoint field mlp.layers must be a nonempty list")
        layers = []
        for i, layer_doc in enumerate(layer_docs):
            where = f"mlp.layers[{i}]"
            rows = _field(layer_doc, "rows", where)
            cols = _field(layer_doc, "cols", where)
            if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
                raise ValueError(f"checkpoint field {where} has invalid rows/cols")
            weights = _float_list(
                _field(layer_doc, "weights", where), rows * cols, f"{where}.weights"
            ).reshape(rows, cols)
            biases = _float_list(_field(layer_doc, "biases", where), rows, f"{where}.biases")
            layers.append(DenseLayer(weights, biases))

        try:
            return HybridModel(
                NormalizerParams(minimum, maximum),
                PqcParams(num_qubits, angles),
                MlpModel(layers),
            )
        except ValueError as e:
            raise ValueError(f"checkpoint is internally inconsistent: {e}") from None
