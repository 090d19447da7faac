"""Tests for the joint circuit + network model and its training loop."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from qdiag.data import Dataset, NormalizerParams, apply_normalizer, fit_normalizer, split
from qdiag.hybrid import (
    MAX_EPOCHS,
    SCORE_ROWS,
    HybridModel,
    TrainConfig,
    TrainingDiverged,
    confusion_row_percent,
    evaluate,
    hybrid_forward,
    hybrid_forward_batch,
    hybrid_gradients,
    load_checkpoint,
    model_parameters,
    multi_seed_report,
    new_hybrid_model,
    save_checkpoint,
    train_run,
    with_parameters,
)
from qdiag.nn import adam_init, adam_step, cross_entropy, init_mlp, mlp_forward_batch
from qdiag.pqc import RX_ANGLE, RY_ANGLE, RZ_ANGLE, PqcParams, pqc_expectations_batch

IDENTITY_NORM = NormalizerParams(np.zeros(5), np.ones(5))


def toy_dataset(per_class=30, seed=0, spread=0.25) -> Dataset:
    """Three well-separated gaussian blobs in raw feature space."""
    rng = np.random.default_rng(seed)
    centers = np.array(
        [
            [0.1, 1.0, 0.5, 2.0, 1.0],
            [1.2, 3.0, 2.0, 5.0, 2.5],
            [2.5, 6.0, 4.0, 9.0, 4.5],
        ]
    )
    features = np.concatenate(
        [c + rng.normal(scale=spread, size=(per_class, 5)) for c in centers]
    )
    labels = np.repeat(np.arange(3), per_class)
    return split(Dataset(features, labels), train_fraction=0.8, seed=seed)


def loss_of(model: HybridModel, features, labels) -> float:
    probs = hybrid_forward_batch(model, features)
    return float(np.mean([cross_entropy(p, int(y)) for p, y in zip(probs, labels)]))


# --- forward --------------------------------------------------------------


def test_forward_rows_are_distributions():
    model = new_hybrid_model(IDENTITY_NORM, seed=1)
    rng = np.random.default_rng(2)
    probs = hybrid_forward_batch(model, rng.uniform(size=(20, 5)))
    assert probs.shape == (20, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0.0)


def test_quantum_features_with_neutral_angles():
    # Zero circuit angles leave only the encoding rotation, whose
    # z-expectation is cos(pi x); out-of-range inputs clamp first.
    model = HybridModel(
        IDENTITY_NORM,
        PqcParams(5, np.zeros((5, 3))),
        new_hybrid_model(IDENTITY_NORM, seed=0).mlp,
    )
    norm, pqc = model.normalizer, model.pqc
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(pqc_expectations_batch(apply_normalizer(norm, x), pqc)[0],
                       np.cos(np.pi * x), atol=1e-12)
    clamped = pqc_expectations_batch(
        apply_normalizer(norm, np.array([-3.0, 9.0, 0.5, 0.5, 0.5])), pqc
    )
    assert np.allclose(clamped[0, :2], [1.0, -1.0], atol=1e-12)


def test_forward_single_sample_matches_batch():
    model = new_hybrid_model(IDENTITY_NORM, seed=3)
    rng = np.random.default_rng(4)
    batch = rng.uniform(size=(6, 5))
    probs = hybrid_forward_batch(model, batch)
    for row, batch_row in zip(batch, probs):
        assert np.array_equal(hybrid_forward(model, row), batch_row)
    with pytest.raises(ValueError, match="one sample"):
        hybrid_forward(model, batch)


def test_forward_input_validation():
    model = new_hybrid_model(IDENTITY_NORM, seed=0)
    with pytest.raises(ValueError, match="5 features"):
        hybrid_forward_batch(model, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="non-finite"):
        hybrid_forward_batch(model, np.full((1, 5), np.nan))


# The scoring path's formulas as they were before the clamp-first normalizer
# and the in-place kernels: the oracle the scoring path must reproduce.
def oracle_normalize(params: NormalizerParams, rows: np.ndarray) -> np.ndarray:
    span = params.maximum - params.minimum
    safe_span = np.where(span > 0.0, span, 1.0)
    with np.errstate(over="ignore"):
        scaled = (rows - params.minimum) / safe_span
    return np.where(span > 0.0, np.clip(scaled, 0.0, 1.0), 0.5)


def oracle_readout(model: HybridModel, normed: np.ndarray) -> np.ndarray:
    angles = model.pqc.angles
    return np.cos(angles[:, RX_ANGLE]) * np.cos(np.pi * normed + angles[:, RY_ANGLE])


def oracle_probs(model: HybridModel, normed: np.ndarray) -> np.ndarray:
    readout = oracle_readout(model, normed)
    a = readout
    for i, layer in enumerate(model.mlp.layers):
        z = a @ layer.weights.T + layer.biases
        a = z if i == len(model.mlp.layers) - 1 else np.where(z >= 0, z, np.expm1(np.minimum(z, 0)))
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    assert np.array_equal(mlp_forward_batch(model.mlp, readout)[0], probs)
    return probs


def scoring_cases(seed: int):
    """A seeded model whose fit has degenerate columns, and rows that probe
    the clamp: inside, exactly at both bounds, far outside, +-1e308, -0.0."""
    rng = np.random.default_rng(seed)
    fit = rng.normal(size=(8, 5)) * 10.0 ** rng.uniform(-3, 3, size=5)
    fit[:, rng.choice(5, size=seed % 3, replace=False)] = rng.normal()
    params = fit_normalizer(fit)
    model = new_hybrid_model(params, seed=seed)
    lo, hi = params.minimum, params.maximum
    rows = np.concatenate([
        lo + (hi - lo) * rng.uniform(-0.5, 1.5, size=(20, 5)),
        [lo, hi, -lo, np.full(5, 1e308), np.full(5, -1e308), np.zeros(5), np.full(5, -0.0)],
        np.where(rng.uniform(size=(6, 5)) < 0.5, 1e308, -1e308),
        np.where(rng.uniform(size=(6, 5)) < 0.5, lo, hi),
    ])
    return model, rows


@pytest.mark.filterwarnings("error")  # no overflow, not even an ignored one, may warn
@pytest.mark.parametrize("seed", range(12))
def test_scoring_path_reproduces_the_oracle_formulas(seed):
    model, rows = scoring_cases(seed)
    with np.errstate(all="ignore"):
        normed = oracle_normalize(model.normalizer, rows)
        want = oracle_probs(model, normed)
    got_normed = apply_normalizer(model.normalizer, rows)
    assert np.array_equal(got_normed, normed)  # equal up to the sign of a zero
    assert got_normed.min() >= 0.0 and got_normed.max() <= 1.0
    readout = pqc_expectations_batch(got_normed, model.pqc)
    assert readout.tobytes() == oracle_readout(model, normed).tobytes()
    probs = hybrid_forward_batch(model, rows)
    assert probs.tobytes() == want.tobytes()
    for row, want_row in zip(rows, want):
        assert hybrid_forward(model, row).tobytes() == want_row.tobytes()
    labels = np.arange(len(rows)) % 3
    result = evaluate(model, rows, labels)
    assert result.loss == cross_entropy(want, labels)
    assert result.accuracy == np.mean(np.argmax(want, axis=1) == labels)
    empty = hybrid_forward_batch(model, np.empty((0, 5)))
    assert empty.shape == (0, 3)


def _angles_overwritten_with_nan(model):
    model.pqc.angles[2, RX_ANGLE] = np.nan
    return np.ones((2, 5))


@pytest.mark.parametrize("make, message", [
    (lambda m: np.full((2, 5), np.nan), "features contain non-finite values"),
    (lambda m: np.array([[0.0] * 4 + [np.inf]]), "features contain non-finite values"),
    (lambda m: np.array([[-np.inf] + [0.0] * 4]), "features contain non-finite values"),
    (lambda m: np.zeros((3, 4)), "expected 5 features per row, got shape (3, 4)"),
    (lambda m: np.zeros((2, 3, 5)), "expected 5 features per row, got shape (2, 3, 5)"),
    (_angles_overwritten_with_nan, "network input contains non-finite values"),
], ids=["nan", "inf", "-inf", "width", "3-d", "nan-angle"])
def test_scoring_refusals_keep_their_messages(make, message):
    model, _ = scoring_cases(0)
    rows = make(model)
    calls = [lambda: hybrid_forward_batch(model, rows),
             lambda: evaluate(model, rows, np.zeros(len(rows), dtype=np.int64))]
    if rows.ndim == 2:
        single = message.replace(f"shape {rows.shape}", f"shape (1, {rows.shape[1]})")
        calls.append((lambda: hybrid_forward(model, rows[0]), single))
    for call in calls:
        call, want = call if isinstance(call, tuple) else (call, message)
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [0, 1, SCORE_ROWS - 1, SCORE_ROWS, SCORE_ROWS + 1,
                               2 * SCORE_ROWS + 3])
def test_scoring_blocks_reproduce_the_oracle_at_their_edges(n):
    model, probe = scoring_cases(n % 12)
    lo, hi = model.normalizer.minimum, model.normalizer.maximum
    rng = np.random.default_rng(n)
    rows = np.concatenate([probe, lo + (hi - lo) * rng.uniform(-0.5, 1.5, size=(n, 5))])[:n]
    with np.errstate(all="ignore"):
        want = oracle_probs(model, oracle_normalize(model.normalizer, rows))
    assert hybrid_forward_batch(model, rows).tobytes() == want.tobytes()
    labels = np.arange(n) % 3
    if n == 0:
        with pytest.raises(ValueError, match="^evaluate needs at least one row$"):
            evaluate(model, rows, labels)
    else:
        result = evaluate(model, rows, labels)
        assert result.loss == cross_entropy(want, labels)
        assert result.accuracy == np.mean(np.argmax(want, axis=1) == labels)
    if n > SCORE_ROWS:
        model.pqc.angles[4, RX_ANGLE] = np.nan
        for call in (lambda: hybrid_forward_batch(model, rows),
                     lambda: evaluate(model, rows, labels)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "network input contains non-finite values"


@pytest.mark.parametrize("blocks", [1, 2])
def test_no_scoring_block_is_a_single_row(blocks):
    # BLAS sums a one-row product (gemv) in another order than a batch
    # (gemm), so a one-row last block could change that row's last bits.
    model, _ = scoring_cases(blocks)
    lo, hi = model.normalizer.minimum, model.normalizer.maximum
    rng = np.random.default_rng(blocks)
    rows = lo + (hi - lo) * rng.uniform(size=(blocks * SCORE_ROWS + 1, 5))
    for tail in lo + (hi - lo) * rng.uniform(size=(30, 5)):
        rows[-1] = tail
        want = oracle_probs(model, oracle_normalize(model.normalizer, rows))
        assert hybrid_forward_batch(model, rows).tobytes() == want.tobytes()


def test_batch_scoring_memory_is_bounded_by_input_and_output():
    model = new_hybrid_model(IDENTITY_NORM, seed=5)
    rows = np.random.default_rng(6).uniform(size=(20 * SCORE_ROWS, 5))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        hybrid_forward_batch(model, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Normalizing holds two whole-batch arrays at once (2x), and the output
    # (0.6x) is whole-batch too; every other temporary is one block's worth.
    assert peak < 3 * rows.nbytes


def test_model_dimension_chaining():
    with pytest.raises(ValueError, match="qubits"):
        HybridModel(
            NormalizerParams(np.zeros(4), np.ones(4)),
            PqcParams(5, np.zeros((5, 3))),
            new_hybrid_model(IDENTITY_NORM, seed=0).mlp,
        )
    with pytest.raises(ValueError, match="2 class scores"):
        HybridModel(
            IDENTITY_NORM,
            PqcParams(5, np.zeros((5, 3))),
            init_mlp((5, 4, 2), seed=0),
        )


# --- gradients ------------------------------------------------------------


def numeric_gradients(model, features, labels, h=1e-5):
    """Central differences over every trainable entry, written from scratch."""
    params = [p.copy() for p in model_parameters(model)]
    grads = []
    for i, p in enumerate(params):
        g = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), g.ravel()
        for j in range(flat_p.size):
            keep = flat_p[j]
            flat_p[j] = keep + h
            up = loss_of(with_parameters(model, params), features, labels)
            flat_p[j] = keep - h
            down = loss_of(with_parameters(model, params), features, labels)
            flat_p[j] = keep
            flat_g[j] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def test_gradients_match_numeric_oracle():
    rng = np.random.default_rng(11)
    model = new_hybrid_model(IDENTITY_NORM, seed=7, hidden_units=6)
    features = rng.uniform(size=(5, 5))
    labels = rng.integers(0, 3, size=5)
    analytic, loss = hybrid_gradients(model, features, labels)
    assert np.isclose(loss, loss_of(model, features, labels), atol=1e-12)
    numeric = numeric_gradients(model, features, labels)
    assert len(analytic) == len(numeric) == 5
    for a, n in zip(analytic, numeric):
        assert np.max(np.abs(a - n)) < 1e-6


def test_phase_angle_gradients_vanish_through_the_chain():
    # The z-rotation commutes with the measurement, so its column of the
    # angle gradient is dead no matter what the network does downstream.
    rng = np.random.default_rng(17)
    model = new_hybrid_model(IDENTITY_NORM, seed=9)
    features = rng.uniform(size=(12, 5))
    labels = rng.integers(0, 3, size=12)
    grads, _ = hybrid_gradients(model, features, labels)
    assert np.max(np.abs(grads[0][:, RZ_ANGLE])) < 1e-12


def test_duplicated_batch_leaves_mean_gradients_unchanged():
    rng = np.random.default_rng(19)
    model = new_hybrid_model(IDENTITY_NORM, seed=2)
    features = rng.uniform(size=(4, 5))
    labels = rng.integers(0, 3, size=4)
    once, loss_once = hybrid_gradients(model, features, labels)
    twice, loss_twice = hybrid_gradients(
        model, np.concatenate([features, features]), np.concatenate([labels, labels])
    )
    assert np.isclose(loss_once, loss_twice, atol=1e-14)
    for a, b in zip(once, twice):
        assert np.allclose(a, b, atol=1e-14)


def test_gradient_label_validation():
    model = new_hybrid_model(IDENTITY_NORM, seed=0)
    with pytest.raises(ValueError, match="labels"):
        hybrid_gradients(model, np.zeros((3, 5)), np.zeros(2, dtype=int))


def test_with_parameters_checks_arity():
    model = new_hybrid_model(IDENTITY_NORM, seed=0)
    with pytest.raises(ValueError, match="parameter arrays"):
        with_parameters(model, model_parameters(model)[:-1])


# --- evaluation -----------------------------------------------------------


def test_evaluate_confusion_consistency():
    model = new_hybrid_model(IDENTITY_NORM, seed=21)
    rng = np.random.default_rng(23)
    features = rng.uniform(size=(40, 5))
    labels = rng.integers(0, 3, size=40)
    result = evaluate(model, features, labels)
    assert result.confusion.sum() == 40
    assert result.accuracy == np.trace(result.confusion) / result.confusion.sum()
    assert np.array_equal(result.confusion.sum(axis=1), np.bincount(labels, minlength=3))


@pytest.mark.parametrize("bad", [-1, 3])
def test_evaluate_refuses_labels_outside_the_label_set(bad):
    model = new_hybrid_model(IDENTITY_NORM, seed=21)
    labels = np.array([0, 1, bad, 2])
    with pytest.raises(ValueError, match=rf"^label {bad} out of range for 3 classes$"):
        evaluate(model, np.full((4, 5), 0.5), labels)


@pytest.mark.parametrize(
    "labels, message",
    [
        (np.array([0, 1]), r"^expected 3 labels, got shape \(2,\)$"),
        (np.array([0.0, 1.0, 2.0]), r"^labels must be integers, got dtype float64$"),
    ],
    ids=["count", "float"],
)
def test_evaluate_refuses_labels_that_do_not_fit_the_rows(labels, message):
    model = new_hybrid_model(IDENTITY_NORM, seed=21)
    with pytest.raises(ValueError, match=message):
        evaluate(model, np.full((3, 5), 0.5), labels)


def test_confusion_row_percent():
    rows = confusion_row_percent(np.array([[8, 2, 0], [0, 10, 0], [0, 0, 0]]))
    assert np.allclose(rows[0], [80.0, 20.0, 0.0])
    assert np.allclose(rows[1], [0.0, 100.0, 0.0])
    assert np.allclose(rows[2], 0.0)  # guarded division for an empty row


# --- training -------------------------------------------------------------


def quick_config(**overrides) -> TrainConfig:
    base = dict(epochs=4, batch_size=16, num_runs=2, learning_rate=0.05)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_run_is_deterministic():
    dataset = toy_dataset()
    config = quick_config()
    model_a, metrics_a = train_run(dataset, config, seed=4)
    model_b, metrics_b = train_run(dataset, config, seed=4)
    assert np.array_equal(metrics_a.epoch_train_loss, metrics_b.epoch_train_loss)
    assert np.array_equal(metrics_a.epoch_train_accuracy, metrics_b.epoch_train_accuracy)
    assert metrics_a.test_accuracy == metrics_b.test_accuracy
    for pa, pb in zip(model_parameters(model_a), model_parameters(model_b)):
        assert np.array_equal(pa, pb)
    _, metrics_c = train_run(dataset, config, seed=5)
    assert not np.array_equal(metrics_a.epoch_train_loss, metrics_c.epoch_train_loss)


def test_train_curves_start_at_the_fresh_model():
    dataset = toy_dataset()
    config = quick_config(epochs=3)
    _, metrics = train_run(dataset, config, seed=0)
    assert metrics.epoch_train_loss.size == 4
    assert metrics.epoch_train_accuracy.size == 4
    # A fresh random model sits in the right ballpark of the uniform loss;
    # training has not touched entry 0 (a broken floor would read ~27.6).
    assert 0.5 * np.log(3.0) < metrics.epoch_train_loss[0] < 2.5 * np.log(3.0)
    assert metrics.final_train_loss == metrics.epoch_train_loss[-1]
    assert metrics.final_train_accuracy == metrics.epoch_train_accuracy[-1]


def test_train_curve_ends_at_the_public_evaluate_of_the_train_split():
    # train_run scores epochs on rows it normalized once; public evaluate
    # checks and normalizes the raw rows itself.  Both give the same bits.
    dataset = toy_dataset()
    model, metrics = train_run(dataset, quick_config(epochs=3), seed=2)
    result = evaluate(model, *dataset.train)
    assert metrics.epoch_train_accuracy[-1] == result.accuracy
    assert metrics.epoch_train_loss[-1] == result.loss


def test_training_reduces_loss_and_fits_the_blobs():
    dataset = toy_dataset()
    _, metrics = train_run(dataset, quick_config(epochs=12), seed=1)
    assert metrics.epoch_train_loss[-1] < 0.5 * metrics.epoch_train_loss[0]
    assert metrics.final_train_accuracy >= 0.9
    assert metrics.test_accuracy >= 0.8
    assert metrics.confusion.sum() == dataset.test[1].size


def per_array_train_run(dataset, config, seed):
    """train_run written as a loop over the five arrays: hybrid_gradients,
    an Adam step and state per array, and a model rebuilt by with_parameters.

    Returns the model, the epoch evaluations and the epoch it diverged in.
    """
    train_x, train_y = dataset.train
    rng = np.random.default_rng(seed)
    model = new_hybrid_model(fit_normalizer(train_x), seed=int(rng.integers(2**31 - 1)))
    params = model_parameters(model)
    states = [adam_init(p, lr=config.learning_rate) for p in params]
    evals = [evaluate(model, train_x, train_y)]
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(train_x.shape[0])
            for lo in range(0, train_x.shape[0], config.batch_size):
                pick = order[lo : lo + config.batch_size]
                grads, _ = hybrid_gradients(model, train_x[pick], train_y[pick])
                stepped = [adam_step(p, g, st) for p, g, st in zip(params, grads, states)]
                params, states = [p for p, _ in stepped], [st for _, st in stepped]
                try:
                    model = with_parameters(model, params)
                except ValueError:
                    return model, evals, epoch
            evals.append(evaluate(model, train_x, train_y))
            if not math.isfinite(evals[-1].loss):
                return model, evals, epoch
    return model, evals, None


def test_flat_vector_training_equals_the_per_array_loop():
    # Adam is elementwise, so one update of the flat vector must give the
    # same bits as one update per array.
    dataset = toy_dataset()
    config = quick_config(epochs=3)
    model, metrics = train_run(dataset, config, seed=6)
    ref_model, ref_evals, diverged = per_array_train_run(dataset, config, seed=6)
    assert diverged is None
    for p, q in zip(model_parameters(model), model_parameters(ref_model), strict=True):
        assert np.array_equal(p, q)
    assert np.array_equal(metrics.epoch_train_accuracy, [e.accuracy for e in ref_evals])
    assert np.array_equal(metrics.epoch_train_loss, [e.loss for e in ref_evals])


def test_divergence_is_reported_in_the_per_array_loop_epoch():
    dataset = toy_dataset()
    config = quick_config(epochs=5, learning_rate=1e308)
    _, _, diverged = per_array_train_run(dataset, config, seed=6)
    assert diverged is not None
    with pytest.raises(TrainingDiverged, match=f"diverged in epoch {diverged} "):
        train_run(dataset, config, seed=6)


def test_train_run_requires_a_split():
    dataset = toy_dataset()
    bare = Dataset(dataset.features, dataset.labels)
    with pytest.raises(ValueError, match="split"):
        train_run(bare, quick_config(), seed=0)


def test_train_config_validation():
    for bad in (
        dict(learning_rate=0.0),
        dict(learning_rate=float("inf")),
        dict(epochs=0),
        dict(epochs=MAX_EPOCHS + 1),
        dict(batch_size=0),
    ):
        with pytest.raises(ValueError):
            quick_config(**bad)
    assert quick_config(epochs=MAX_EPOCHS).epochs == MAX_EPOCHS
    # One epoch more and numpy refuses the epochs + 1 curve entries outright.
    with pytest.raises(ValueError):
        np.empty(MAX_EPOCHS + 2)


def test_train_config_is_frozen():
    config = quick_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.epochs = 0


def test_multi_seed_report_statistics():
    dataset = toy_dataset(per_class=20)
    config = quick_config(epochs=3, num_runs=3, base_seed=10)
    report = multi_seed_report(dataset, config)
    assert [r.seed for r in report.runs] == [10, 11, 12]
    accs = [r.test_accuracy for r in report.runs]
    assert np.isclose(report.mean_test_accuracy, np.mean(accs))
    assert np.isclose(report.std_test_accuracy, np.std(accs, ddof=1))
    assert report.std_test_accuracy >= 0.0
    assert np.array_equal(
        report.pooled_confusion, np.sum([r.confusion for r in report.runs], axis=0)
    )
    best = report.best_run_index()
    assert accs[best] == max(accs)
    assert len(report.models) == 3


def test_multi_seed_report_of_one_run_is_that_run():
    dataset = toy_dataset(per_class=15)
    config = quick_config(epochs=2, num_runs=1, base_seed=5)
    report = multi_seed_report(dataset, config)
    model, metrics = train_run(dataset, config, seed=5)
    assert len(report.runs) == len(report.models) == 1
    assert report.runs[0].seed == 5
    for p, q in zip(model_parameters(report.models[0]), model_parameters(model), strict=True):
        assert np.array_equal(p, q)
    assert np.array_equal(report.runs[0].epoch_train_loss, metrics.epoch_train_loss)
    assert report.mean_train_accuracy == metrics.final_train_accuracy
    assert report.mean_test_accuracy == metrics.test_accuracy
    assert report.mean_train_loss == metrics.final_train_loss
    assert report.mean_test_loss == metrics.test_loss
    assert report.std_train_accuracy == report.std_test_accuracy == 0.0
    assert report.std_train_loss == report.std_test_loss == 0.0
    assert np.array_equal(report.pooled_confusion, metrics.confusion)


# --- checkpoints ----------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(29)
    normalizer = NormalizerParams(rng.normal(size=5), rng.normal(size=5) + 10.0)
    model = new_hybrid_model(normalizer, seed=31)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.normalizer.minimum, model.normalizer.minimum)
    assert np.array_equal(loaded.normalizer.maximum, model.normalizer.maximum)
    assert np.array_equal(loaded.pqc.angles, model.pqc.angles)
    for la, lb in zip(loaded.mlp.layers, model.mlp.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)
    # Same inputs through the reloaded model give identical bits.
    batch = rng.uniform(size=(4, 5)) * 10.0
    assert np.array_equal(
        hybrid_forward_batch(model, batch), hybrid_forward_batch(loaded, batch)
    )


def test_checkpoint_that_cannot_be_written_leaves_no_file(tmp_path):
    model = new_hybrid_model(IDENTITY_NORM, seed=0)
    model.mlp.layers[0].weights[0, 0] = np.nan
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_checkpoint(model, path)
    assert not path.exists()


def test_checkpoint_parse_errors_carry_positions(tmp_path):
    path = tmp_path / "model.json"
    model = new_hybrid_model(IDENTITY_NORM, seed=0)
    save_checkpoint(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError, match="parse error at line") as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: parse error at line")
    assert str(info.value).count(str(path)) == 1


def test_checkpoint_version_and_missing_fields(tmp_path):
    path = tmp_path / "model.json"
    model = new_hybrid_model(IDENTITY_NORM, seed=0)
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())

    for version in (99, True, 1.0):  # true and 1.0 compare equal to 1
        path.write_text(json.dumps(dict(doc, version=version)))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    doc_bad = {k: v for k, v in doc.items() if k != "normalizer"}
    path.write_text(json.dumps(doc_bad))
    with pytest.raises(ValueError, match="missing field") as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: checkpoint is missing field $.normalizer"


def test_checkpoint_cross_section_mismatch(tmp_path):
    path = tmp_path / "model.json"
    model = new_hybrid_model(IDENTITY_NORM, seed=0)
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    doc_bad = dict(doc, pqc={"num_qubits": 4, "angles": [[0.0, 0.0, 0.0]] * 4})
    path.write_text(json.dumps(doc_bad))
    with pytest.raises(ValueError, match="internally inconsistent"):
        load_checkpoint(path)

    # A last layer with fewer rows than labels is refused at load time;
    # HybridModel refuses it too, so save_checkpoint can never write one.
    last = doc["mlp"]["layers"][-1]
    last["rows"] = 2
    last["weights"] = last["weights"][: 2 * last["cols"]]
    last["biases"] = last["biases"][:2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="internally inconsistent.*2 class scores"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [float("nan"), -float("inf")])
def test_checkpoint_non_finite_normalizer_bounds(tmp_path, bad):
    path = tmp_path / "model.json"
    model = new_hybrid_model(IDENTITY_NORM, seed=0)
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    doc["normalizer"]["min"][2] = bad  # max < min is False for both
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="must be finite"):
        load_checkpoint(path)


def test_checkpoint_shape_validation(tmp_path):
    path = tmp_path / "model.json"
    model = new_hybrid_model(IDENTITY_NORM, seed=0)
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    doc["mlp"]["layers"][0]["weights"] = [1.0, 2.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="weights"):
        load_checkpoint(path)
