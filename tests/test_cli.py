"""End-to-end tests of the command-line interface via main(argv)."""

import json
import re

import numpy as np
import pytest

import qdiag.data
from qdiag.cli import main
from qdiag.data import (
    Dataset,
    NormalizerParams,
    RawSignal,
    load_features_csv,
    load_signals_csv,
    save_features_csv,
    save_signals_csv,
)
from qdiag.hybrid import MAX_EPOCHS, HybridModel, save_checkpoint
from qdiag.nn import DenseLayer, MlpModel
from qdiag.pqc import PqcParams


def blob_features_csv(path, per_class=15, seed=0):
    """Feature CSV of three separable blobs, bypassing the signal stage."""
    rng = np.random.default_rng(seed)
    centers = np.array(
        [
            [0.1, 1.0, 0.5, 2.0, 1.0],
            [1.2, 3.0, 2.0, 5.0, 2.5],
            [2.5, 6.0, 4.0, 9.0, 4.5],
        ]
    )
    features = np.concatenate(
        [c + rng.normal(scale=0.2, size=(per_class, 5)) for c in centers]
    )
    labels = np.repeat(np.arange(3), per_class)
    save_features_csv(Dataset(features, labels), path)


def perfect_checkpoint(path):
    """A hand-built model that reads class from feature 0 alone.

    With neutral circuit angles the network input is cos(pi x0) in
    {+0.81, 0, -0.81} for x0 in {0.1, 0.5, 0.9}.  The hidden unit shifts
    by +2 to stay on the linear branch of ELU, and the output rows undo
    the shift: logits (10 e0, 4, -10 e0) pick the right class each time.
    """
    w1 = np.zeros((1, 5))
    w1[0, 0] = 1.0
    mlp = MlpModel(
        [
            DenseLayer(w1, np.array([2.0])),
            DenseLayer(np.array([[10.0], [0.0], [-10.0]]), np.array([-20.0, 4.0, 20.0])),
        ]
    )
    model = HybridModel(
        NormalizerParams(np.zeros(5), np.ones(5)),
        PqcParams(5, np.zeros((5, 3))),
        mlp,
    )
    save_checkpoint(model, path)


def three_level_features_csv(path, per_class=8):
    """Rows whose class is encoded in feature 0 at 0.1 / 0.5 / 0.9."""
    rng = np.random.default_rng(3)
    rows, labels = [], []
    for c, x0 in enumerate((0.1, 0.5, 0.9)):
        for _ in range(per_class):
            row = rng.uniform(0.2, 0.8, size=5)
            row[0] = x0
            rows.append(row)
            labels.append(c)
    save_features_csv(Dataset(np.array(rows), np.array(labels)), path)


# --- synth ------------------------------------------------------------------


def test_synth_writes_seeded_blocks(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["synth", "--per-class", "1", "--duration", "0.2", "--rate", "20000"]
    assert main(argv + ["--seed", "5", "--out", str(a)]) == 0
    assert main(argv + ["--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "3 signal block(s)" in capsys.readouterr().out
    signals = load_signals_csv(a)
    assert [s.label for s in signals] == ["baseline", "outer_ring", "inner_ring"]
    assert all(s.samples.size == 4000 for s in signals)


def test_synth_different_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["synth", "--per-class", "1", "--duration", "0.2", "--rate", "20000"]
    assert main(argv + ["--seed", "1", "--out", str(a)]) == 0
    assert main(argv + ["--seed", "2", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_synth_rejects_bad_flags(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for flag, value in (("--noise", "-1"), ("--duration", "inf"), ("--rate", "inf"),
                        ("--noise", "nan"), ("--duration", "1e-9")):
        assert main(["synth", flag, value, "--out", str(out)]) == 1, flag + value
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert not out.exists()


def test_synth_writes_no_file_that_features_would_refuse(tmp_path, capsys):
    out = tmp_path / "n.csv"
    assert main(["synth", "--noise", "1e308", "--per-class", "1", "--duration", "0.2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert re.fullmatch(r"error: record 1 \(baseline\): sample \d+ must be finite, got -?inf",
                        err[0]), err
    assert not out.exists()


def test_synth_whose_sample_count_overflows_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(["synth", "--per-class", "1", "--duration", "1e200", "--rate", "1e200",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: duration_s 1e+200 at sample_rate_hz 1e+200 gives an infinite sample count"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck"])
@pytest.mark.parametrize("seed, message", [
    ("-1", "expected a non-negative integer, got -1"),
    ("abc", "invalid int value: 'abc'"),
])
def test_bad_seed_is_a_flag_error(tmp_path, capsys, monkeypatch, command, seed, message):
    features_path = tmp_path / "features.csv"
    blob_features_csv(features_path)
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--out", str(out)],
        "train": ["train", "--in", str(features_path), "--out", str(out)],
        "gradcheck": ["gradcheck"],
    }[command]
    opened = []
    monkeypatch.setattr(qdiag.data, "open_input", opened.append)
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--seed", seed])
    assert exit_info.value.code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: argument --seed: {message}"]
    assert opened == [] and not out.exists()


# --- features -----------------------------------------------------------------


def test_features_counts_and_decimation(tmp_path, capsys):
    signals_path = tmp_path / "signals.csv"
    features_path = tmp_path / "features.csv"
    assert main(
        ["synth", "--per-class", "2", "--duration", "0.5", "--rate", "40000",
         "--seed", "0", "--out", str(signals_path)]
    ) == 0
    assert main(
        ["features", "--in", str(signals_path), "--out", str(features_path),
         "--target-rate", "20000", "--length", "2000", "--overlap", "200"]
    ) == 0
    out = capsys.readouterr().out
    # 0.5 s at 20 kHz leaves 10000 samples: (10000-2000)//1800+1 = 5 windows
    # per block, 6 blocks.
    assert "wrote 30 feature row(s) from 6 block(s) (0 skipped)" in out
    dataset = load_features_csv(features_path)
    assert len(dataset) == 30
    assert np.array_equal(np.bincount(dataset.labels), [10, 10, 10])


def test_features_warns_and_skips_short_blocks(tmp_path, capsys):
    signals_path = tmp_path / "signals.csv"
    rng = np.random.default_rng(0)
    save_signals_csv(
        [
            RawSignal(rng.normal(size=5000), 20000.0, "baseline"),
            RawSignal(rng.normal(size=100), 20000.0, "outer_ring"),
        ],
        signals_path,
    )
    features_path = tmp_path / "features.csv"
    assert main(
        ["features", "--in", str(signals_path), "--out", str(features_path),
         "--target-rate", "20000", "--length", "2000", "--overlap", "200"]
    ) == 0
    captured = capsys.readouterr()
    assert "warning: block 2 (outer_ring)" in captured.err
    assert "(1 skipped)" in captured.out
    assert len(load_features_csv(features_path)) == 2


def test_features_fails_when_nothing_fits(tmp_path, capsys):
    signals_path = tmp_path / "signals.csv"
    save_signals_csv([RawSignal(np.zeros(100), 20000.0, "baseline")], signals_path)
    assert main(
        ["features", "--in", str(signals_path), "--out", str(tmp_path / "f.csv"),
         "--target-rate", "20000", "--length", "2000", "--overlap", "200"]
    ) == 1
    assert "error:" in capsys.readouterr().err


def test_features_with_no_usable_block_is_one_error_line(tmp_path, capsys):
    signals_path = tmp_path / "signals.csv"
    assert main(["synth", "--out", str(signals_path), "--per-class", "1",
                 "--duration", "0.5"]) == 0
    capsys.readouterr()
    assert main(["features", "--in", str(signals_path), "--out", str(tmp_path / "f.csv"),
                 "--length", "100000"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {signals_path}: no block"), err
    assert "(3 skipped)" in err[0]
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
@pytest.mark.parametrize(
    "header, sample, message",
    [
        ("baseline,270.0,2000.0", 1e200, "block 2: samples too large for finite features"),
        ("baseline,270.0,5e-324", 0.5, "block 2: sample rate 5e-324 is not an integer"),
    ],
    ids=["overflow", "rate"],
)
def test_features_errors_after_loading_name_the_file(
    tmp_path, capsys, header, sample, message
):
    signals_path = tmp_path / "signals.csv"
    samples = [0.5] * 40
    samples[4] = sample  # an even index survives decimation by 2
    signals_path.write_text("outer_ring,270.0,2000.0\n" + "0.25\n" * 40 + "\n" + header
                            + "\n" + "".join(f"{v!r}\n" for v in samples))
    out_path = tmp_path / "f.csv"
    assert main(["features", "--in", str(signals_path), "--out", str(out_path),
                 "--target-rate", "1000", "--length", "16", "--overlap", "4"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {signals_path}: {message}"), err
    assert not out_path.exists()


def test_features_target_rate_whose_ratio_overflows_is_one_error_line(tmp_path, capsys):
    signals_path = tmp_path / "signals.csv"
    save_signals_csv([RawSignal(np.zeros(8000), 97656.0, "baseline")], signals_path)
    out_path = tmp_path / "f.csv"
    assert main(["features", "--in", str(signals_path), "--out", str(out_path),
                 "--target-rate", "1e-308"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {signals_path}: block 1: "), err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--length", "0"], "need length > overlap >= 0, got 0, 200"),
        (["--overlap", "5000"], "need length > overlap >= 0, got 4000, 5000"),
        (["--overlap", "-1"], "need length > overlap >= 0, got 4000, -1"),
        (["--target-rate", "0"], "target rate must be positive, got 0.0"),
        (["--target-rate", "nan"], "target rate must be positive, got nan"),
        (["--target-rate", "-3"], "target rate must be positive, got -3.0"),
    ],
)
def test_features_checks_its_flags_before_opening_the_input(
    tmp_path, capsys, monkeypatch, flags, message
):
    signals_path = tmp_path / "signals.csv"
    save_signals_csv([RawSignal(np.zeros(8000), 97656.0, "baseline")], signals_path)
    opened = []
    monkeypatch.setattr(qdiag.data, "open_input", opened.append)
    out_path = tmp_path / "f.csv"
    assert main(["features", "--in", str(signals_path), "--out", str(out_path), *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert opened == [] and not out_path.exists()


def test_features_missing_input(tmp_path, capsys):
    assert main(["features", "--in", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


# --- train ------------------------------------------------------------------


def run_train(tmp_path, name, extra):
    features_path = tmp_path / "features.csv"
    if not features_path.exists():
        blob_features_csv(features_path)
    out_dir = tmp_path / name
    argv = [
        "train", "--in", str(features_path), "--out", str(out_dir),
        "--epochs", "3", "--batch", "8", "--seed", "7",
    ] + extra
    assert main(argv) == 0
    return out_dir


def test_train_single_run_outputs(tmp_path, capsys):
    out_dir = run_train(tmp_path, "run", ["--runs", "1"])
    out = capsys.readouterr().out
    assert "1 run(s), 3 epochs each" in out
    assert "confusion matrix" in out
    metrics = (out_dir / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "seed,train_acc,test_acc,train_loss,test_loss"
    assert metrics[1].startswith("7,")
    assert metrics[2].startswith("mean,")
    # The mean of one run is that run exactly.
    assert metrics[2].split(",")[1:] == metrics[1].split(",")[1:]
    assert metrics[3] == "std,0.0,0.0,0.0,0.0"
    curves = (out_dir / "curves_seed7.csv").read_text().splitlines()
    assert curves[0] == "epoch,train_acc,train_loss"
    assert len(curves) == 1 + 4  # header + epochs 0..3
    for epoch, line in enumerate(curves[1:]):
        cells = line.split(",")
        assert cells[0] == str(epoch)
        assert all(0.0 <= float(c) for c in cells[1:])  # plain float reprs
    assert (out_dir / "model.json").exists()
    confusion = (out_dir / "confusion.csv").read_text().splitlines()
    assert confusion[0] == "counts,ND,OR,IR"
    assert confusion[4] == "row_percent,ND,OR,IR"
    assert confusion[-1].startswith("accuracy,")


def test_train_runs_are_reproducible(tmp_path):
    a = run_train(tmp_path, "a", ["--runs", "2"])
    b = run_train(tmp_path, "b", ["--runs", "2"])
    for name in ("metrics.csv", "confusion.csv", "curves_seed7.csv", "curves_seed8.csv", "model.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
@pytest.mark.parametrize("lr", ["inf", "1e308"])
def test_train_bad_learning_rate_is_one_error_line(tmp_path, capsys, lr):
    features_path = tmp_path / "features.csv"
    blob_features_csv(features_path)
    argv = ["train", "--in", str(features_path), "--out", str(tmp_path / "out"),
            "--runs", "1", "--epochs", "2", "--lr", lr]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "learning" in err[0], err
    assert not (tmp_path / "out").exists()  # a failed run writes nothing


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lr, epochs, rc", [("1e3", 1, 1), ("1e3", 5, 1), ("1", 1, 0)])
def test_train_that_saturates_is_one_error_line(tmp_path, capsys, lr, epochs, rc):
    features_path = tmp_path / "features.csv"
    blob_features_csv(features_path)
    argv = ["train", "--in", str(features_path), "--out", str(tmp_path / "out"),
            "--runs", "1", "--epochs", str(epochs), "--lr", lr]
    assert main(argv) == rc
    err = capsys.readouterr().err.splitlines()
    if rc:
        assert len(err) == 1 and err[0].startswith("error: training saturated at "
                                                   "learning rate 1000.0: "), err
        assert not (tmp_path / "out").exists()
    else:
        assert err == [] and (tmp_path / "out" / "model.json").exists()


def one_row_baseline(features, labels):
    keep = np.flatnonzero(labels != 0)
    return np.vstack([features[:1], features[keep]]), np.concatenate([[0], labels[keep]])


def spans_overflow(features, labels):
    features = features.copy()
    features[:, 0] = np.where(labels == 0, -1e308, 1e308)
    return features, labels


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
@pytest.mark.parametrize(
    "defect, message",
    [
        (one_row_baseline, "class 'baseline' has 1 sample(s), need at least 2 to split"),
        (spans_overflow, "per-feature span max - min must be finite"),
    ],
    ids=["one_row_class", "span_overflow"],
)
def test_train_data_errors_name_the_file(tmp_path, capsys, defect, message):
    features_path = tmp_path / "features.csv"
    blob_features_csv(features_path)
    dataset = load_features_csv(features_path)
    save_features_csv(Dataset(*defect(dataset.features, dataset.labels)), features_path)
    argv = ["train", "--in", str(features_path), "--out", str(tmp_path / "out"),
            "--runs", "1", "--epochs", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {features_path}: {message}"]


@pytest.mark.parametrize("epochs", ["12345678901234567890", str(MAX_EPOCHS + 1)])
def test_train_epochs_numpy_cannot_shape_is_a_flag_error(tmp_path, capsys, monkeypatch, epochs):
    features_path = tmp_path / "features.csv"
    blob_features_csv(features_path)
    opened = []
    monkeypatch.setattr(qdiag.data, "open_input", opened.append)
    argv = ["train", "--in", str(features_path), "--out", str(tmp_path / "out"),
            "--runs", "1", "--epochs", epochs]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "epochs" in err[0], err
    assert not err[0].startswith(f"error: {features_path}")
    assert opened == [] and not (tmp_path / "out").exists()


def test_train_epochs_too_many_to_allocate_is_one_error_line(tmp_path, capsys):
    # Within MAX_EPOCHS, but the curves ask malloc for 711 PiB at once: it
    # refuses at once and nothing is committed.  No other MemoryError case
    # is tried, so that the test stays cheap on any machine.
    features_path = tmp_path / "features.csv"
    blob_features_csv(features_path)
    argv = ["train", "--in", str(features_path), "--out", str(tmp_path / "out"),
            "--runs", "1", "--epochs", "100000000000000000"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("frac", ["0", "1.5", "nan"])
def test_train_bad_fraction_is_a_flag_error(tmp_path, capsys, frac):
    features_path = tmp_path / "features.csv"
    blob_features_csv(features_path)
    argv = ["train", "--in", str(features_path), "--out", str(tmp_path / "out"),
            "--train-frac", frac]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --train-frac must be in (0, 1), got {float(frac)}"]
    assert not (tmp_path / "out").exists()


def test_train_missing_input(tmp_path, capsys):
    assert main(["train", "--in", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


# --- eval / predict -----------------------------------------------------------


def test_eval_with_a_perfect_model(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    features_path = tmp_path / "features.csv"
    perfect_checkpoint(model_path)
    three_level_features_csv(features_path)
    assert main(["eval", "--model", str(model_path), "--in", str(features_path)]) == 0
    out = capsys.readouterr().out
    assert "samples:  24" in out
    assert "accuracy: 100.00 %" in out
    assert "confusion matrix" in out


def test_predict_rows_and_accuracy(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    features_path = tmp_path / "features.csv"
    perfect_checkpoint(model_path)
    three_level_features_csv(features_path, per_class=4)
    assert main(["predict", "--model", str(model_path), "--in", str(features_path)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.out == "\n".join(lines) + "\n"  # CSV rows only, nothing else
    assert lines[0] == "predicted,p_baseline,p_outer_ring,p_inner_ring,label"
    assert len(lines) == 1 + 12
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == cells[4]  # prediction matches the file label
        probs = np.array([float(c) for c in cells[1:4]])
        assert np.isclose(probs.sum(), 1.0, atol=1e-12)
    assert captured.err == "accuracy against labels in file: 100.00 %\n"


def test_predict_to_file(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    features_path = tmp_path / "features.csv"
    out_path = tmp_path / "predictions.csv"
    perfect_checkpoint(model_path)
    three_level_features_csv(features_path, per_class=2)
    assert main(
        ["predict", "--model", str(model_path), "--in", str(features_path),
         "--out", str(out_path)]
    ) == 0
    assert "wrote 6 prediction(s)" in capsys.readouterr().out
    assert len(out_path.read_text().splitlines()) == 7


def drop_last_class(doc):
    last = doc["mlp"]["layers"][-1]
    last["rows"] = 2
    last["weights"] = last["weights"][: 2 * last["cols"]]
    last["biases"] = last["biases"][:2]
    return "network emits 2 class scores"


def nan_normalizer_min(doc):
    doc["normalizer"]["min"][0] = float("nan")
    return "min and max must be finite"


def object_in_normalizer_max(doc):
    doc["normalizer"]["max"][0] = {}
    return "normalizer.max must hold 5 numbers"


def huge_int_in_normalizer_max(doc):
    doc["normalizer"]["max"][0] = 10**400  # a JSON number, but no double holds it
    return "normalizer.max holds an integer too large for a double"


def bool_layer_rows(doc):
    last = doc["mlp"]["layers"][-1]
    last["rows"] = True  # a bool is an int to Python, so 1 row would pass
    last["weights"] = last["weights"][: last["cols"]]
    last["biases"] = last["biases"][:1]
    return "mlp.layers[1] has invalid rows/cols"


def string_normalizer_min(doc):
    doc["normalizer"]["min"] = [repr(v) for v in doc["normalizer"]["min"]]
    return "normalizer.min must hold 5 numbers"


def bool_biases(doc):
    doc["mlp"]["layers"][-1]["biases"] = [True, True, True]
    return "mlp.layers[1].biases must hold 3 numbers"


@pytest.mark.parametrize(
    "command, defect",
    [
        pytest.param("eval", drop_last_class, id="eval"),
        pytest.param("predict", drop_last_class, id="predict"),
        pytest.param("eval", nan_normalizer_min, id="eval-nan_min"),
        pytest.param("predict", nan_normalizer_min, id="predict-nan_min"),
        pytest.param("eval", object_in_normalizer_max, id="eval-object_max"),
        pytest.param("eval", huge_int_in_normalizer_max, id="eval-huge_max"),
        pytest.param("eval", bool_layer_rows, id="eval-bool_rows"),
        pytest.param("eval", string_normalizer_min, id="eval-string_min"),
        pytest.param("eval", bool_biases, id="eval-bool_biases"),
    ],
)
def test_checkpoint_with_fewer_classes_is_rejected(tmp_path, capsys, command, defect):
    model_path = tmp_path / "model.json"
    features_path = tmp_path / "features.csv"
    perfect_checkpoint(model_path)
    doc = json.loads(model_path.read_text())
    message = defect(doc)
    model_path.write_text(json.dumps(doc))
    three_level_features_csv(features_path, per_class=2)
    assert main([command, "--model", str(model_path), "--in", str(features_path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert message in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_deeply_nested_checkpoint_is_one_error_line(tmp_path, capsys, command):
    model_path = tmp_path / "model.json"
    features_path = tmp_path / "features.csv"
    model_path.write_text("[" * 100_000)
    three_level_features_csv(features_path, per_class=2)
    assert main([command, "--model", str(model_path), "--in", str(features_path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert str(model_path) in err[0]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["features", "--in", "BAD", "--out", "OUT"],
        ["train", "--in", "BAD", "--out", "OUT"],
        ["eval", "--model", "BAD", "--in", "FEATURES"],
        ["predict", "--model", "MODEL", "--in", "BAD"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_ascii_input_is_one_error_line_naming_the_file(tmp_path, capsys, argv):
    files = {name: tmp_path / name.lower() for name in ("BAD", "OUT", "FEATURES", "MODEL")}
    files["BAD"].write_bytes(b"\xff\xfe")
    three_level_features_csv(files["FEATURES"], per_class=2)
    perfect_checkpoint(files["MODEL"])
    assert main([str(files.get(arg, arg)) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {files['BAD']}: not ASCII text"]
    assert captured.out == ""


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
def test_checkpoint_whose_normalizer_span_overflows_is_refused(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    features_path = tmp_path / "features.csv"
    perfect_checkpoint(model_path)
    doc = json.loads(model_path.read_text())
    doc["normalizer"]["min"][1], doc["normalizer"]["max"][1] = -1e308, 1e308
    model_path.write_text(json.dumps(doc))
    three_level_features_csv(features_path, per_class=2)
    assert main(["eval", "--model", str(model_path), "--in", str(features_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: {model_path}: checkpoint is internally inconsistent: "
        "per-feature span max - min must be finite"
    ]
    assert captured.out == ""


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second line
def test_far_out_feature_clamps_without_a_warning(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    features_path = tmp_path / "features.csv"
    perfect_checkpoint(model_path)
    doc = json.loads(model_path.read_text())
    doc["normalizer"]["max"][0] = 1e-3
    model_path.write_text(json.dumps(doc))
    features = np.full((3, 5), 0.5)
    features[:, 0] = [1e308, -1e308, 5e-4]  # clamp to 1, clamp to 0, inside
    save_features_csv(Dataset(features, np.array([2, 0, 1])), features_path)
    assert main(["eval", "--model", str(model_path), "--in", str(features_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "accuracy: 100.00 %" in captured.out


def test_eval_missing_model(tmp_path, capsys):
    features_path = tmp_path / "features.csv"
    three_level_features_csv(features_path, per_class=2)
    assert main(["eval", "--model", str(tmp_path / "no.json"), "--in", str(features_path)]) == 1
    assert "error:" in capsys.readouterr().err


# --- gradcheck ----------------------------------------------------------------


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "gradient checks passed" in out


def test_gradcheck_corrupt_fails(capsys):
    assert main(["gradcheck", "--seed", "0", "--corrupt"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "gradient checks FAILED" in out


def test_unknown_command_exits_nonzero(capsys):
    for argv in (["frobnicate"], ["train", "--lr", "abc"], ["synth", "--classes", "2"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), (argv, err)
