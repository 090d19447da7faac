"""Command-line front end.

Subcommands mirror the pipeline stages: `synth` writes raw signal CSVs,
`features` turns them into feature CSVs, `train` fits seeded models and
writes metrics/curve/confusion files plus a checkpoint, `eval` and
`predict` apply a checkpoint, and `gradcheck` runs the gradient
cross-checks.  Every run is deterministic given the same inputs and flags.
Exit status is 0 only when the command completed without errors.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .data import (
    DEFAULT_SEGMENT_LENGTH,
    DEFAULT_SEGMENT_OVERLAP,
    DEFAULT_TARGET_RATE_HZ,
    LABELS,
    SHORT_LABELS,
    SynthConfig,
    check_target_rate,
    check_window,
    dataset_from_features,
    downsample,
    extract_features,
    load_features_csv,
    load_signals_csv,
    save_features_csv,
    save_signals_csv,
    segment_signal,
    split,
    synth_generate,
)
from .gradcheck import run_gradient_checks
from .hybrid import (
    RunMetrics,
    SummaryReport,
    TrainConfig,
    TrainingDiverged,
    confusion_row_percent,
    evaluate,
    hybrid_forward_batch,
    load_checkpoint,
    multi_seed_report,
    save_checkpoint,
)

_SHORT = [SHORT_LABELS[name] for name in LABELS]


def _cmd_synth(args) -> int:
    config = SynthConfig(
        signals_per_class=args.per_class,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
        noise_std=args.noise,
    )
    signals = synth_generate(config, seed=args.seed)
    save_signals_csv(signals, args.out)
    print(f"wrote {len(signals)} signal block(s) to {args.out}")
    return 0


def _cmd_features(args) -> int:
    check_target_rate(args.target_rate)
    check_window(args.length, args.overlap)
    signals = load_signals_csv(args.input)
    features = []
    warnings = []
    for i, signal in enumerate(signals):
        try:
            reduced = downsample(signal, args.target_rate)
            if reduced.samples.size < args.length:
                warnings.append(
                    f"warning: block {i + 1} ({signal.label}) has only "
                    f"{reduced.samples.size} samples after downsampling, "
                    f"needs {args.length}; skipped"
                )
                continue
            segments = segment_signal(reduced, args.length, args.overlap)
            features.extend(extract_features(s) for s in segments)
        except ValueError as e:
            raise ValueError(f"{args.input}: block {i + 1}: {e}") from None
    skipped = len(warnings)
    if not features:
        raise ValueError(f"{args.input}: no block was long enough to produce a single "
                         f"segment of {args.length} samples ({skipped} skipped)")
    for line in warnings:
        print(line, file=sys.stderr)
    dataset = dataset_from_features(features)
    save_features_csv(dataset, args.out)
    print(
        f"wrote {len(dataset)} feature row(s) from {len(signals) - skipped} "
        f"block(s) ({skipped} skipped) to {args.out}"
    )
    return 0


def _write_metrics_csv(path, report: SummaryReport) -> None:
    rows = [
        [str(run.seed), run.final_train_accuracy, run.test_accuracy,
         run.final_train_loss, run.test_loss]
        for run in report.runs
    ]
    rows.append(["mean", report.mean_train_accuracy, report.mean_test_accuracy,
                 report.mean_train_loss, report.mean_test_loss])
    rows.append(["std", report.std_train_accuracy, report.std_test_accuracy,
                 report.std_train_loss, report.std_test_loss])
    with open(path, "w", encoding="ascii") as fh:
        fh.write("seed,train_acc,test_acc,train_loss,test_loss\n")
        for name, *values in rows:
            fh.write(",".join([name] + [repr(v) for v in values]) + "\n")


def _write_curves_csv(path, metrics: RunMetrics) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,train_acc,train_loss\n")
        for epoch, (acc, loss) in enumerate(
            zip(metrics.epoch_train_accuracy, metrics.epoch_train_loss)
        ):
            fh.write(f"{epoch},{float(acc)!r},{float(loss)!r}\n")


def _write_confusion_csv(path, confusion: np.ndarray) -> None:
    percent = confusion_row_percent(confusion)
    accuracy = float(np.trace(confusion) / confusion.sum())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("counts," + ",".join(_SHORT) + "\n")
        for name, row in zip(_SHORT, confusion):
            fh.write(name + "," + ",".join(str(int(v)) for v in row) + "\n")
        fh.write("row_percent," + ",".join(_SHORT) + "\n")
        for name, row in zip(_SHORT, percent):
            fh.write(name + "," + ",".join(repr(float(v)) for v in row) + "\n")
        fh.write(f"accuracy,{accuracy!r}\n")


def _print_confusion(confusion: np.ndarray) -> None:
    percent = confusion_row_percent(confusion)
    print("confusion matrix (rows = true class, row %):")
    print("      " + "".join(f"{name:>8}" for name in _SHORT))
    for name, row in zip(_SHORT, percent):
        print(f"  {name:>4}" + "".join(f"{v:8.1f}" for v in row))


def _cmd_train(args) -> int:
    config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        num_runs=args.runs,
        base_seed=args.seed,
    )
    if not 0.0 < args.train_frac < 1.0:
        raise ValueError(f"--train-frac must be in (0, 1), got {args.train_frac}")
    dataset = load_features_csv(args.input)
    try:
        dataset = split(dataset, train_fraction=args.train_frac, seed=args.seed)
        report = multi_seed_report(dataset, config)
    except TrainingDiverged:
        raise
    except ValueError as e:  # the rows of the feature file are at fault
        raise ValueError(f"{args.input}: {e}") from None

    os.makedirs(args.out, exist_ok=True)
    _write_metrics_csv(os.path.join(args.out, "metrics.csv"), report)
    for run in report.runs:
        _write_curves_csv(os.path.join(args.out, f"curves_seed{run.seed}.csv"), run)
    _write_confusion_csv(os.path.join(args.out, "confusion.csv"), report.pooled_confusion)
    best_model = report.models[report.best_run_index()]
    save_checkpoint(best_model, os.path.join(args.out, "model.json"))

    print(f"{len(report.runs)} run(s), {config.epochs} epochs each")
    print(f"train accuracy: {100 * report.mean_train_accuracy:.1f} "
          f"+/- {100 * report.std_train_accuracy:.1f} %")
    print(f"test accuracy:  {100 * report.mean_test_accuracy:.1f} "
          f"+/- {100 * report.std_test_accuracy:.1f} %")
    print(f"train loss:     {report.mean_train_loss:.3f} +/- {report.std_train_loss:.3f}")
    print(f"test loss:      {report.mean_test_loss:.3f} +/- {report.std_test_loss:.3f}")
    _print_confusion(report.pooled_confusion)
    print(f"wrote metrics, curves, confusion and model.json under {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    dataset = load_features_csv(args.input)
    result = evaluate(model, dataset.features, dataset.labels)
    print(f"samples:  {len(dataset)}")
    print(f"accuracy: {100 * result.accuracy:.2f} %")
    print(f"loss:     {result.loss:.6f}")
    _print_confusion(result.confusion)
    return 0


def _cmd_predict(args) -> int:
    model = load_checkpoint(args.model)
    dataset = load_features_csv(args.input)
    probs = hybrid_forward_batch(model, dataset.features)
    predicted = np.argmax(probs, axis=1)
    lines = ["predicted," + ",".join(f"p_{name}" for name in LABELS) + ",label"]
    for row, pick, label in zip(probs.tolist(), predicted, dataset.labels):
        lines.append(",".join([LABELS[pick], *map(repr, row), LABELS[label]]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {len(dataset)} prediction(s) to {args.out}")
    else:
        sys.stdout.write(text)
    accuracy = float(np.mean(predicted == dataset.labels))
    print(f"accuracy against labels in file: {100 * accuracy:.2f} %", file=sys.stderr)
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradient_checks(seed=args.seed, corrupt=args.corrupt)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<48} max {r.worst:.3e}  tol {r.tolerance:.0e}  {status}")
        failed = failed or not r.passed
    print("gradient checks " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


def _seed(text: str) -> int:
    """A `--seed` value; numpy's generators take non-negative integers only."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Flag errors end like every other failure: one `error:` line, exit 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdiag",
        description="Hybrid quantum-classical classifier for bearing vibration data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic labeled vibration records")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", default="signals.csv", help="output signal CSV")
    p.add_argument("--per-class", type=int, default=6, dest="per_class",
                   help="records per class (default 6)")
    p.add_argument("--duration", type=float, default=6.0,
                   help="record length in seconds (default 6.0)")
    p.add_argument("--rate", type=float, default=97656.0,
                   help="sample rate in Hz (default 97656)")
    p.add_argument("--noise", type=float, default=0.1,
                   help="white noise standard deviation (default 0.1)")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("features", help="signal CSV -> feature CSV")
    p.add_argument("--in", required=True, dest="input", help="input signal CSV")
    p.add_argument("--out", default="features.csv", help="output feature CSV")
    p.add_argument("--target-rate", type=float, default=DEFAULT_TARGET_RATE_HZ,
                   dest="target_rate",
                   help=f"common rate after decimation (default {DEFAULT_TARGET_RATE_HZ:g})")
    p.add_argument("--length", type=int, default=DEFAULT_SEGMENT_LENGTH,
                   help=f"segment length in samples (default {DEFAULT_SEGMENT_LENGTH})")
    p.add_argument("--overlap", type=int, default=DEFAULT_SEGMENT_OVERLAP,
                   help=f"segment overlap in samples (default {DEFAULT_SEGMENT_OVERLAP})")
    p.set_defaults(handler=_cmd_features)

    p = sub.add_parser("train", help="train seeded model(s) on a feature CSV")
    p.add_argument("--in", required=True, dest="input", help="input feature CSV")
    p.add_argument("--out", default="train_out", help="output directory")
    p.add_argument("--seed", type=_seed, default=0,
                   help="base seed; run r uses seed + r (default 0)")
    p.add_argument("--lr", type=float, default=0.01, help="Adam learning rate")
    p.add_argument("--epochs", type=int, default=150, help="epochs per run")
    p.add_argument("--batch", type=int, default=32, help="mini-batch size")
    p.add_argument("--runs", type=int, default=25, help="number of seeded runs")
    p.add_argument("--train-frac", type=float, default=0.8, dest="train_frac",
                   help="training share of the split (default 0.8)")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a feature CSV")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--in", required=True, dest="input", help="input feature CSV")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("predict", help="per-row class probabilities")
    p.add_argument("--model", required=True, help="checkpoint file")
    p.add_argument("--in", required=True, dest="input", help="input feature CSV")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("gradcheck", help="cross-check analytic gradients")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p.add_argument("--corrupt", action="store_true",
                   help="bias one analytic gradient on purpose (checker self-test)")
    p.set_defaults(handler=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
