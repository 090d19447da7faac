"""The three workloads: ingest, train and infer.

Each workload has a `setup` that builds its inputs from the seed, an
`iterate` that runs one timed pass of qdiag calls and returns what they
produced, and a `check` that verifies that output and returns how many of
the pass's operations failed.  Every qdiag function is looked up on its
module at call time, so a `tracing.Tracer` installed around `iterate` sees
the calls.  Checks recompute what they verify from the files with plain
Python, never with the qdiag function under test.
"""

from __future__ import annotations

import contextlib
import io
import math
import multiprocessing
import os
import shutil
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np
import qdiag
import qdiag.cli
import qdiag.data
import qdiag.hybrid

RATE_HZ = 97656.0
TARGET_RATE_HZ = 48828.0
WINDOW, OVERLAP = 4000, 200
NUM_CLASSES = 3
TRAIN_FRACTION = 0.8
MIN_ACCURACY = 0.90
MAX_GAP = 0.05
PROB_TOL = 1e-12
IDENTITY_TOL = 1e-9
INGEST_PER_CLASS = 1  # ingest: 3 records per pass
RUNS = 2  # train: `qdiag train --runs`


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark, smaller ones are for tests."""

    duration_s: float = 6.0  # every record is this long, sampled at RATE_HZ
    dataset_per_class: int = 6  # train and infer: the README's 18 records
    epochs: int = 5
    checkpoint_epochs: int = 5  # infer: the model its set-up trains
    tile: int = 50  # infer: the feature set repeated this often per batched call


@dataclass
class Pass:
    """One run of a workload's operations.

    `times_ns` holds the timings the summary needs; `out` holds what the
    operations produced, for `check`, and is dropped once checked.
    """

    wall_ns: int
    ops: int
    times_ns: dict[str, int]
    out: dict | None = None
    ref_s: float = 0.0  # reference-loop time around this pass (harness.reference_s)


def windows_per_record(duration_s: float) -> int:
    """Windows cut from one record after decimating RATE_HZ to TARGET_RATE_HZ."""
    n = round(duration_s * RATE_HZ)
    kept = -(-n // round(RATE_HZ / TARGET_RATE_HZ))
    return (kept - WINDOW) // (WINDOW - OVERLAP) + 1


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """`qdiag.cli.main(argv)` in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qdiag.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _csv_rows(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode("ascii").splitlines()]


class Checker:
    """Collects failed checks of one pass; each op counts at most once."""

    def __init__(self, workload: str):
        self.workload = workload
        self.failed_ops: set[str] = set()

    def expect(self, ok: bool, op: str, message: str) -> bool:
        if not ok:
            self.failed_ops.add(op)
            print(f"check failed [{self.workload}/{op}]: {message}", file=sys.stderr)
        return ok


def in_child(fn, *args) -> None:
    """`fn(*args)` in a forked child process, waited for.

    Set-ups build their inputs this way.  The signal arrays they allocate
    then never count towards this process's peak resident set, so
    `peak_rss_mb` covers the timed passes and not the set-up.
    """
    child = multiprocessing.get_context("fork").Process(target=fn, args=args)
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"{fn.__name__} failed in a child process, exit code {child.exitcode}")


def save_feature_set(path: str, per_class: int, seed: int, sizes: Sizes) -> None:
    """Feature CSV of seeded records, computed in memory without the CLI."""
    config = qdiag.data.SynthConfig(signals_per_class=per_class, duration_s=sizes.duration_s)
    dataset, _ = qdiag.data.signals_to_dataset(qdiag.data.synth_generate(config, seed))
    qdiag.data.save_features_csv(dataset, path)


def save_checkpoint(features_csv: str, model_json: str, seed: int, sizes: Sizes) -> None:
    """Train on the README protocol's feature set and save the checkpoint."""
    save_feature_set(features_csv, sizes.dataset_per_class, seed, sizes)
    dataset = qdiag.data.load_features_csv(features_csv)
    config = qdiag.hybrid.TrainConfig(epochs=sizes.checkpoint_epochs, num_runs=1, base_seed=seed)
    model, _ = qdiag.hybrid.train_run(qdiag.data.split(dataset, TRAIN_FRACTION, seed), config, seed)
    qdiag.hybrid.save_checkpoint(model, model_json)


class Ingest:
    """`qdiag synth` then `qdiag features`: signal text written, then parsed."""

    name = "ingest"

    def __init__(self, workdir: str, seed: int, sizes: Sizes):
        self.workdir, self.seed, self.sizes = workdir, seed, sizes
        self.records = NUM_CLASSES * INGEST_PER_CLASS
        self.samples = self.records * round(sizes.duration_s * RATE_HZ)
        self.windows = windows_per_record(sizes.duration_s)
        self.rows = self.records * self.windows
        self.ops = 2
        self.signals_csv = os.path.join(workdir, "signals.csv")
        self.features_csv = os.path.join(workdir, "features.csv")

    def setup(self) -> None:
        path = os.path.join(self.workdir, "expected.csv")
        in_child(save_feature_set, path, INGEST_PER_CLASS, self.seed, self.sizes)
        self.expected = _read(path)

    def iterate(self) -> Pass:
        t0 = perf_counter_ns()
        synth = call_cli([
            "synth", "--out", self.signals_csv, "--seed", str(self.seed),
            "--per-class", str(INGEST_PER_CLASS),
            "--duration", repr(self.sizes.duration_s),
        ])
        t1 = perf_counter_ns()
        features = call_cli(["features", "--in", self.signals_csv, "--out", self.features_csv])
        t2 = perf_counter_ns()
        return Pass(t2 - t0, self.ops, {"synth": t1 - t0, "features": t2 - t1},
                    {"synth": synth, "features": features})

    def check(self, p: Pass) -> int:
        c = Checker(self.name)
        rc, _, err = p.out["synth"]
        c.expect(rc == 0, "synth", f"rc {rc}: {err.strip()}")
        rc, out, err = p.out["features"]
        if not c.expect(rc == 0, "features", f"rc {rc}: {err.strip()}"):
            return len(c.failed_ops)
        c.expect("(0 skipped)" in out and not err, "features",
                 f"blocks skipped: {out.strip()} {err.strip()}")
        data = _read(self.features_csv)
        c.expect(data == self.expected, "features",
                 "feature CSV differs from the in-memory pipeline's")
        rows = _csv_rows(data)[1:]
        per_label = {}
        for row in rows:
            per_label[row[-1]] = per_label.get(row[-1], 0) + 1
        want = INGEST_PER_CLASS * self.windows
        c.expect(len(per_label) == NUM_CLASSES and set(per_label.values()) == {want},
                 "features", f"rows per label {per_label}, want {want} each")
        worst = 0.0
        for row in rows:
            mean, variance, rms = float(row[0]), float(row[1]), float(row[4])
            worst = max(worst, abs(rms * rms - (variance + mean * mean)) / max(rms * rms, 1e-300))
        c.expect(worst <= IDENTITY_TOL, "features",
                 f"rms^2 = variance + mean^2 off by {worst:.3e} relative")
        return len(c.failed_ops)

    def summary(self, passes: list[Pass]) -> dict:
        return {
            "synth_samples_per_s": (_median_rate(self.samples, passes, "synth"), "samples/s"),
            "features_samples_per_s": (_median_rate(self.samples, passes, "features"), "samples/s"),
        }


class Train:
    """`qdiag train --runs R` on the README protocol's 1386-row feature set."""

    name = "train"

    def __init__(self, workdir: str, seed: int, sizes: Sizes):
        self.workdir, self.seed, self.sizes = workdir, seed, sizes
        self.ops = 1
        self.out_dir = os.path.join(workdir, "run")
        self.features_csv = os.path.join(workdir, "features.csv")
        self.reference: dict[str, bytes] | None = None
        self.test_accuracy = math.nan  # set by each check that reads metrics.csv

    def setup(self) -> None:
        in_child(save_feature_set, self.features_csv, self.sizes.dataset_per_class,
                 self.seed, self.sizes)
        dataset = qdiag.data.load_features_csv(self.features_csv)
        split = qdiag.data.split(dataset, TRAIN_FRACTION, self.seed)
        self.train_rows = int(split.train_mask.sum())
        self.rows = self.train_rows * self.sizes.epochs * RUNS

    def iterate(self) -> Pass:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = perf_counter_ns()
        result = call_cli([
            "train", "--in", self.features_csv, "--out", self.out_dir,
            "--runs", str(RUNS), "--epochs", str(self.sizes.epochs),
            "--batch", "32", "--lr", "0.01", "--seed", str(self.seed),
            "--train-frac", repr(TRAIN_FRACTION),
        ])
        t1 = perf_counter_ns()
        return Pass(t1 - t0, self.ops, {"train": t1 - t0}, {"train": result})

    def check(self, p: Pass) -> int:
        c = Checker(self.name)
        rc, _, err = p.out["train"]
        if not c.expect(rc == 0, "train", f"rc {rc}: {err.strip()}"):
            return 1
        files = {name: _read(os.path.join(self.out_dir, name))
                 for name in sorted(os.listdir(self.out_dir))}
        want = {"metrics.csv", "confusion.csv", "model.json"} | {
            f"curves_seed{self.seed + r}.csv" for r in range(RUNS)}
        if not c.expect(set(files) == want, "train", f"output files {sorted(files)}"):
            return 1
        if self.reference is None:
            self.reference = files
        changed = [n for n in files if files[n] != self.reference[n]]
        c.expect(not changed, "train", f"bytes differ from the first pass: {changed}")

        metrics = {row[0]: row[1:] for row in _csv_rows(files["metrics.csv"])[1:]}
        train_acc, test_acc = float(metrics["mean"][0]), float(metrics["mean"][1])
        self.test_accuracy = test_acc
        c.expect(test_acc >= MIN_ACCURACY, "train", f"mean test accuracy {test_acc}")
        c.expect(train_acc - test_acc <= MAX_GAP, "train",
                 f"train-test gap {train_acc - test_acc:.4f}")
        # Per-run and mean losses; the curve files are covered by the byte
        # comparison (see README: their cells are numpy reprs on numpy 2).
        losses = [float(v) for name, row in metrics.items() if name != "std" for v in row[2:4]]
        c.expect(all(math.isfinite(v) for v in losses), "train", "non-finite loss")
        return len(c.failed_ops)

    def summary(self, passes: list[Pass]) -> dict:
        return {
            "train_samples_per_s": (_median_rate(self.rows, passes, "train"), "samples/s"),
            "test_accuracy": (self.test_accuracy, "share"),
        }


class Infer:
    """One checkpoint scored three ways: batched, row by row, and file to file."""

    name = "infer"

    def __init__(self, workdir: str, seed: int, sizes: Sizes):
        self.workdir, self.seed, self.sizes = workdir, seed, sizes
        self.features_csv = os.path.join(workdir, "features.csv")
        self.model_json = os.path.join(workdir, "model.json")
        self.predictions_csv = os.path.join(workdir, "predictions.csv")
        self.reference: bytes | None = None

    def setup(self) -> None:
        in_child(save_checkpoint, self.features_csv, self.model_json, self.seed, self.sizes)
        self.model = qdiag.hybrid.load_checkpoint(self.model_json)
        self.features = qdiag.data.load_features_csv(self.features_csv).features
        self.tiled = np.tile(self.features, (self.sizes.tile, 1))
        n = len(self.features)
        self.ops = 1 + n + 1
        self.rows = len(self.tiled) + n + n

    def iterate(self) -> Pass:
        forward_batch = qdiag.hybrid.hybrid_forward_batch
        forward = qdiag.hybrid.hybrid_forward
        model = self.model
        n = len(self.features)
        singles = np.empty((n, NUM_CLASSES))
        latency = np.empty(n, dtype=np.int64)
        t0 = perf_counter_ns()
        batched = forward_batch(model, self.tiled)
        t1 = perf_counter_ns()
        for i, row in enumerate(self.features):
            s = perf_counter_ns()
            singles[i] = forward(model, row)
            latency[i] = perf_counter_ns() - s
        t2 = perf_counter_ns()
        predict = call_cli([
            "predict", "--model", self.model_json, "--in", self.features_csv,
            "--out", self.predictions_csv,
        ])
        t3 = perf_counter_ns()
        return Pass(t3 - t0, self.ops,
                    {"batched": t1 - t0, "single": t2 - t1, "file": t3 - t2,
                     "row_p50": int(np.median(latency))},
                    {"batched": batched, "singles": singles, "predict": predict})

    def check(self, p: Pass) -> int:
        c = Checker(self.name)
        n = len(self.features)
        batched, singles = p.out["batched"], p.out["singles"]
        c.expect(batched.shape == (len(self.tiled), NUM_CLASSES)
                 and bool(np.all(np.isfinite(batched)))
                 and float(np.max(np.abs(batched.sum(axis=1) - 1.0))) <= PROB_TOL,
                 "batched", "probabilities not finite or rows not summing to 1")
        tiles = batched.reshape(self.sizes.tile, n, NUM_CLASSES)
        gap = np.max(np.abs(tiles - singles[None]), axis=(0, 2))
        bad = ~(np.isfinite(gap) & (gap <= PROB_TOL)
                & (np.abs(singles.sum(axis=1) - 1.0) <= PROB_TOL))
        c.expect(not bad.any(), "single",
                 f"{int(bad.sum())} single-row result(s) off their batched rows")
        single_failures = int(bad.sum())

        rc, _, err = p.out["predict"]
        if c.expect(rc == 0, "file", f"rc {rc}: {err.strip()}"):
            data = _read(self.predictions_csv)
            if self.reference is None:
                self.reference = data
            c.expect(data == self.reference, "file", "predictions differ from the first pass")
            rows = _csv_rows(data)[1:]
            accuracy = sum(row[0] == row[-1] for row in rows) / max(len(rows), 1)
            c.expect(len(rows) == n and accuracy >= MIN_ACCURACY, "file",
                     f"{len(rows)} prediction rows, accuracy {accuracy}")
        return len(c.failed_ops - {"single"}) + single_failures

    def summary(self, passes: list[Pass]) -> dict:
        return {
            "predict_rows_per_s": (_median_rate(len(self.tiled), passes, "batched"), "rows/s"),
            "predict_row_p50_us": (
                statistics.median(p.times_ns["row_p50"] for p in passes) * 1e-3, "us"),
            "predict_file_rows_per_s": (_median_rate(len(self.features), passes, "file"), "rows/s"),
        }


def _median_rate(work: int, passes: list[Pass], op: str) -> float:
    return statistics.median(work / (p.times_ns[op] * 1e-9) for p in passes)


WORKLOADS = {w.name: w for w in (Ingest, Train, Infer)}
