"""Tiny runs of every workload: metric names and units, and broken outputs."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import qdiag.cli
import qdiag.hybrid

import harness
import tracing
from workloads import WORKLOADS, Sizes, in_child

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    SPEC = json.load(fh)

TINY = Sizes(duration_s=0.5, dataset_per_class=6, epochs=40, checkpoint_epochs=40, tile=2)


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)


def run(name, tmp_path, trace=False):
    return harness.run_workload(name, seed=3, seconds=0.01, trace=trace,
                                work_root=str(tmp_path), sizes=TINY)


def units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_lists_the_workloads_and_the_per_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER_METRICS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric(name, tmp_path):
    result = run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["summary"]["error_rate"]["value"] == 0.0
    assert os.listdir(tmp_path) == []  # the work directory is removed

    traced = run(name, tmp_path, trace=True)
    assert traced["correct"] and traced["absent"] == []
    assert units(traced["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    shares = [traced["metrics"][f"{layer}.self_share"]["value"] for layer in tracing.LAYERS]
    untraced = traced["metrics"]["untraced_share"]["value"]
    assert sum(shares) + untraced == pytest.approx(1.0)
    assert traced["metrics"]["cli.main.self_ms"]["value"] > 0


def test_train_trace_puts_the_circuit_first(tmp_path):
    metrics = run("train", tmp_path, trace=True)["metrics"]
    shares = {layer: metrics[f"{layer}.self_share"]["value"] for layer in tracing.LAYERS}
    assert max(shares, key=shares.get) == "pqc"
    assert metrics["pqc.expectations_batch.calls"]["value"] > 6 * metrics[
        "pqc.jacobian_batch.calls"]["value"]


def _shifted_rms(extract):
    def broken(segment):
        fv = extract(segment)
        return dataclasses.replace(fv, rms=fv.rms * (1 + 1e-6))
    return broken


def _frozen_adam(params, grads, state):
    return params, state


def _nudged(forward):
    def broken(model, features):
        return forward(model, features) + np.array([1e-9, -1e-9, 0.0])
    return broken


@pytest.mark.parametrize("name, module, attr, breaker", [
    ("ingest", qdiag.cli, "extract_features", _shifted_rms),
    ("train", qdiag.hybrid, "adam_step", lambda original: _frozen_adam),
    ("infer", qdiag.hybrid, "hybrid_forward", _nudged),
])
def test_broken_output_fails_the_check(name, module, attr, breaker, tmp_path, monkeypatch):
    monkeypatch.setattr(module, attr, breaker(getattr(module, attr)))
    result = run(name, tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["summary"]["error_rate"]["value"] > 0


def _allocate(mb):
    assert np.ones(mb * 2**20 // 8).sum() > 0


def _fail():
    raise ValueError("set-up failed")


def test_child_set_up_stays_out_of_the_peak_and_reports_failure():
    before = harness.peak_rss_mb()
    in_child(_allocate, 256)
    assert harness.peak_rss_mb() < before + 64
    with pytest.raises(RuntimeError, match="_fail failed in a child process"):
        in_child(_fail)


def _rc_one(argv):
    return 1


def _raises(argv):
    raise OSError("disk full")


@pytest.mark.parametrize("name, main", [("train", _rc_one), ("ingest", _raises)])
def test_failing_program_is_counted_not_raised(name, main, tmp_path, monkeypatch):
    monkeypatch.setattr(qdiag.cli, "main", main)
    result = run(name, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["summary"]["error_rate"]["value"] == 1.0
    assert {"setup_s", "peak_rss_mb"} <= set(result["metrics"])
    traced = run(name, tmp_path, trace=True)
    assert not traced["correct"] and traced["summary"]["error_rate"]["value"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "ingest", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
