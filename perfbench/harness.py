"""Runs one workload: set-up, warm-up, timed passes, checks, metrics.

With tracing off every timed pass calls the original functions and the
end-to-end metrics come from those passes.  With tracing on, passes
alternate between untraced and traced; the traced ones give the per-layer
metrics, and the ratio of their median times, each pass divided by its
reference time, is the tracing overhead.

Between passes and between set-ups a fixed reference time is measured
(`reference_s`).  On a shared machine the speed of the whole host drifts
by tens of percent over minutes; the same drift stretches the reference
time, so throughput per reference time (`rows_per_ref`) stays steady
where rows per second does not.  Set-up time is scaled the same way and
reported in seconds at a fixed reference time, NOMINAL_REF_S
(`setup_s`).  The raw figures are reported beside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import traceback
from time import perf_counter

import numpy as np
import qdiag

import tracing
from workloads import INGEST_PER_CLASS, RUNS, WORKLOADS, Pass, Sizes

# setup_s is the median of at least SETUPS set-ups that together take at
# least SETUP_MIN_S; a short set-up (ingest's is about 0.13 s) is repeated
# more often, since its median over few repeats spreads widely.
SETUPS, SETUP_MIN_S = 5, 2.0
NOMINAL_REF_S = 0.008  # reference_s() on the VM of README.md's figures
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


_REF_RNG = np.random.default_rng(0)
_REF_X, _REF_W = _REF_RNG.random((32, 5)), _REF_RNG.random((10, 5))
_REF_U = _REF_RNG.random((5, 2, 2)) + 0j


def _small_loop() -> float:
    t0 = perf_counter()
    for _ in range(100):
        z = _REF_X @ _REF_W.T + 1.0
        z = np.where(z > 0.0, z, np.expm1(z))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        e / e.sum(axis=1, keepdims=True)
        np.einsum("qij,bqj->bqi", _REF_U, np.stack([_REF_X, _REF_X], axis=-1) + 0j)
    return perf_counter() - t0


def _bulk_loop() -> float:
    t0 = perf_counter()
    a = _REF_RNG.standard_normal(200_000)
    (np.sin(a * 3.0) + a).sum()
    return perf_counter() - t0


def reference_s() -> float:
    """Reference time: geometric mean of two fixed loops' median times, in s.

    The small-array loop is Python-call bound like training and scoring;
    the bulk loop streams long arrays like signal generation and set-up.
    Their geometric mean followed the host's speed on every workload
    better than either alone (README.md, Noise).  The loops use no qdiag
    code, so no change to the package moves them; only the speed of the
    machine does.
    """
    small = statistics.median(_small_loop() for _ in range(5))
    bulk = statistics.median(_bulk_loop() for _ in range(5))
    return math.sqrt(small * bulk)


def _run_pass(workload, tally: dict, tracer=None) -> Pass | None:
    """One checked pass; an exception fails every op of the pass."""
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            p = workload.iterate()
    except Exception:
        traceback.print_exc()
        tally["attempted"] += workload.ops
        tally["failed"] += workload.ops
        return None
    tally["attempted"] += p.ops
    tally["failed"] += workload.check(p)
    p.out = None
    return p


def _set_up(workload) -> tuple[float, float]:
    """Set the workload up at least SETUPS times and for SETUP_MIN_S.

    Returns the median set-up time scaled to NOMINAL_REF_S (each set-up's
    wall time divided by the reference time read on either side of it),
    and the median raw wall time, both in seconds.
    """
    walls: list[float] = []
    scaled: list[float] = []
    ref_before = reference_s()
    while len(walls) < SETUPS or sum(walls) < SETUP_MIN_S:
        t0 = perf_counter()
        workload.setup()
        walls.append(perf_counter() - t0)
        ref_after = reference_s()
        scaled.append(walls[-1] * NOMINAL_REF_S * 2 / (ref_before + ref_after))
        ref_before = ref_after
    return statistics.median(scaled), statistics.median(walls)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_root: str, sizes: Sizes = Sizes()) -> dict:
    """Measure workload `name` for `seconds` after set-up and one warm-up pass.

    Failed operations are counted, never raised: if no pass completes, the
    result still carries the tally, with the metrics that need a completed
    pass left out.
    """
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        workload = WORKLOADS[name](workdir, seed, sizes)
        setup_s, setup_wall_s = _set_up(workload)

        tally = {"attempted": 0, "failed": 0}
        _run_pass(workload, tally)  # warm-up: checked, not timed
        tracer = tracing.Tracer() if trace else None
        plain: list[Pass] = []
        traced: list[Pass] = []
        tries = {False: 0, True: 0}  # passes started, untraced and traced
        ref_before = reference_s()
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or not tries[False] or (trace and not tries[True]):
            use_tracer = trace and tries[True] < tries[False]
            tries[use_tracer] += 1
            p = _run_pass(workload, tally, tracer if use_tracer else None)
            ref_after = reference_s()
            if p is not None:
                p.ref_s = (ref_before + ref_after) / 2
                (traced if use_tracer else plain).append(p)
            ref_before = ref_after

        summary = {"setup_wall_s": (setup_wall_s, "s")}
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        if plain:
            summary.update(workload.summary(plain))
            summary["rows_per_s"] = (
                statistics.median(workload.rows / (p.wall_ns * 1e-9) for p in plain), "rows/s")
            summary["reference_ms"] = (statistics.median(p.ref_s for p in plain) * 1e3, "ms")
            metrics["rows_per_ref"] = {
                "value": statistics.median(
                    workload.rows * p.ref_s / (p.wall_ns * 1e-9) for p in plain),
                "unit": "rows/ref",
            }
        summary["error_rate"] = (tally["failed"] / tally["attempted"], "failed/attempted")
        if trace:
            metrics = {}
            if plain and traced:
                overhead = (statistics.median(p.wall_ns * 1e-9 / p.ref_s for p in traced)
                            / statistics.median(p.wall_ns * 1e-9 / p.ref_s for p in plain))
                metrics = tracing.per_layer_metrics(
                    tracer, sum(p.wall_ns for p in traced), overhead)
        return {
            "correct": tally["failed"] == 0,
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "metrics": metrics,
            "summary": {k: {"value": v, "unit": u} for k, (v, u) in summary.items()},
            "passes": {"timed": len(plain), "traced": len(traced)},
            "absent": tracer.absent if trace else [],
            "spans": tracer.spans if trace else [],
            "fingerprint": fingerprint(name, seed, seconds, sizes, workload),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest(package_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _blas() -> object:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None


def fingerprint(name: str, seed: int, seconds: float, sizes: Sizes, workload) -> dict:
    package_dir = os.path.dirname(os.path.abspath(qdiag.__file__))
    root = os.path.dirname(os.path.dirname(package_dir))
    inputs = {k: getattr(workload, k) for k in ("records", "samples", "train_rows", "rows")
              if hasattr(workload, k)}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "sizes": {**vars(sizes), "ingest_per_class": INGEST_PER_CLASS, "runs": RUNS},
        "inputs": inputs,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(package_dir),
        "machine": platform.machine(),
    }
