"""Spans around qdiag's public functions, recorded from outside the package.

`Tracer` replaces each target function, in every loaded `qdiag` module
namespace that holds it, by a wrapper that records one span per call:
name, start, end and the index of the enclosing span.  Calls nested
inside a traced call therefore become its child spans, including calls a
module makes through its own globals (`pqc_jacobian_batch` calling
`pqc_expectations_batch`).  Uninstalling puts every original back.

No file under `src/` changes: the wrappers exist only while a `Tracer` is
installed, and spans stay in memory until `write_spans` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time

# Public functions on the measured paths, by module (= layer).  Small leaf
# helpers (elu, softmax, qubit_unitaries, ...) are left out on purpose:
# their cost stays in the self time of the function that calls them, and a
# span per call would cost more than they do.
TARGETS = {
    "data": (
        "synth_generate",
        "save_signals_csv",
        "load_signals_csv",
        "downsample",
        "segment_signal",
        "extract_features",
        "dataset_from_features",
        "signals_to_dataset",
        "save_features_csv",
        "load_features_csv",
        "fit_normalizer",
        "apply_normalizer",
        "split",
    ),
    "pqc": ("pqc_expectations_batch", "pqc_jacobian_batch", "random_pqc_params"),
    "nn": ("init_mlp", "mlp_forward_batch", "mlp_backward_batch", "adam_init", "adam_step"),
    "hybrid": (
        "new_hybrid_model",
        "hybrid_forward_batch",
        "hybrid_forward",
        "model_parameters",
        "with_parameters",
        "hybrid_gradients",
        "evaluate",
        "train_run",
        "multi_seed_report",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "cli": ("main",),
}
LAYERS = tuple(TARGETS)


def span_name(layer: str, func: str) -> str:
    """`pqc.jacobian_batch` for `pqc_jacobian_batch`; other names keep theirs."""
    return f"{layer}.{func.removeprefix(layer + '_') if layer == 'pqc' else func}"


def _rows(args, kwargs) -> int:
    batch = args[0] if args else kwargs["batch"]
    return len(batch)


def _file_bytes(args, kwargs) -> int:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# Work counters recorded at the span's boundary, read from its arguments
# (rows in) or its effect (bytes written), once the call has returned.
COUNTERS = {
    "pqc.expectations_batch": ("rows", _rows),
    "data.save_signals_csv": ("bytes", _file_bytes),
}


class Tracer:
    """Install with `with tracer:`; spans accumulate across installs."""

    def __init__(self, targets: dict[str, tuple[str, ...]] = TARGETS):
        self.targets = targets
        # One list per span: [name, start_ns, end_ns, parent_index].
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key = (name, counter[0])
                counts[key] = counts.get(key, 0) + counter[1](args, kwargs)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "qdiag" or n.startswith("qdiag."))
        ]
        absent = []
        for layer, funcs in self.targets.items():
            module = importlib.import_module(f"qdiag.{layer}")
            for func in funcs:
                name = span_name(layer, func)
                original = getattr(module, func, None)
                if not callable(original):
                    absent.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patched.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        self.absent = absent
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()
        self._stack.clear()


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered, reach = 0, start
        for k in sorted(kids, key=lambda k: spans[k][1]):
            lo, hi = max(spans[k][1], reach), min(spans[k][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def inclusive_ns(spans: list[list], name: str) -> int:
    """Wall time under spans of `name`, counting nested repeats once."""
    total, names = 0, [s[0] for s in spans]
    for name_i, start, end, parent in spans:
        if name_i != name:
            continue
        p = parent
        while p >= 0 and names[p] != name:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


# Per-layer metrics, each `<span>.<stat>`; the stat fixes unit and meaning.
STAT_UNITS = {
    "calls": "count",
    "rows": "count",
    "bytes": "bytes",
    "self_us": "us",
    "self_ms": "ms",
    "self_s": "s",
    "p99_us": "us",
    "incl_share": "share",
    "self_share": "share",
}
_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}

PER_LAYER_METRICS = (
    "pqc.jacobian_batch.calls",
    "pqc.jacobian_batch.self_us",
    "pqc.jacobian_batch.incl_share",
    "pqc.expectations_batch.calls",
    "pqc.expectations_batch.rows",
    "pqc.expectations_batch.self_us",
    "nn.mlp_forward_batch.self_us",
    "nn.mlp_backward_batch.self_us",
    "nn.adam_step.self_us",
    "hybrid.with_parameters.self_us",
    "hybrid.hybrid_gradients.calls",
    "hybrid.hybrid_gradients.self_us",
    "hybrid.train_run.self_ms",
    "hybrid.evaluate.self_us",
    "hybrid.hybrid_forward.self_us",
    "hybrid.hybrid_forward.p99_us",
    "hybrid.hybrid_forward_batch.self_us",
    "hybrid.load_checkpoint.self_ms",
    "data.apply_normalizer.self_us",
    "data.synth_generate.self_s",
    "data.save_signals_csv.self_s",
    "data.save_signals_csv.bytes",
    "data.load_signals_csv.self_s",
    "data.downsample.self_us",
    "data.segment_signal.self_us",
    "data.extract_features.calls",
    "data.extract_features.self_us",
    "data.save_features_csv.self_ms",
    "data.load_features_csv.self_ms",
    "cli.main.self_ms",
) + tuple(f"{layer}.self_share" for layer in LAYERS) + ("untraced_share", "trace_overhead")


def per_layer_metrics(tracer: Tracer, traced_wall_ns: int, overhead: float) -> dict:
    """Every name in PER_LAYER_METRICS, as {"value", "unit"}.

    Counts and times of a function that was never called read 0.  Shares
    are of `traced_wall_ns`, the summed wall time of the traced operations.
    """
    spans = tracer.spans
    selfs = self_times_ns(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    durations: dict[str, list[int]] = {}
    for (name, start, end, _), s in zip(spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + s
        durations.setdefault(name, []).append(end - start)
    layer_ns = {layer: 0 for layer in LAYERS}
    for name, s in self_ns.items():
        layer_ns[name.split(".", 1)[0]] += s

    out = {}
    for metric in PER_LAYER_METRICS:
        if metric == "untraced_share":
            value, unit = 1.0 - sum(layer_ns.values()) / traced_wall_ns, "share"
        elif metric == "trace_overhead":
            value, unit = overhead, "ratio"
        else:
            span, stat = metric.rsplit(".", 1)
            unit = STAT_UNITS[stat]
            n = calls.get(span, 0)
            if stat == "self_share":
                value = layer_ns[span] / traced_wall_ns
            elif stat == "incl_share":
                value = inclusive_ns(spans, span) / traced_wall_ns
            elif stat == "calls":
                value = n
            elif stat in ("rows", "bytes"):
                value = tracer.counts.get((span, stat), 0)
            elif stat == "p99_us":
                value = _quantile(durations[span], 0.99) * 1e-3 if n else 0.0
            else:
                value = self_ns.get(span, 0) / n * _SCALE[unit] if n else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def write_spans(spans: list[list], path) -> None:
    """One CSV row per span: index, name, start_ns, end_ns, parent index."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,name,start_ns,end_ns,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start},{end},{parent}\n")
