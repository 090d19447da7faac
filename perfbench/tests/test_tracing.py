"""Span arithmetic and the install/restore contract of tracing.Tracer."""

import pytest
import qdiag.cli
import qdiag.hybrid
import qdiag.pqc

import tracing


def test_self_time_subtracts_covered_child_time():
    spans = [
        ["a", 0, 100, -1],
        ["b", 10, 40, 0],
        ["c", 20, 30, 1],
        ["d", 50, 70, 0],
        ["e", 200, 210, -1],
    ]
    assert tracing.self_times_ns(spans) == [100 - 30 - 20, 30 - 10, 10, 20, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0, 100, -1], ["b", 10, 50, 0], ["c", 40, 120, 0]]
    assert tracing.self_times_ns(spans)[0] == 100 - 90


def test_inclusive_time_counts_nested_repeats_once():
    spans = [["x", 0, 100, -1], ["y", 10, 90, 0], ["x", 20, 30, 1], ["x", 200, 250, -1]]
    assert tracing.inclusive_ns(spans, "x") == 150


def test_wrapper_keeps_results_and_exceptions_and_restores():
    original = qdiag.pqc.pqc_expectations_batch
    model_forward = qdiag.hybrid.hybrid_forward
    tracer = tracing.Tracer({"pqc": ("pqc_expectations_batch",), "hybrid": ("hybrid_forward",)})
    params = qdiag.pqc.PqcParams(5, [[0.1, 0.2, 0.3]] * 5)
    with tracer:
        assert qdiag.pqc.pqc_expectations_batch is not original
        assert qdiag.hybrid.pqc_expectations_batch is qdiag.pqc.pqc_expectations_batch
        assert qdiag.hybrid.hybrid_forward is not model_forward
        traced = qdiag.hybrid.pqc_expectations_batch([[0.5] * 5, [0.25] * 5], params)
        with pytest.raises(ValueError, match="lie in"):
            qdiag.pqc.pqc_expectations_batch([[2.0] * 5], params)
    assert (traced == original([[0.5] * 5, [0.25] * 5], params)).all()
    assert qdiag.pqc.pqc_expectations_batch is original
    assert qdiag.hybrid.pqc_expectations_batch is original
    assert qdiag.hybrid.hybrid_forward is model_forward
    assert [s[0] for s in tracer.spans] == ["pqc.expectations_batch"] * 2
    assert all(s[1] <= s[2] and s[3] == -1 for s in tracer.spans)
    assert tracer.counts[("pqc.expectations_batch", "rows")] == 2  # failed call not counted


def test_nested_calls_become_child_spans():
    params = qdiag.pqc.PqcParams(5, [[0.1, 0.2, 0.3]] * 5)
    tracer = tracing.Tracer({"pqc": ("pqc_expectations_batch", "pqc_jacobian_batch")})
    with tracer:
        qdiag.pqc.pqc_jacobian_batch([[0.5] * 5], params)
    names = [s[0] for s in tracer.spans]
    assert names == ["pqc.jacobian_batch"] + ["pqc.expectations_batch"] * 6
    assert [s[3] for s in tracer.spans] == [-1] + [0] * 6


def test_absent_name_is_reported_not_fatal():
    tracer = tracing.Tracer({"cli": ("main", "no_such_function")})
    with tracer:
        pass
    assert tracer.absent == ["cli.no_such_function"]
    metrics = tracing.per_layer_metrics(tracer, 1, 1.0)
    assert metrics["cli.main.self_ms"] == {"value": 0.0, "unit": "ms"}
