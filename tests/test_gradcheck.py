"""Tests for the gradient cross-check suite itself."""

import numpy as np
import pytest

from qdiag.data import NormalizerParams
from qdiag.gradcheck import (
    CheckResult,
    numeric_hybrid_gradients,
    run_gradient_checks,
)
from qdiag.hybrid import hybrid_gradients, model_parameters, new_hybrid_model


def test_all_checks_pass_on_a_healthy_build():
    results = run_gradient_checks(seed=0)
    assert len(results) == 4
    for result in results:
        assert result.passed, f"{result.name}: {result.worst} >= {result.tolerance}"


def test_checks_are_seeded():
    a = run_gradient_checks(seed=3)
    b = run_gradient_checks(seed=3)
    assert [r.worst for r in a] == [r.worst for r in b]


def test_corrupt_flag_trips_exactly_the_chain_check():
    results = run_gradient_checks(seed=0, corrupt=True)
    verdicts = {r.name: r.passed for r in results}
    failed = [name for name, ok in verdicts.items() if not ok]
    assert len(failed) == 1
    assert "hybrid" in failed[0]


def test_check_result_threshold_is_strict():
    assert CheckResult("x", 0.5, 1.0).passed
    assert not CheckResult("x", 1.0, 1.0).passed


def test_numeric_oracle_agrees_with_analytic_gradients():
    rng = np.random.default_rng(41)
    model = new_hybrid_model(NormalizerParams(np.zeros(5), np.ones(5)), seed=43)
    features = rng.uniform(size=(3, 5))
    labels = rng.integers(0, 3, size=3)
    analytic, _ = hybrid_gradients(model, features, labels)
    numeric = numeric_hybrid_gradients(model, features, labels, step=1e-4)
    for a, n in zip(analytic, numeric):
        assert a.shape == n.shape
        assert np.max(np.abs(a - n)) < 1e-4


def test_numeric_oracle_restores_the_model_parameters():
    rng = np.random.default_rng(47)
    model = new_hybrid_model(NormalizerParams(np.zeros(5), np.ones(5)), seed=53)
    before = [p.copy() for p in model_parameters(model)]
    features = rng.uniform(size=(3, 5))
    labels = rng.integers(0, 3, size=3)
    numeric_hybrid_gradients(model, features, labels)
    for p, b in zip(model_parameters(model), before):
        assert p.tobytes() == b.tobytes()
    # A loss that raises on its first call still leaves the model as it was.
    with pytest.raises(ValueError):
        numeric_hybrid_gradients(model, features[:, :4], labels)
    for p, b in zip(model_parameters(model), before):
        assert p.tobytes() == b.tobytes()
