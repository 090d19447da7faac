"""Numerical cross-checks of every analytic gradient in the package.

Each check compares an analytic gradient against a central finite
difference computed from forward passes only, so the two routes share no
code.  The `corrupt` flag deliberately biases one analytic value; it
exists to prove the checker can fail, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NormalizerParams
from .hybrid import (
    HybridModel,
    hybrid_forward_batch,
    hybrid_gradients,
    model_parameters,
    new_hybrid_model,
)
from .nn import cross_entropy, init_mlp, mlp_backward_batch, mlp_forward_batch
from .pqc import (
    RZ_ANGLE,
    pqc_gradient_finite_difference,
    pqc_gradient_parameter_shift,
    random_pqc_params,
)

PQC_TOL = 1e-6
RZ_NULL_TOL = 1e-12
MLP_TOL = 1e-5
HYBRID_TOL = 1e-4
# Random draws per check: circuits, networks and hybrid models.
PQC_DRAWS = 20
MLP_DRAWS = 5
HYBRID_DRAWS = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst < self.tolerance


def _check_pqc(rng: np.random.Generator) -> tuple[float, float]:
    """Max shift-vs-differences gap and max Rz-angle gradient magnitude."""
    worst_gap, worst_rz = 0.0, 0.0
    for _ in range(PQC_DRAWS):
        n = int(rng.integers(1, 6))
        params = random_pqc_params(n, rng)
        x = rng.uniform(0.0, 1.0, size=n)
        shift = pqc_gradient_parameter_shift(x, params)
        fd = pqc_gradient_finite_difference(x, params, step=1e-4)
        worst_gap = max(worst_gap, float(np.max(np.abs(shift - fd))))
        # The null-gradient claim is made for the exact rule only; the
        # differences route sits on an eps/step rounding floor just above
        # 1e-12 and is already bounded through the gap check.
        worst_rz = max(worst_rz, float(np.max(np.abs(shift[:, :, RZ_ANGLE]))))
    return worst_gap, worst_rz


def _central_differences(loss, arrays, step: float) -> list[np.ndarray]:
    """Central-difference gradient of `loss()` for every scalar of `arrays`.

    Each scalar is perturbed in place, so `loss` must read the arrays
    themselves; it is restored before the next one, error or not.
    """
    numeric = []
    for arr in arrays:
        grad = np.empty_like(arr)
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            try:
                arr[idx] = keep + step
                plus = loss()
                arr[idx] = keep - step
                minus = loss()
            finally:
                arr[idx] = keep
            grad[idx] = (plus - minus) / (2.0 * step)
        numeric.append(grad)
    return numeric


def _check_mlp(rng: np.random.Generator) -> float:
    """Max relative error of analytic network gradients vs differences.

    The denominator is floored so finite-difference noise on near-zero
    components does not masquerade as a real mismatch.
    """
    worst = 0.0
    for _ in range(MLP_DRAWS):
        model = init_mlp((5, 10, 3), seed=int(rng.integers(2**31 - 1)))
        batch = rng.normal(0.0, 1.0, size=(3, 5))
        labels = rng.integers(0, 3, size=3)
        _, cache = mlp_forward_batch(model, batch)
        grads = mlp_backward_batch(model, cache, labels)
        arrays = [batch] + [a for l in model.layers for a in (l.weights, l.biases)]
        analytic = [grads.inputs] + [
            a for w, b in zip(grads.weights, grads.biases) for a in (w, b)
        ]
        numeric = _central_differences(
            lambda: cross_entropy(mlp_forward_batch(model, batch)[0], labels),
            arrays,
            step=1e-5,
        )
        for grad, num in zip(analytic, numeric):
            rel = np.abs(grad - num) / np.maximum(np.abs(num), 1e-4)
            worst = max(worst, float(rel.max()))
    return worst


def numeric_hybrid_gradients(
    model: HybridModel, features, labels, step: float = 1e-4
) -> list[np.ndarray]:
    """Central-difference gradient over every trainable scalar, built from
    forward passes alone.  The model's arrays are perturbed in place and
    left as they were found."""
    return _central_differences(
        lambda: cross_entropy(hybrid_forward_batch(model, features), labels),
        model_parameters(model),
        step,
    )


def _check_hybrid(rng: np.random.Generator, corrupt: bool = False) -> float:
    worst = 0.0
    for d in range(HYBRID_DRAWS):
        bounds = np.sort(rng.normal(0.0, 2.0, size=(2, 5)), axis=0)
        normalizer = NormalizerParams(bounds[0], bounds[1] + 0.5)
        model = new_hybrid_model(normalizer, seed=int(rng.integers(2**31 - 1)))
        features = rng.uniform(bounds[0] - 0.2, bounds[1] + 0.7, size=(4, 5))
        labels = rng.integers(0, 3, size=4)
        analytic, _ = hybrid_gradients(model, features, labels)
        if corrupt and d == 0:
            analytic[0] = analytic[0] + 1e-3
        numeric = numeric_hybrid_gradients(model, features, labels)
        for a, n in zip(analytic, numeric):
            worst = max(worst, float(np.max(np.abs(a - n))))
    return worst


def run_gradient_checks(seed: int = 0, corrupt: bool = False) -> list[CheckResult]:
    """The full suite; every result carries its own tolerance."""
    rng = np.random.default_rng(seed)
    pqc_gap, rz_worst = _check_pqc(rng)
    mlp_worst = _check_mlp(rng)
    hybrid_worst = _check_hybrid(rng, corrupt=corrupt)
    return [
        CheckResult("circuit: parameter-shift vs central differences", pqc_gap, PQC_TOL),
        CheckResult("circuit: rz-angle gradient magnitude", rz_worst, RZ_NULL_TOL),
        CheckResult("network: analytic vs central differences", mlp_worst, MLP_TOL),
        CheckResult("hybrid: chain rule vs full finite differences", hybrid_worst, HYBRID_TOL),
    ]
