"""Hybrid quantum-classical classifier for bearing vibration signals.

The package stacks a dense statevector simulator, an angle encoder, a
trainable per-qubit rotation circuit, and a small softmax network into one
jointly trained pipeline, plus the signal-processing front end and a CLI.
"""

from .data import (
    Dataset,
    FeatureVector,
    NormalizerParams,
    RawSignal,
    Segment,
    SynthConfig,
    apply_normalizer,
    downsample,
    extract_features,
    fit_normalizer,
    load_features_csv,
    load_signals_csv,
    save_features_csv,
    save_signals_csv,
    segment_signal,
    signals_to_dataset,
    split,
    synth_generate,
)
from .encoding import EncodedInput, angle_encode, encode_as_ry_rotations
from .gradcheck import run_gradient_checks
from .hybrid import (
    HybridModel,
    RunMetrics,
    SummaryReport,
    TrainConfig,
    evaluate,
    hybrid_forward,
    hybrid_forward_batch,
    hybrid_gradients,
    load_checkpoint,
    multi_seed_report,
    new_hybrid_model,
    save_checkpoint,
    train_run,
)
from .nn import MlpModel, adam_init, adam_step, init_mlp
from .pqc import (
    PqcParams,
    pqc_forward,
    pqc_gradient_finite_difference,
    pqc_gradient_parameter_shift,
    random_pqc_params,
)
from .sim import (
    QuantumState,
    apply_cnot,
    apply_single_qubit_gate,
    expectation_z,
    gate_cnot,
    gate_h,
    gate_rx,
    gate_ry,
    gate_rz,
    new_zero_state,
    probabilities,
)

__version__ = "0.1.0"
