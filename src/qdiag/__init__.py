"""Hybrid quantum-classical classifier for bearing vibration signals.

The package stacks a dense statevector simulator, an angle encoder, a
trainable per-qubit rotation circuit, and a small softmax network into one
jointly trained pipeline, plus the signal-processing front end and a CLI.
Each name is imported from the module that defines it.
"""

__version__ = "0.1.0"
