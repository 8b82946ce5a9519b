"""Activation functions with their derivatives.

Each activation is a small value object exposing ``forward`` and its
elementwise derivative.  Every activation here has a derivative that
is a function of its own output, so layers cache the output of
``forward`` and backpropagate through ``output_derivative`` without
evaluating the activation a second time; ``derivative`` takes the
pre-activation input instead.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np


@dataclasses.dataclass(frozen=True)
class Activation:
    """An elementwise activation function and its derivative."""

    name: str
    forward: Callable[[np.ndarray], np.ndarray]
    #: The derivative at ``x`` as a function of ``forward(x)``.
    output_derivative: Callable[[np.ndarray], np.ndarray]

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """The derivative at the pre-activation input ``x``."""
        return self.output_derivative(self.forward(x))

    def __repr__(self) -> str:
        return f"Activation({self.name})"


def _relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_derivative(y: np.ndarray) -> np.ndarray:
    return (y > 0.0).astype(y.dtype)


def _sigmoid_forward(x: np.ndarray) -> np.ndarray:
    # Numerically stable piecewise form, 1 / (1 + e^-x) for x >= 0 and
    # e^x / (1 + e^x) below, both written with e = exp(-|x|) so neither
    # branch overflows (NaN falls through to the second and stays NaN).
    e = np.exp(-np.abs(x))
    denominator = 1.0 + e
    return np.where(x >= 0, 1.0 / denominator, e / denominator)


def _sigmoid_derivative(s: np.ndarray) -> np.ndarray:
    return s * (1.0 - s)


def _tanh_forward(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_derivative(t: np.ndarray) -> np.ndarray:
    return 1.0 - t * t


def _identity_forward(x: np.ndarray) -> np.ndarray:
    return x


def _identity_derivative(y: np.ndarray) -> np.ndarray:
    return np.ones_like(y)


#: Rectified linear unit — the paper's hidden-layer activation.
relu = Activation("relu", _relu_forward, _relu_derivative)

#: Logistic sigmoid — the paper's output activation.
sigmoid = Activation("sigmoid", _sigmoid_forward, _sigmoid_derivative)

#: Hyperbolic tangent (available for ablations).
tanh = Activation("tanh", _tanh_forward, _tanh_derivative)

#: Identity (linear output, used for regression heads).
identity = Activation("identity", _identity_forward, _identity_derivative)


def by_name(name: str) -> Activation:
    """Look up an activation by name.

    Raises:
        KeyError: for unknown names.
    """
    registry = {a.name: a for a in (relu, sigmoid, tanh, identity)}
    return registry[name]
