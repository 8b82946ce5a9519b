"""Loss functions for network training."""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np


class Loss(abc.ABC):
    """A scalar loss with a gradient w.r.t. predictions."""

    @abc.abstractmethod
    def value(self, predicted: np.ndarray, target: np.ndarray) -> float:
        """Mean loss over the batch."""

    @abc.abstractmethod
    def gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        """d(loss)/d(predicted), same shape as ``predicted``."""

    def value_and_gradient(
        self, predicted: np.ndarray, target: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """:meth:`value` and :meth:`gradient` of one batch together."""
        return self.value(predicted, target), self.gradient(predicted, target)


class BinaryCrossEntropy(Loss):
    """Mean binary cross-entropy for sigmoid outputs.

    Args:
        epsilon: Probability clamp to keep logs finite.
    """

    def __init__(self, epsilon: float = 1e-9) -> None:
        if not 0 < epsilon < 0.5:
            raise ValueError(f"epsilon must be in (0, 0.5), got {epsilon}")
        self.epsilon = epsilon

    def _clamp(self, predicted: np.ndarray) -> np.ndarray:
        return np.clip(predicted, self.epsilon, 1.0 - self.epsilon)

    def value(self, predicted: np.ndarray, target: np.ndarray) -> float:
        return self.value_and_gradient(predicted, target)[0]

    def gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(predicted, target)[1]

    def value_and_gradient(
        self, predicted: np.ndarray, target: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        # One clamp serves both (the training loop needs both per step).
        p = self._clamp(np.asarray(predicted, dtype="float64"))
        y = np.asarray(target, dtype="float64")
        value = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
        return value, (p - y) / (p * (1.0 - p)) / p.size


class MeanSquaredError(Loss):
    """Mean squared error (regression heads, ablations)."""

    def value(self, predicted: np.ndarray, target: np.ndarray) -> float:
        diff = np.asarray(predicted, dtype="float64") - np.asarray(
            target, dtype="float64"
        )
        return float(np.mean(diff**2))

    def gradient(self, predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
        p = np.asarray(predicted, dtype="float64")
        y = np.asarray(target, dtype="float64")
        return 2.0 * (p - y) / p.size
