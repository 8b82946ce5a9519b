"""Gradient-descent optimizers."""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.ml.network import NeuralNetwork


class Optimizer(abc.ABC):
    """Updates network parameters in place from layer gradients."""

    @abc.abstractmethod
    def step(self, network: NeuralNetwork) -> None:
        """Apply one update using the network's flat gradient vector."""


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum.

    Args:
        learning_rate: Step size.
        momentum: Velocity decay in [0, 1); 0 disables momentum.
    """

    def __init__(self, learning_rate: float = 0.05, momentum: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None

    def step(self, network: NeuralNetwork) -> None:
        params, grad = network.flat_params, network.flat_grads
        if self._scratch is None:
            self._scratch = np.empty_like(params)
            self._velocity = np.zeros_like(params)
        # velocity = momentum * velocity - lr * grad; param += velocity
        # (or param -= lr * grad), one whole-vector operation at a time.
        step = np.multiply(grad, self.learning_rate, out=self._scratch)
        if self.momentum > 0.0:
            velocity = self._velocity
            velocity *= self.momentum
            velocity -= step
            params += velocity
        else:
            params -= step


class Adam(Optimizer):
    """The Adam optimizer (Kingma & Ba, 2015).

    The moment estimates are flat vectors matching the network's
    :attr:`~repro.ml.network.NeuralNetwork.flat_params`; a step is a
    fixed sequence of in-place vector operations that keeps the
    textbook operation order, so it is bit-identical to the
    per-parameter-array formulation.

    Args:
        learning_rate: Step size.
        beta1: First-moment decay.
        beta2: Second-moment decay.
        epsilon: Denominator stabilizer.
    """

    def __init__(
        self,
        learning_rate: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        self._t = 0

    def step(self, network: NeuralNetwork) -> None:
        params, grad = network.flat_params, network.flat_grads
        if self._m is None:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
            self._scratch = np.empty((2, params.size))
        m, v = self._m, self._v
        a, b = self._scratch
        self._t += 1
        # m = beta1 * m + (1 - beta1) * grad
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=a)
        # v = beta2 * v + (1 - beta2) * grad**2
        v *= self.beta2
        np.square(grad, out=a)
        a *= 1.0 - self.beta2
        v += a
        # param -= lr * m_hat / (sqrt(v_hat) + epsilon)
        np.divide(m, 1.0 - self.beta1**self._t, out=a)
        a *= self.learning_rate
        np.divide(v, 1.0 - self.beta2**self._t, out=b)
        np.sqrt(b, out=b)
        b += self.epsilon
        a /= b
        params -= a
