"""Network layers.

Only dense (fully connected) layers are needed for the paper's MLP.
Each layer caches its forward input and output so ``backward`` can
compute parameter gradients without re-running the forward pass.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.ml.activations import Activation, identity


class Dense:
    """A fully connected layer: ``out = activation(x @ W + b)``.

    The parameters live in one flat vector (weights row-major, then
    biases) and the gradients in a second one of the same layout;
    :attr:`weights`, :attr:`biases` and the gradient arrays are
    reshaped views into them.  A :class:`~repro.ml.network.NeuralNetwork`
    rebinds every layer onto slices of its own two vectors (see
    :meth:`bind`), so optimizers update the whole model with a few
    whole-vector operations.

    Args:
        input_size: Number of input features.
        output_size: Number of units.
        activation: Elementwise activation (identity by default).
        rng: Initialization randomness; He-scaled normal weights.

    Attributes:
        weights: ``(input_size, output_size)`` parameter matrix.
            Assigning to it copies into the bound storage.
        biases: ``(output_size,)`` parameter vector (same rule).
    """

    def __init__(
        self,
        input_size: int,
        output_size: int,
        activation: Optional[Activation] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if input_size < 1 or output_size < 1:
            raise ValueError(
                f"layer sizes must be positive, got {input_size} -> {output_size}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.activation = activation if activation is not None else identity
        self._shape = (input_size, output_size)
        scale = np.sqrt(2.0 / input_size)  # He initialization
        weights = rng.standard_normal(self._shape) * scale
        self.bind(
            np.concatenate([weights.ravel(), np.zeros(output_size)]),
            np.zeros(self.parameter_count),
        )
        self._cached_input: Optional[np.ndarray] = None
        self._cached_output: Optional[np.ndarray] = None

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Back this layer's arrays by flat ``params`` / ``grads`` vectors.

        Both must be contiguous float64 vectors of
        :attr:`parameter_count` elements; ``params`` already holds the
        parameter values to use (nothing is copied).
        """
        size = self.parameter_count
        if params.shape != (size,) or grads.shape != (size,):
            raise ValueError(f"layer needs flat vectors of {size} elements")
        split = self._shape[0] * self._shape[1]
        self._weights = params[:split].reshape(self._shape)
        self._biases = params[split:]
        #: Parameter gradients populated by backward().
        self.grad_weights = grads[:split].reshape(self._shape)
        self.grad_biases = grads[split:]

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @weights.setter
    def weights(self, value: np.ndarray) -> None:
        self._assign(self._weights, value)

    @property
    def biases(self) -> np.ndarray:
        return self._biases

    @biases.setter
    def biases(self, value: np.ndarray) -> None:
        self._assign(self._biases, value)

    @staticmethod
    def _assign(view: np.ndarray, value: np.ndarray) -> None:
        # Copy into the bound storage rather than rebinding the name: a
        # replaced array would silently detach from the flat vectors.
        value = np.asarray(value, dtype="float64")
        if value.shape != view.shape:
            raise ValueError(f"expected shape {view.shape}, got {value.shape}")
        view[...] = value

    @property
    def input_size(self) -> int:
        return self._shape[0]

    @property
    def output_size(self) -> int:
        return self._shape[1]

    @property
    def parameter_count(self) -> int:
        """Trainable scalars (weights and biases)."""
        return (self._shape[0] + 1) * self._shape[1]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Apply the layer to a batch of shape ``(n, input_size)``.

        Args:
            x: Input batch.
            train: Cache intermediates for a subsequent backward pass.
        """
        x = np.asarray(x, dtype="float64")
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.input_size:
            raise ValueError(
                f"expected {self.input_size} features, got {x.shape[1]}"
            )
        pre = x @ self._weights
        pre += self._biases
        out = self.activation.forward(pre)
        if train:
            self._cached_input = x
            self._cached_output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate a gradient of shape ``(n, output_size)``.

        Populates :attr:`grad_weights` / :attr:`grad_biases` and
        returns the gradient w.r.t. the layer input.

        Raises:
            RuntimeError: if called before a ``forward(train=True)``.
        """
        if self._cached_input is None or self._cached_output is None:
            raise RuntimeError("backward called before forward(train=True)")
        grad_pre = self.activation.output_derivative(self._cached_output)
        grad_pre *= grad_output
        # Gradients land in the bound buffers (their shapes are fixed by
        # the layer, not the batch), saving two allocations per layer
        # per minibatch step.
        np.matmul(self._cached_input.T, grad_pre, out=self.grad_weights)
        grad_pre.sum(axis=0, out=self.grad_biases)
        return grad_pre @ self._weights.T

    # -- parameter access -------------------------------------------------------

    def parameters(self) -> Dict[str, np.ndarray]:
        """Named parameter arrays (views of the flat parameter vector)."""
        return {"weights": self._weights, "biases": self._biases}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Named gradient arrays matching :meth:`parameters`."""
        return {"weights": self.grad_weights, "biases": self.grad_biases}
