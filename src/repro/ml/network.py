"""The sequential MLP."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.activations import Activation, relu, sigmoid
from repro.ml.layers import Dense


class NeuralNetwork:
    """A feed-forward network of dense layers.

    The paper's predictor is ``NeuralNetwork.mlp(input_size, (12, 12, 6))``:
    ReLU hidden layers and a single sigmoid output unit.

    Every layer's parameters are packed, in layer order, into the one
    contiguous :attr:`flat_params` vector and their gradients into
    :attr:`flat_grads`; each layer's arrays are views of its slice (see
    :meth:`Dense.bind`).  An optimizer step is thus a handful of
    in-place operations on two vectors, however many layers there are.
    """

    def __init__(self, layers: Sequence[Dense]) -> None:
        if not layers:
            raise ValueError("network needs at least one layer")
        for upstream, downstream in zip(layers, list(layers)[1:]):
            if upstream.output_size != downstream.input_size:
                raise ValueError(
                    f"layer size mismatch: {upstream.output_size} -> "
                    f"{downstream.input_size}"
                )
        self.layers: List[Dense] = list(layers)
        self.flat_params = np.concatenate(
            [
                array.ravel()
                for layer in self.layers
                for array in (layer.weights, layer.biases)
            ]
        )
        self.flat_grads = np.zeros_like(self.flat_params)
        offset = 0
        for layer in self.layers:
            end = offset + layer.parameter_count
            layer.bind(self.flat_params[offset:end], self.flat_grads[offset:end])
            offset = end

    def __reduce__(self) -> tuple:
        # Rebuild through __init__ so the layers come back bound to one
        # fresh pair of flat vectors (numpy would unpickle every view as
        # an independent array).
        return (type(self), (self.layers,))

    @classmethod
    def mlp(
        cls,
        input_size: int,
        hidden_sizes: Sequence[int],
        output_size: int = 1,
        hidden_activation: Activation = relu,
        output_activation: Activation = sigmoid,
        rng: Optional[np.random.Generator] = None,
    ) -> "NeuralNetwork":
        """Build a standard MLP.

        Args:
            input_size: Feature dimension.
            hidden_sizes: Units per hidden layer, e.g. ``(12, 12, 6)``.
            output_size: Output units (1 for binary classification).
            hidden_activation: Hidden activation (paper: ReLU).
            output_activation: Output activation (paper: sigmoid).
            rng: Initialization randomness.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = [input_size, *hidden_sizes]
        layers = [
            Dense(a, b, activation=hidden_activation, rng=rng)
            for a, b in zip(sizes, sizes[1:])
        ]
        layers.append(
            Dense(sizes[-1], output_size, activation=output_activation, rng=rng)
        )
        return cls(layers)

    # -- inference -------------------------------------------------------------

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Full forward pass over a batch."""
        out = np.atleast_2d(np.asarray(x, dtype="float64"))
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Positive-class probabilities, shape ``(n,)``."""
        return self.forward(x, train=False)[:, 0]

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at a decision threshold."""
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        return (self.predict_proba(x) >= threshold).astype(int)

    # -- training support ----------------------------------------------------------

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate the loss gradient through every layer."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameter_count(self) -> int:
        """Total trainable scalars."""
        return self.flat_params.size

    def architecture(self) -> Tuple[int, ...]:
        """Layer widths, input first."""
        return (self.layers[0].input_size,) + tuple(
            layer.output_size for layer in self.layers
        )

    def clone_untrained(self, rng: Optional[np.random.Generator] = None) -> "NeuralNetwork":
        """A freshly initialized copy with the same architecture."""
        rng = rng if rng is not None else np.random.default_rng(0)
        layers = [
            Dense(
                layer.input_size,
                layer.output_size,
                activation=layer.activation,
                rng=rng,
            )
            for layer in self.layers
        ]
        return NeuralNetwork(layers)
