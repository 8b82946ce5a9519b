"""Optimizers and the training loop on separable problems."""

import numpy as np
import pytest

from repro.ml.activations import Activation, sigmoid
from repro.ml.losses import Loss
from repro.ml.metrics import accuracy
from repro.ml.network import NeuralNetwork
from repro.ml.optimizers import SGD, Adam, Optimizer
from repro.ml.train import (
    FeatureScaler,
    TrainConfig,
    three_way_split,
    train_classifier,
)


def _blobs(n=200, seed=0):
    """Two well-separated Gaussian blobs."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((n // 2, 2)) + np.array([-2.0, -2.0])
    x1 = rng.standard_normal((n // 2, 2)) + np.array([2.0, 2.0])
    x = np.vstack([x0, x1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return x, y


def _xor(n=400, seed=0):
    """The XOR problem — requires a hidden layer."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(n, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
    return x, y


class TestOptimizers:
    @pytest.mark.parametrize("optimizer", [SGD(0.1), SGD(0.05, momentum=0.9), Adam()])
    def test_blobs_converge(self, optimizer):
        x, y = _blobs()
        net = NeuralNetwork.mlp(2, (4,), rng=np.random.default_rng(1))
        result = train_classifier(
            net, x, y, config=TrainConfig(epochs=40), optimizer=optimizer,
            rng=np.random.default_rng(2),
        )
        assert accuracy(y, result.predict(x)) > 0.95

    def test_loss_decreases(self):
        x, y = _blobs()
        net = NeuralNetwork.mlp(2, (4,), rng=np.random.default_rng(1))
        result = train_classifier(net, x, y, rng=np.random.default_rng(2))
        assert result.train_losses[-1] < result.train_losses[0]

    def test_bad_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            SGD(0.0)
        with pytest.raises(ValueError):
            Adam(learning_rate=-1.0)

    def test_bad_momentum_rejected(self):
        with pytest.raises(ValueError):
            SGD(0.1, momentum=1.0)


class TestTraining:
    def test_xor_needs_and_uses_hidden_layer(self):
        x, y = _xor()
        net = NeuralNetwork.mlp(2, (12, 6), rng=np.random.default_rng(1))
        result = train_classifier(
            net, x, y, config=TrainConfig(epochs=150), rng=np.random.default_rng(2)
        )
        assert accuracy(y, result.predict(x)) > 0.9

    def test_validation_losses_tracked(self):
        x, y = _blobs()
        net = NeuralNetwork.mlp(2, (4,), rng=np.random.default_rng(1))
        result = train_classifier(
            net, x[:150], y[:150], rng=np.random.default_rng(2),
            x_val=x[150:], y_val=y[150:],
        )
        assert len(result.validation_losses) == TrainConfig().epochs

    def test_paper_epoch_default(self):
        assert TrainConfig().epochs == 50

    def test_length_mismatch_rejected(self):
        net = NeuralNetwork.mlp(2, (4,))
        with pytest.raises(ValueError):
            train_classifier(net, np.ones((10, 2)), np.ones(5))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestFeatureScaler:
    def test_standardizes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 3.0, size=(500, 4))
        scaler = FeatureScaler.fit(x)
        z = scaler.transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_safe(self):
        x = np.ones((10, 2))
        z = FeatureScaler.fit(x).transform(x)
        assert np.isfinite(z).all()


class TestThreeWaySplit:
    def test_ratio(self):
        x = np.arange(500.0).reshape(-1, 1)
        y = np.tile([0, 1], 250)
        rng = np.random.default_rng(0)
        (xt, yt), (xs, ys), (xv, yv) = three_way_split(x, y, rng)
        assert len(xt) == pytest.approx(300, abs=4)
        assert len(xs) == pytest.approx(100, abs=4)
        assert len(xv) == pytest.approx(100, abs=4)
        assert len(xt) + len(xs) + len(xv) == 500

    def test_stratified(self):
        x = np.arange(500.0).reshape(-1, 1)
        y = np.array([0] * 400 + [1] * 100)
        rng = np.random.default_rng(0)
        (_, yt), (_, ys), (_, yv) = three_way_split(x, y, rng)
        for part in (yt, ys, yv):
            assert 0.1 < part.mean() < 0.3

    def test_disjoint_and_complete(self):
        x = np.arange(100.0).reshape(-1, 1)
        y = np.tile([0, 1], 50)
        rng = np.random.default_rng(0)
        parts = three_way_split(x, y, rng)
        seen = np.concatenate([p[0].ravel() for p in parts])
        assert sorted(seen) == sorted(x.ravel())

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            three_way_split(np.ones((10, 1)), np.ones(10), np.random.default_rng(0), ratio=(1, 0, 1))


# -- reference copies of the per-parameter update path ------------------------


def _masked_sigmoid(x):
    out = np.empty_like(x, dtype="float64")
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


_REFERENCE_SIGMOID = Activation("sigmoid", _masked_sigmoid, lambda s: s * (1.0 - s))


class _PerParameterAdam(Optimizer):
    def __init__(self, learning_rate=0.01, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m, self._v, self._t = {}, {}, 0

    def step(self, network):
        self._t += 1
        for index, layer in enumerate(network.layers):
            grads = layer.gradients()
            for name, param in layer.parameters().items():
                grad = grads[name]
                key = (index, name)
                m = self._m.get(key, np.zeros_like(param))
                v = self._v.get(key, np.zeros_like(param))
                m = self.beta1 * m + (1.0 - self.beta1) * grad
                v = self.beta2 * v + (1.0 - self.beta2) * grad**2
                self._m[key], self._v[key] = m, v
                m_hat = m / (1.0 - self.beta1**self._t)
                v_hat = v / (1.0 - self.beta2**self._t)
                param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


class _PerParameterSGD(Optimizer):
    def __init__(self, learning_rate, momentum=0.0):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity = {}

    def step(self, network):
        for index, layer in enumerate(network.layers):
            grads = layer.gradients()
            for name, param in layer.parameters().items():
                grad = grads[name]
                if self.momentum > 0.0:
                    velocity = self._velocity.get((index, name), np.zeros_like(param))
                    velocity = self.momentum * velocity - self.learning_rate * grad
                    self._velocity[(index, name)] = velocity
                    param += velocity
                else:
                    param -= self.learning_rate * grad


class _TwoClampCrossEntropy(Loss):
    def value(self, predicted, target):
        p = np.clip(predicted, 1e-9, 1.0 - 1e-9)
        y = np.asarray(target, dtype="float64")
        return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

    def gradient(self, predicted, target):
        p = np.clip(predicted, 1e-9, 1.0 - 1e-9)
        y = np.asarray(target, dtype="float64")
        return (p - y) / (p * (1.0 - p)) / p.size


class TestFlatUpdateEquivalence:
    """The flat-vector step is bit-identical to the per-parameter one."""

    @pytest.mark.parametrize(
        "make_flat, make_reference",
        [
            (Adam, _PerParameterAdam),
            (lambda: SGD(0.05, momentum=0.9), lambda: _PerParameterSGD(0.05, 0.9)),
            (lambda: SGD(0.1), lambda: _PerParameterSGD(0.1)),
        ],
        ids=["adam", "sgd-momentum", "sgd"],
    )
    def test_training_bit_identical(self, make_flat, make_reference):
        x, y = _blobs(n=240, seed=3)
        # Overlapping classes keep gradients alive for every epoch.
        x = x * 0.4
        results = []
        for optimizer, output, loss in (
            (make_flat(), sigmoid, None),
            (make_reference(), _REFERENCE_SIGMOID, _TwoClampCrossEntropy()),
        ):
            net = NeuralNetwork.mlp(
                2, (12, 12, 6), output_activation=output, rng=np.random.default_rng(4)
            )
            results.append(
                train_classifier(
                    net, x[:180], y[:180], config=TrainConfig(epochs=30),
                    optimizer=optimizer, loss=loss, rng=np.random.default_rng(5),
                    x_val=x[180:], y_val=y[180:],
                )
            )
        flat, reference = results
        assert flat.train_losses == reference.train_losses
        assert flat.validation_losses == reference.validation_losses
        for a, b in zip(flat.network.layers, reference.network.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.biases, b.biases)

    def test_sigmoid_matches_masked_form(self):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -800.0, 800.0]
        x = np.concatenate([np.linspace(-40.0, 40.0, 2001), edges])
        assert np.array_equal(sigmoid.forward(x), _masked_sigmoid(x), equal_nan=True)
