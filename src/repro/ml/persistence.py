"""Model persistence: save/load trained classifiers.

An operational CMF predictor is trained once on historical windows and
then deployed against live telemetry; that only works if the trained
model (weights, architecture, activations, feature scaler) can be
written to disk and restored bit-for-bit.  Models are stored as numpy
``.npz`` archives with a small JSON header — no pickling, so archives
are portable and safe to load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.ml.activations import by_name
from repro.ml.layers import Dense
from repro.ml.network import NeuralNetwork
from repro.ml.train import FeatureScaler, TrainResult

PathLike = Union[str, Path]

#: Format version written into every archive.
FORMAT_VERSION = 1


def save_model(result: TrainResult, path: PathLike) -> Path:
    """Write a trained classifier to a ``.npz`` archive.

    Returns:
        The path written.
    """
    out = Path(path)
    network = result.network
    header = {
        "format_version": FORMAT_VERSION,
        "layers": [
            {
                "input_size": layer.input_size,
                "output_size": layer.output_size,
                "activation": layer.activation.name,
            }
            for layer in network.layers
        ],
        "has_scaler": result.scaler is not None,
        "train_losses": result.train_losses,
        "validation_losses": result.validation_losses,
    }
    arrays = {"header": np.array(json.dumps(header))}
    for index, layer in enumerate(network.layers):
        arrays[f"weights_{index}"] = layer.weights
        arrays[f"biases_{index}"] = layer.biases
    if result.scaler is not None:
        arrays["scaler_mean"] = result.scaler.mean
        arrays["scaler_std"] = result.scaler.std
    np.savez(out, **arrays)
    # np.savez appends .npz when missing; normalize the reported path.
    return out if out.suffix == ".npz" else out.with_suffix(out.suffix + ".npz")


def load_model(path: PathLike) -> TrainResult:
    """Restore a classifier saved by :func:`save_model`.

    Raises:
        ValueError: on a missing/incompatible header.
    """
    with np.load(Path(path), allow_pickle=False) as archive:
        if "header" not in archive:
            raise ValueError(f"{path} is not a saved model (no header)")
        header = json.loads(str(archive["header"]))
        if header.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported model format {header.get('format_version')}"
            )
        layers = []
        for index, spec in enumerate(header["layers"]):
            layer = Dense(
                spec["input_size"],
                spec["output_size"],
                activation=by_name(spec["activation"]),
            )
            layer.weights = archive[f"weights_{index}"]
            layer.biases = archive[f"biases_{index}"]
            layers.append(layer)
        scaler = None
        if header["has_scaler"]:
            scaler = FeatureScaler(
                mean=archive["scaler_mean"].copy(),
                std=archive["scaler_std"].copy(),
            )
    return TrainResult(
        network=NeuralNetwork(layers),
        scaler=scaler,
        train_losses=list(header["train_losses"]),
        validation_losses=list(header["validation_losses"]),
    )
