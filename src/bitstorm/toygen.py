"""Seeded desk-scale models and datasets, so nothing depends on downloads.

Two generators ship:

* a 12-layer toy CNN (conv, conv, maxpool, dropout, conv, conv, maxpool,
  dropout, flatten, dense, dropout, dense+softmax) for layer-wise work;
* a PReLU CNN whose micro-op expansion contains Add/Sub/Mul/ReLU/Abs
  injection sites for operation-wise work.

The synthetic dataset gives each class a fixed random sign-pattern mean
plus small noise, and the final classifier weights are synthesized as a
nearest-mean discriminant over the network's own representation of those
means, so the fault-free accuracy beats chance by construction.

All randomness is drawn from the package's own Philox implementation, and
the discriminant synthesis uses explicitly ordered scalar float64 sums, so
a fixed seed yields byte-identical artifacts on every platform.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .engine import Conv2D, Dense, Dropout, Flatten, MaxPool2D, Model, PReLU, Softmax, forward_batch
from .faults import KEY_SALT, check_u64, philox_block, uniforms
from .model_io import Dataset, save_config, save_dataset, save_model

DEFAULT_SEED = 7

_GEN_SITE = np.uint64(0x544F59)  # tags toy-generation streams apart from campaign streams


def _uniforms(seed: int, tag: int, count: int) -> np.ndarray:
    """`count` uniform float64 values in [0, 1) for one named weight tensor."""
    counters = np.zeros((count, 4), dtype=np.uint64)
    counters[:, 0] = np.arange(count, dtype=np.uint64)
    counters[:, 1] = np.uint64(tag)
    counters[:, 3] = _GEN_SITE
    return uniforms(philox_block(counters, np.uint64(seed), KEY_SALT)[:, 0])


class _WeightSource:
    def __init__(self, seed: int):
        self.seed = check_u64(seed, "toy seed")
        self.tag = 0

    def uniform(self, shape, low: float, high: float) -> np.ndarray:
        self.tag += 1
        u = _uniforms(self.seed, self.tag, int(np.prod(shape)))
        return (low + (high - low) * u).astype(np.float32).reshape(shape)

    def conv_kernel(self, kh, kw, cin, cout) -> np.ndarray:
        limit = 1.0 / math.sqrt(kh * kw * cin)
        return self.uniform((kh, kw, cin, cout), -limit, limit)

    def signs(self, shape) -> np.ndarray:
        self.tag += 1
        u = _uniforms(self.seed, self.tag, int(np.prod(shape)))
        return np.where(u < 0.5, -1.0, 1.0).astype(np.float32).reshape(shape)


def _make_dataset(source: _WeightSource, sample_shape, class_count: int, per_class: int, noise: float):
    means = source.signs((class_count, *sample_shape))
    samples = np.empty((class_count * per_class, *sample_shape), dtype=np.float32)
    labels = np.empty(class_count * per_class, dtype=np.uint32)
    for c in range(class_count):
        jitter = source.uniform((per_class, *sample_shape), -noise, noise)
        samples[c * per_class : (c + 1) * per_class] = means[c] + jitter
        labels[c * per_class : (c + 1) * per_class] = c
    return means, Dataset(samples=samples, labels=labels, class_count=class_count)


def _discriminant(head: Model, means: np.ndarray, logit_span: float):
    """Nearest-mean classifier weights over the head's representation.

    score_c(f) = f . r_c - |r_c|^2 / 2, scaled so logits over the class
    means span roughly [-logit_span, logit_span].  All reductions are
    sequential scalar float64 sums for platform independence.
    """
    reps = forward_batch(head, means).astype(np.float64)
    k, dim = reps.shape
    half_norms = []
    for c in range(k):
        total = 0.0
        for j in range(dim):
            total += reps[c, j] * reps[c, j]
        half_norms.append(total / 2.0)
    peak = 0.0
    for a in range(k):
        for c in range(k):
            dot = 0.0
            for j in range(dim):
                dot += reps[a, j] * reps[c, j]
            peak = max(peak, abs(dot - half_norms[c]))
    scale = logit_span / peak if peak > 0 else 1.0
    weights = np.empty((dim, k), dtype=np.float32)
    bias = np.empty(k, dtype=np.float32)
    for c in range(k):
        for j in range(dim):
            weights[j, c] = np.float32(scale * reps[c, j])
        bias[c] = np.float32(-scale * half_norms[c])
    return weights, bias


def build_toy_cnn(seed: int = DEFAULT_SEED):
    """The 12-layer toy CNN plus its labeled synthetic dataset."""
    source = _WeightSource(seed)
    layers = [
        Conv2D(kernel=source.conv_kernel(3, 3, 1, 4), bias=source.uniform((4,), -0.05, 0.05), name="conv1"),
        Conv2D(kernel=source.conv_kernel(3, 3, 4, 8), bias=source.uniform((8,), -0.05, 0.05), name="conv2"),
        MaxPool2D(window=(2, 2), stride=(2, 2), name="pool1"),
        Dropout(rate=0.25, name="drop1"),
        Conv2D(kernel=source.conv_kernel(3, 3, 8, 6), bias=source.uniform((6,), -0.05, 0.05),
               padding="same", name="conv3"),
        Conv2D(kernel=source.conv_kernel(3, 3, 6, 6), bias=source.uniform((6,), -0.05, 0.05),
               padding="same", name="conv4"),
        MaxPool2D(window=(2, 2), stride=(2, 2), name="pool2"),
        Dropout(rate=0.25, name="drop2"),
        Flatten(name="flatten"),
        Dense(weights=source.uniform((96, 32), -1.0 / math.sqrt(96), 1.0 / math.sqrt(96)),
              bias=source.uniform((32,), -0.05, 0.05), name="dense1"),
        Dropout(rate=0.25, name="drop3"),
    ]
    means, dataset = _make_dataset(source, (20, 20, 1), class_count=10, per_class=32, noise=0.12)
    head = Model(input_shape=(20, 20, 1), layers=list(layers))
    weights, bias = _discriminant(head, means, logit_span=6.0)
    layers.append(Dense(weights=weights, bias=bias, activation="softmax", name="dense_softmax"))
    return Model(input_shape=(20, 20, 1), layers=layers), dataset


def build_toy_prelu_cnn(seed: int = DEFAULT_SEED):
    """A PReLU CNN whose expansion exposes Add/Sub/Mul/ReLU/Abs sites."""
    source = _WeightSource((check_u64(seed, "toy seed") + 1) % 2**64)
    layers = [
        Conv2D(kernel=source.conv_kernel(3, 3, 1, 4), bias=source.uniform((4,), -0.05, 0.05), name="conv1"),
        PReLU(alpha=source.uniform((4,), 0.1, 0.3), name="prelu1"),
        MaxPool2D(window=(2, 2), stride=(2, 2), name="pool1"),
        Conv2D(kernel=source.conv_kernel(3, 3, 4, 6), bias=source.uniform((6,), -0.05, 0.05), name="conv2"),
        PReLU(alpha=source.uniform((6,), 0.1, 0.3), name="prelu2"),
        Flatten(name="flatten"),
    ]
    means, dataset = _make_dataset(source, (12, 12, 1), class_count=6, per_class=10, noise=0.12)
    head = Model(input_shape=(12, 12, 1), layers=list(layers))
    weights, bias = _discriminant(head, means, logit_span=6.0)
    layers.append(Dense(weights=weights, bias=bias, name="dense1"))
    layers.append(Softmax(name="softmax"))
    return Model(input_shape=(12, 12, 1), layers=layers), dataset


def _example_config(variant: str, seed: int) -> dict:
    doc = {
        "model": "model.json",
        "dataset": "dataset",
        "fault": "bit_flip_random",
        "probabilities": [0.0, 0.25, 0.5, 0.75, 1.0],
        "trials": 100,
        "metric": "golden_run",
        "seed": seed,
        "out_dir": "results",
    }
    if variant == "cnn":
        doc.update(mode="layer", target="all")
    else:
        doc.update(mode="op", target=["Add", "Sub", "Mul"])
    return doc


def generate(out_dir, seed: int = DEFAULT_SEED, variant: str = "cnn") -> dict:
    """Write model.json/weights.bin, dataset/, and an example config.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if variant == "cnn":
        model, dataset = build_toy_cnn(seed)
    elif variant == "prelu-cnn":
        model, dataset = build_toy_prelu_cnn(seed)
    else:
        raise ValueError(f"unknown toy variant {variant!r}")
    save_model(model, out_dir / "model.json")
    save_dataset(dataset, out_dir / "dataset")
    save_config(_example_config(variant, seed), out_dir / "config.json")
    return {
        "model": out_dir / "model.json",
        "dataset": out_dir / "dataset",
        "config": out_dir / "config.json",
        "layers": len(model.layers),
        "samples": len(dataset),
    }
