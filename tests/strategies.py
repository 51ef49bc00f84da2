"""Hypothesis strategies shared by the tests: small random sequential models."""

import numpy as np
from hypothesis import strategies as st

from bitstorm.engine import Conv2D, Dense, Dropout, Flatten, MaxPool2D, Model, PReLU, ReLU, Softmax
from bitstorm.toygen import _WeightSource

ACTIVATIONS = ("relu", "prelu-scalar", "prelu-channel", "prelu-full")


def activation(source, kind, shape):
    """A ReLU, or a PReLU whose alpha is a scalar, one per channel, or one per element of `shape`."""
    if kind == "relu":
        return ReLU()
    alpha_shape = {"scalar": (), "channel": shape[-1:], "full": shape}[kind.split("-")[1]]
    return PReLU(alpha=source.uniform(alpha_shape, -0.5, 0.5))


def _dense(source, n_in, n_out, activation=None):
    return Dense(weights=source.uniform((n_in, n_out), -0.5, 0.5), bias=source.uniform((n_out,), -0.1, 0.1),
                 activation=activation)


@st.composite
def random_models(draw, max_samples=5, max_side=9):
    """(model, samples): a small sequential model and 1 to `max_samples` inputs for it.

    On an (h, w, c) input, h and w in 3..`max_side`, come one to five
    spatial layers: Conv2D with valid or same padding, strides 1-3 and
    kernels 1-4 (an even kernel pads unevenly), MaxPool2D with windows and
    strides 1-3 that may differ, ReLU, PReLU and Dropout.  A layer that no
    longer fits the map is left out.  Then Flatten, maybe a hidden Dense
    followed by a ReLU, PReLU or Dropout, and a last Dense of 1-4 outputs
    with a fused softmax, a Softmax layer or neither.
    """
    source = _WeightSource(draw(st.integers(0, 2**32 - 1)))
    input_shape = (draw(st.integers(3, max_side)), draw(st.integers(3, max_side)), draw(st.integers(1, 3)))
    shape = input_shape
    layers = []
    kinds = st.sampled_from(["conv", "conv", "pool", "activation", "dropout"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
        h, w, c = shape
        if kind == "conv":
            kh, kw, cout = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
            stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
            padding = draw(st.sampled_from(["valid", "same"]))
            if padding == "valid" and (h < kh or w < kw):
                continue
            layer = Conv2D(kernel=source.uniform((kh, kw, c, cout), -0.6, 0.6),
                           bias=source.uniform((cout,), -0.2, 0.2), stride=stride, padding=padding)
        elif kind == "pool":
            window = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
            stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
            if h < window[0] or w < window[1]:
                continue
            layer = MaxPool2D(window=window, stride=stride)
        elif kind == "activation":
            layer = activation(source, draw(st.sampled_from(ACTIVATIONS)), shape)
        else:
            layer = Dropout(rate=0.5)
        layers.append(layer)
        shape = layer.out_shape(shape)
    layers.append(Flatten())
    width = int(np.prod(shape))
    if draw(st.booleans()):
        hidden = draw(st.integers(1, 6))
        layers.append(_dense(source, width, hidden))
        width = hidden
        after = draw(st.sampled_from(["none", "dropout", *ACTIVATIONS]))
        if after == "dropout":
            layers.append(Dropout(rate=0.5))
        elif after != "none":
            layers.append(activation(source, after, (width,)))
    classes = draw(st.integers(1, 4))
    ending = draw(st.sampled_from(["none", "fused", "layer"]))
    layers.append(_dense(source, width, classes, "softmax" if ending == "fused" else None))
    if ending == "layer":
        layers.append(Softmax())
    model = Model(input_shape=input_shape, layers=layers)
    return model, source.uniform((draw(st.integers(1, max_samples)), *input_shape), -3.0, 3.0)
