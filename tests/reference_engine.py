"""Independent scalar-loop reference for the vectorized engine.

Everything here is computed one element at a time with numpy float32
scalars, following the same documented accumulation orders as the engine
(bias first, kernel row-major with input channel fastest; dense features
ascending).  IEEE-754 multiply/add/subtract are exact operations, so those
layers must agree with the engine bit for bit.  The softmax exponential
goes through math.exp (float64 libm) instead of the engine's float32
np.exp, so softmax outputs are compared within a small tolerance plus
argmax identity rather than bitwise.
"""

import math

import numpy as np

F = np.float32


def conv2d_ref(x, kernel, bias, stride=(1, 1), padding="valid"):
    """Bias, then each (ki, kj, cin) product in that order; OPEN_NAN where two NaNs meet."""
    kh, kw, cin, cout = kernel.shape
    sh, sw = stride
    h, w, _ = x.shape
    if padding == "same":
        oh = -(-h // sh)
        ow = -(-w // sw)
        pad_h = max((oh - 1) * sh + kh - h, 0)
        pad_w = max((ow - 1) * sw + kw - w, 0)
        xp = np.zeros((h + pad_h, w + pad_w, cin), dtype=F)
        xp[pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w, :] = x
    else:
        oh = (h - kh) // sh + 1
        ow = (w - kw) // sw + 1
        xp = x
    out = np.empty((oh, ow, cout), dtype=F)
    with np.errstate(all="ignore"):
        for oy in range(oh):
            for ox in range(ow):
                for oc in range(cout):
                    acc = F(bias[oc])
                    for ki in range(kh):
                        for kj in range(kw):
                            for ci in range(cin):
                                a, b = F(xp[oy * sh + ki, ox * sw + kj, ci]), F(kernel[ki, kj, ci, oc])
                                term = _arith(a * b, a, b)
                                acc = _arith(acc + term, acc, term)
                    out[oy, ox, oc] = acc
    return out


def maxpool_ref(x, window=(2, 2), stride=(2, 2)):
    ph, pw = window
    sh, sw = stride
    h, w, c = x.shape
    oh = (h - ph) // sh + 1
    ow = (w - pw) // sw + 1
    out = np.empty((oh, ow, c), dtype=F)
    for oy in range(oh):
        for ox in range(ow):
            for ch in range(c):
                values = [
                    x[oy * sh + wi, ox * sw + wj, ch] for wi in range(ph) for wj in range(pw)
                ]
                if any(math.isnan(v) for v in values):
                    out[oy, ox, ch] = F("nan")
                else:
                    out[oy, ox, ch] = max(values)
    return out


def dense_ref(x, weights, bias):
    """Bias, then each feature's product in ascending order; OPEN_NAN where two NaNs meet."""
    n_in, n_out = weights.shape
    out = np.empty(n_out, dtype=F)
    with np.errstate(all="ignore"):
        for o in range(n_out):
            acc = F(bias[o])
            for i in range(n_in):
                a, b = F(x[i]), F(weights[i, o])
                term = _arith(a * b, a, b)
                acc = _arith(acc + term, acc, term)
            out[o] = acc
    return out


def relu_ref(x):
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for i, v in enumerate(flat):
        if math.isnan(v):
            out[i] = v
        elif v > 0:
            out[i] = v
        else:
            out[i] = F(0.0)
    return out.reshape(x.shape)


#: The result of an arithmetic op whose operands are both NaN.  IEEE 754
#: leaves open which payload survives, and numpy's loops pick by the
#: element's position in the array, so the oracle does not predict it.
OPEN_NAN = np.array([0x7FC00000], dtype=np.uint32).view(F)[0]


def _arith(result, a, b):
    return OPEN_NAN if math.isnan(a) and math.isnan(b) else result


def prelu_ref(x, alpha, replace=None):
    """relu(x) + alpha * (0.5 * (x - |x|)) as six ops: relu, abs, sub, half, alpha, add.

    `replace` maps an op's position in that list to an array of x's shape
    whose elements stand in for the op's outputs, as a fault would.
    """
    alpha = np.broadcast_to(np.asarray(alpha, dtype=F), x.shape).reshape(-1)
    subs = {i: np.asarray(r, dtype=F).reshape(-1) for i, r in (replace or {}).items()}
    flat_x = x.reshape(-1)
    out = np.empty_like(flat_x)
    for k in range(flat_x.size):

        def op(i, value):
            return subs[i][k] if i in subs else value

        v, a = F(flat_x[k]), alpha[k]
        with np.errstate(all="ignore"):
            pos = op(0, v if (v > 0 or math.isnan(v)) else F(0.0))
            mag = op(1, F(abs(v)))
            neg = op(2, _arith(v - mag, v, mag))
            neg = op(3, F(0.5) * neg)
            neg = op(4, _arith(a * neg, a, neg))
            out[k] = op(5, _arith(pos + neg, pos, neg))
    return out.reshape(x.shape)


def softmax_ref(x):
    """float64 libm exponentials rounded to float32; independent of np.exp."""
    m = max(float(v) for v in x)
    e = np.array([F(math.exp(float(v) - m)) for v in x], dtype=F)
    total = F(e[0])
    for i in range(1, len(e)):
        total = total + F(e[i])
    return np.array([F(v) / total for v in e], dtype=F)


def flatten_ref(x):
    return np.array([v for v in x.reshape(-1)], dtype=F)


def predict_ref(scores):
    values = [float(v) for v in scores]
    if all(math.isnan(v) for v in values):
        return -1
    for i, v in enumerate(values):
        if math.isnan(v):
            return i
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    return best


def forward_ref(model, x):
    """Full scalar-loop forward pass; softmax stages go through math.exp."""
    out = np.asarray(x, dtype=F)
    for layer in model.layers:
        kind = layer.kind
        if kind == "Conv2D":
            out = conv2d_ref(out, layer.kernel, layer.bias, layer.stride, layer.padding)
        elif kind == "MaxPool2D":
            out = maxpool_ref(out, layer.window, layer.stride)
        elif kind == "Dense":
            out = dense_ref(out, layer.weights, layer.bias)
            if layer.activation == "softmax":
                out = softmax_ref(out)
        elif kind == "ReLU":
            out = relu_ref(out)
        elif kind == "PReLU":
            out = prelu_ref(out, layer.alpha)
        elif kind == "Softmax":
            out = softmax_ref(out)
        elif kind == "Flatten":
            out = flatten_ref(out)
        elif kind == "Dropout":
            pass
        else:
            raise AssertionError(f"unhandled layer kind {kind}")
    return out
