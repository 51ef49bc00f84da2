"""Deterministic forward-pass engine for sequential CNNs in binary32.

All activations and weights are IEEE-754 single precision.  Every reduction
in this module runs in an explicitly coded order so that results are
bit-reproducible and can be mirrored by a scalar reference implementation:

* Conv2D: accumulator starts at the bias, then terms are added in kernel
  row-major order with the input channel varying fastest (ki, kj, cin).
  The kernel runs channel-major: the accumulator and the term are
  (cout, n) arrays over the n output positions of a block of samples.
  For each (ki, kj, cin) that input channel's strided patch is copied
  into one contiguous n-float buffer, then one multiply and one add run
  over rows of n floats.  Samples go in blocks that keep the accumulator
  and the term each within _TERM_BYTES (one sample at least), and each
  finished block is transposed into the (rows, oh, ow, cout) output.
  A `same` conv pads one block at a time, inside a zero border that is
  allocated once per call.
* Dense: accumulator starts at the bias, then input features in ascending
  index order.  Features go in blocks: the running sum and one block's
  products fill an array of at most _TERM_BYTES, and one
  `np.add.reduce` over its leading axis sums it in sequence.  A batch
  whose output is one element (rows x outputs == 1), which numpy would sum
  pairwise, adds one feature at a time, as does an output too large for a
  block of four features.
* Softmax: max-subtracted, exponential sum accumulated in ascending class
  order.

Layouts and blocks set which elements one numpy call covers, never the
order of one element's additions, so they change no bit but the payload of
a NaN where two NaNs meet, which IEEE 754 leaves open.

Max-based operations (ReLU, MaxPool2D) propagate NaN: a corrupted value
must not be silently repaired by comparison semantics.

PReLU is computed as the six elementary ops of PRELU_OPS.  A hook passed
to `forward_layer_batch` sees every op's output before its consumers do;
this is where operation-wise injection corrupts values, so the golden run
and every injected replay share one dataflow.

All kernels are batch-first internally; a leading sample axis is prepended
for the single-tensor entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .errors import ValidationError

Shape = tuple[int, ...]

F32 = np.float32

#: Prediction value used when every class score is NaN.  Counted as a
#: misclassification by every metric.
INVALID_PREDICTION = -1


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=F32)
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Layer specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Conv2D:
    kind: ClassVar[str] = "Conv2D"
    kernel: np.ndarray  # (kh, kw, cin, cout)
    bias: np.ndarray  # (cout,)
    stride: tuple[int, int] = (1, 1)
    padding: str = "valid"
    name: str = "conv2d"

    def __post_init__(self):
        object.__setattr__(self, "kernel", _freeze(self.kernel))
        object.__setattr__(self, "bias", _freeze(self.bias))
        if self.kernel.ndim != 4:
            raise ValidationError(f"layer {self.name}: kernel must be rank 4 (kh, kw, cin, cout)")
        if self.bias.shape != (self.kernel.shape[3],):
            raise ValidationError(f"layer {self.name}: bias length must equal output channels")
        if self.padding not in ("valid", "same"):
            raise ValidationError(f"layer {self.name}: padding must be 'valid' or 'same'")
        if min(self.stride) < 1:
            raise ValidationError(f"layer {self.name}: stride must be positive")

    def out_shape(self, in_shape: Shape) -> Shape:
        if len(in_shape) != 3:
            raise ValidationError(f"layer {self.name}: expects rank-3 input (h, w, c), got {in_shape}")
        kh, kw, cin, cout = self.kernel.shape
        h, w, c = in_shape
        if c != cin:
            raise ValidationError(
                f"layer {self.name}: input has {c} channels, kernel expects {cin}"
            )
        sh, sw = self.stride
        if self.padding == "same":
            oh = -(-h // sh)
            ow = -(-w // sw)
        else:
            if h < kh or w < kw:
                raise ValidationError(f"layer {self.name}: input {h}x{w} smaller than kernel {kh}x{kw}")
            oh = (h - kh) // sh + 1
            ow = (w - kw) // sw + 1
        return (oh, ow, cout)


@dataclass(frozen=True, eq=False)
class MaxPool2D:
    kind: ClassVar[str] = "MaxPool2D"
    window: tuple[int, int] = (2, 2)
    stride: tuple[int, int] = (2, 2)
    name: str = "maxpool2d"

    def __post_init__(self):
        if min(self.window) < 1 or min(self.stride) < 1:
            raise ValidationError(f"layer {self.name}: window and stride must be positive")

    def out_shape(self, in_shape: Shape) -> Shape:
        if len(in_shape) != 3:
            raise ValidationError(f"layer {self.name}: expects rank-3 input (h, w, c), got {in_shape}")
        h, w, c = in_shape
        ph, pw = self.window
        sh, sw = self.stride
        if h < ph or w < pw:
            raise ValidationError(f"layer {self.name}: input {h}x{w} smaller than window {ph}x{pw}")
        return ((h - ph) // sh + 1, (w - pw) // sw + 1, c)


@dataclass(frozen=True, eq=False)
class Dense:
    kind: ClassVar[str] = "Dense"
    weights: np.ndarray  # (n_in, n_out)
    bias: np.ndarray  # (n_out,)
    activation: str | None = None  # None or "softmax" (fused, applied after the affine map)
    name: str = "dense"

    def __post_init__(self):
        object.__setattr__(self, "weights", _freeze(self.weights))
        object.__setattr__(self, "bias", _freeze(self.bias))
        if self.weights.ndim != 2:
            raise ValidationError(f"layer {self.name}: weights must be rank 2 (in, out)")
        if self.bias.shape != (self.weights.shape[1],):
            raise ValidationError(f"layer {self.name}: bias length must equal output size")
        if self.activation not in (None, "softmax"):
            raise ValidationError(f"layer {self.name}: unsupported activation {self.activation!r}")

    def out_shape(self, in_shape: Shape) -> Shape:
        if len(in_shape) != 1 or in_shape[0] != self.weights.shape[0]:
            raise ValidationError(
                f"layer {self.name}: expects rank-1 input of {self.weights.shape[0]}, got {in_shape}"
            )
        return (self.weights.shape[1],)


@dataclass(frozen=True, eq=False)
class ReLU:
    kind: ClassVar[str] = "ReLU"
    name: str = "relu"

    def out_shape(self, in_shape: Shape) -> Shape:
        return in_shape


@dataclass(frozen=True, eq=False)
class PReLU:
    kind: ClassVar[str] = "PReLU"
    alpha: np.ndarray  # broadcastable to the layer input shape
    name: str = "prelu"

    def __post_init__(self):
        object.__setattr__(self, "alpha", _freeze(self.alpha))

    def out_shape(self, in_shape: Shape) -> Shape:
        try:
            broadcast = np.broadcast_shapes(self.alpha.shape, in_shape)
        except ValueError:
            broadcast = None
        if broadcast != tuple(in_shape):
            raise ValidationError(
                f"layer {self.name}: alpha shape {self.alpha.shape} not broadcastable to {in_shape}"
            )
        return in_shape


@dataclass(frozen=True, eq=False)
class Softmax:
    kind: ClassVar[str] = "Softmax"
    name: str = "softmax"

    def out_shape(self, in_shape: Shape) -> Shape:
        if len(in_shape) != 1:
            raise ValidationError(f"layer {self.name}: expects rank-1 input, got {in_shape}")
        return in_shape


@dataclass(frozen=True, eq=False)
class Flatten:
    kind: ClassVar[str] = "Flatten"
    name: str = "flatten"

    def out_shape(self, in_shape: Shape) -> Shape:
        return (int(np.prod(in_shape)),)


@dataclass(frozen=True, eq=False)
class Dropout:
    kind: ClassVar[str] = "Dropout"
    rate: float = 0.0  # recorded only; inference is a pass-through
    name: str = "dropout"

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValidationError(f"layer {self.name}: dropout rate must be in [0, 1)")

    def out_shape(self, in_shape: Shape) -> Shape:
        return in_shape


Layer = Union[Conv2D, MaxPool2D, Dense, ReLU, PReLU, Softmax, Flatten, Dropout]


@dataclass(eq=False)
class Model:
    """A shape-checked sequential stack of layers."""

    input_shape: Shape
    layers: list[Layer]
    output_shapes: list[Shape] = field(init=False)

    def __post_init__(self):
        self.input_shape = tuple(int(e) for e in self.input_shape)
        if not self.input_shape or min(self.input_shape) < 1:
            raise ValidationError(f"model input shape must have positive extents, got {self.input_shape}")
        if not self.layers:
            raise ValidationError("model must contain at least one layer")
        shapes = []
        shape = self.input_shape
        for i, layer in enumerate(self.layers):
            try:
                shape = layer.out_shape(shape)
            except ValidationError as exc:
                producer = f" fed by {self.layers[i - 1].name}" if i else ""
                raise ValidationError(f"layer {i} ({layer.name}){producer}: {exc}") from None
            shapes.append(shape)
        if len(shapes[-1]) != 1:
            raise ValidationError(
                f"final layer {self.layers[-1].name} must produce rank-1 class scores, got {shapes[-1]}"
            )
        self.output_shapes = shapes

    @property
    def class_count(self) -> int:
        return self.output_shapes[-1][0]

    def input_shape_of(self, index: int) -> Shape:
        return self.input_shape if index == 0 else self.output_shapes[index - 1]


# ---------------------------------------------------------------------------
# Elementwise operations
# ---------------------------------------------------------------------------


#: Arithmetic on corrupted tensors legitimately overflows or produces
#: NaN/Inf; those values are data here, not errors.
_quiet = np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore")


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x); NaN inputs yield NaN outputs."""
    return np.maximum(x, F32(0.0))


#: PReLU's dataflow, relu(x) + alpha * (0.5 * (x - |x|)), as the kinds of
#: its six ops in the order `prelu` runs them; the two branches meet last.
PRELU_OPS = ("ReLU", "Abs", "Sub", "ConstMul", "Mul", "Add")


def _keep(index: int, out: np.ndarray) -> np.ndarray:
    return out


@_quiet
def prelu(x: np.ndarray, alpha: np.ndarray, hook=None) -> np.ndarray:
    """relu(x) + alpha * (0.5 * (x - |x|)), one op of PRELU_OPS at a time.

    `hook(i, out)` receives op i's fresh output and returns the tensor that
    the op's consumers read; operation-wise injection corrupts it there.
    """
    hook = hook or _keep
    pos = hook(0, relu(x))
    neg = hook(2, x - hook(1, np.abs(x)))
    neg = hook(3, F32(0.5) * neg)
    neg = hook(4, np.asarray(alpha, dtype=F32) * neg)
    return hook(5, pos + neg)


@_quiet
def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis; NaN rows stay NaN, never raise."""
    m = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - m)
    total = e[..., 0].copy()
    for i in range(1, e.shape[-1]):
        np.add(total, e[..., i], out=total)
    return e / total[..., None]


# ---------------------------------------------------------------------------
# Batched layer kernels (leading sample axis)
# ---------------------------------------------------------------------------


def conv_padding(layer: Conv2D, in_shape: Shape) -> tuple:
    """((top, bottom), (left, right)): the zeros `layer` adds around an (h, w, c) input.

    `same` padding is split floor-left, ceil-right; `valid` adds none.
    """
    if layer.padding == "valid":
        return (0, 0), (0, 0)
    kh, kw = layer.kernel.shape[:2]
    oh, ow, _ = layer.out_shape(in_shape)
    pad_h = max((oh - 1) * layer.stride[0] + kh - in_shape[0], 0)
    pad_w = max((ow - 1) * layer.stride[1] + kw - in_shape[1], 0)
    return (pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2)


#: Bytes of each scratch array that a kernel call holds: a Conv2D sample
#: block's accumulator and its term, and Dense's term block.
_TERM_BYTES = 1 << 18


def _conv2d_batch(layer: Conv2D, x: np.ndarray) -> np.ndarray:
    kh, kw, cin, cout = layer.kernel.shape
    sh, sw = layer.stride
    rows, h, w, _ = x.shape
    oh, ow, _ = layer.out_shape(x.shape[1:])
    (top, bottom), (left, right) = conv_padding(layer, x.shape[1:])
    columns = layer.kernel[..., None]  # (kh, kw, cin, cout, 1): each term's weights down one column
    out = np.empty((rows, oh, ow, cout), dtype=F32)
    block = max(1, _TERM_BYTES // (4 * cout * oh * ow))
    size = min(block, rows) * oh * ow
    acc_buf, term_buf = np.empty((2, cout * size), dtype=F32)
    patch_buf = np.empty(size, dtype=F32)
    if layer.padding == "same":
        # one block's input goes inside a border of zeros that no block overwrites
        padded = np.zeros((min(block, rows), top + h + bottom, left + w + right, cin), dtype=F32)
    for start in range(0, rows, block):
        xb = x[start : start + block]
        b = xb.shape[0]
        if layer.padding == "same":
            padded[:b, top : top + h, left : left + w] = xb
            xb = padded[:b]
        acc = acc_buf[: cout * b * oh * ow].reshape(cout, -1)
        term = term_buf[: acc.size].reshape(cout, -1)
        patch = patch_buf[: acc.shape[1]]
        grid = patch.reshape(b, oh, ow)
        acc[...] = layer.bias[:, None]
        for ki in range(kh):
            for kj in range(kw):
                taps = xb[:, ki : ki + (oh - 1) * sh + 1 : sh, kj : kj + (ow - 1) * sw + 1 : sw]
                for c in range(cin):
                    np.copyto(grid, taps[..., c])
                    np.multiply(patch, columns[ki, kj, c], out=term)  # input first, as in x * k
                    np.add(acc, term, out=acc)
        out[start : start + block] = acc.reshape(cout, b, oh, ow).transpose(1, 2, 3, 0)
    return out


def _maxpool_batch(layer: MaxPool2D, x: np.ndarray) -> np.ndarray:
    ph, pw = layer.window
    sh, sw = layer.stride
    oh, ow, _ = layer.out_shape(x.shape[1:])
    acc = None
    for wi in range(ph):
        for wj in range(pw):
            window = x[:, wi : wi + (oh - 1) * sh + 1 : sh, wj : wj + (ow - 1) * sw + 1 : sw, :]
            if acc is None:
                acc = window.copy()
            else:
                np.maximum(acc, window, out=acc)  # propagates NaN
    return acc


def _dense_batch(layer: Dense, x: np.ndarray) -> np.ndarray:
    n_in, n_out = layer.weights.shape
    rows = x.shape[0]
    acc = np.empty((rows, n_out), dtype=F32)
    acc[...] = layer.bias
    block = _TERM_BYTES // acc.nbytes - 1 if acc.size > 1 else 0
    if block < 4:
        # numpy would sum a lone output element's axis pairwise, and blocks
        # of fewer than four features are no faster than this loop
        term = np.empty_like(acc)
        for i in range(n_in):
            np.multiply(x[:, i : i + 1], layer.weights[i], out=term)
            np.add(acc, term, out=acc)
    else:
        # numpy reduces an outer axis in sequence: ((sum + t0) + t1) + ...;
        # the initial -0.0 is the one addend that changes no value
        terms = np.empty((min(block, n_in) + 1, rows, n_out), dtype=F32)
        for start in range(0, n_in, block):
            stop = min(start + block, n_in)
            part = terms[: stop - start + 1]
            part[0] = acc
            np.multiply(x[:, start:stop].T[:, :, None], layer.weights[start:stop, None, :], out=part[1:])
            np.add.reduce(part, axis=0, out=acc, initial=F32(-0.0))
    if layer.activation == "softmax":
        acc = softmax(acc)
    return acc


@_quiet
def forward_layer_batch(layer: Layer, x: np.ndarray, hook=None) -> np.ndarray:
    """Apply one layer to a batch shaped (samples, *layer input shape).

    `hook`, if given, sees each op's output as `prelu` describes; a layer
    other than PReLU is one op, and `hook(0, out)` sees the layer output.
    """
    if isinstance(layer, PReLU):
        return prelu(x, layer.alpha, hook)
    if isinstance(layer, Conv2D):
        out = _conv2d_batch(layer, x)
    elif isinstance(layer, MaxPool2D):
        out = _maxpool_batch(layer, x)
    elif isinstance(layer, Dense):
        out = _dense_batch(layer, x)
    elif isinstance(layer, ReLU):
        out = relu(x)
    elif isinstance(layer, Softmax):
        out = softmax(x)
    elif isinstance(layer, Flatten):
        out = np.ascontiguousarray(x).reshape(x.shape[0], -1)
    elif isinstance(layer, Dropout):
        out = x
    else:
        raise ValidationError(f"unknown layer type {type(layer).__name__}")
    return out if hook is None else hook(0, out)


def forward_layer(layer: Layer, x: np.ndarray) -> np.ndarray:
    """Apply one layer to a single tensor, validating the input shape."""
    x = np.asarray(x, dtype=F32)
    layer.out_shape(x.shape)  # raises with the layer name on mismatch
    return forward_layer_batch(layer, x[None])[0]


def forward_batch(model: Model, x: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Run layers [start, stop) over a batch; returns the last output."""
    stop = len(model.layers) if stop is None else stop
    expected = model.input_shape_of(start)
    if x.shape[1:] != expected:
        raise ValidationError(
            f"batch shape {x.shape[1:]} does not match layer {start} input {expected}"
        )
    out = np.asarray(x, dtype=F32)
    for layer in model.layers[start:stop]:
        out = forward_layer_batch(layer, out)
    return out


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Full forward pass for one input tensor; deterministic."""
    x = np.asarray(x, dtype=F32)
    if x.shape != model.input_shape:
        raise ValidationError(f"input shape {x.shape} does not match model input {model.input_shape}")
    return forward_batch(model, x[None])[0]


def head_batch(model: Model, layer_index: int, x: np.ndarray) -> np.ndarray:
    """Outputs of layer `layer_index` (inclusive) for a batch of inputs."""
    if not 0 <= layer_index < len(model.layers):
        raise ValidationError(f"layer index {layer_index} out of range for {len(model.layers)} layers")
    return forward_batch(model, x, start=0, stop=layer_index + 1)


def tail_scores_batch(model: Model, layer_index: int, activations: np.ndarray) -> np.ndarray:
    """Class scores from running layers after `layer_index` on cached activations."""
    if not 0 <= layer_index < len(model.layers):
        raise ValidationError(f"layer index {layer_index} out of range for {len(model.layers)} layers")
    expected = model.output_shapes[layer_index]
    if activations.shape[1:] != expected:
        raise ValidationError(
            f"activation shape {activations.shape[1:]} does not match layer {layer_index} output {expected}"
        )
    return forward_batch(model, activations, start=layer_index + 1)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def predict_batch(scores: np.ndarray) -> np.ndarray:
    """Argmax per row with deterministic corruption semantics.

    Ties break to the lowest index.  A NaN score is treated as maximal
    (first NaN wins); all-NaN rows give INVALID_PREDICTION.
    """
    isnan = np.isnan(scores)
    any_nan = isnan.any(axis=1)
    preds = np.argmax(np.where(isnan, -np.inf, scores), axis=1).astype(np.int64)
    if any_nan.any():
        first_nan = np.argmax(isnan, axis=1)
        preds[any_nan] = first_nan[any_nan]
        preds[isnan.all(axis=1)] = INVALID_PREDICTION
    return preds


def predict(scores: np.ndarray) -> int:
    """Class index for a rank-1 score tensor (or INVALID_PREDICTION)."""
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise ValidationError(f"predict expects rank-1 scores, got shape {scores.shape}")
    return int(predict_batch(scores[None])[0])
