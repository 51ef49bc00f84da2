"""Tensor-core tests: layer math, shape algebra, reference cross-checks."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_engine as ref
from conftest import assert_bits_equal, assert_values_equal
from bitstorm import engine
from bitstorm.engine import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    INVALID_PREDICTION,
    MaxPool2D,
    Model,
    PRELU_OPS,
    PReLU,
    ReLU,
    Softmax,
    forward,
    forward_batch,
    forward_layer,
    forward_layer_batch,
    predict,
    predict_batch,
    prelu,
    relu,
    softmax,
)
from bitstorm.errors import ValidationError
from bitstorm.toygen import _WeightSource

DATA = Path(__file__).parent / "data"

F = np.float32


def rnd(source, shape, lo=-2.0, hi=2.0):
    return source.uniform(shape, lo, hi)


#: Bit patterns that random words rarely hit: zeros, infinities, NaNs with
#: payloads, subnormals and the extremes of the normal range.
SPECIAL_BITS = (0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001, 0x7F800001,
                0x00000001, 0x807FFFFF, 0x00800000, 0x7F7FFFFF, 0xFF7FFFFF, 0x3F800000)


def _f32_bits(data, shape):
    """A float32 array of `shape` drawn as raw bit patterns, special values included."""
    word = st.one_of(st.integers(0, 2**32 - 1), st.sampled_from(SPECIAL_BITS))
    words = data.draw(st.lists(word, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(words, dtype=np.uint32).view(F).reshape(shape)


def _mixed_bits(rng, shape, raw, special):
    """Float32 values in [-2, 2) with shares of raw bit patterns and of SPECIAL_BITS mixed in.

    Moderate values keep long sums finite, so a change in summation order
    shows in the rounding; raw words bring overflow, NaN payloads and
    subnormal products.
    """
    words = rng.uniform(-2.0, 2.0, shape).astype(F).view(np.uint32)
    pick = rng.random(shape)
    words = np.where(pick < raw, rng.integers(0, 2**32, shape, dtype=np.uint32), words)
    words = np.where(pick >= 1.0 - special, rng.choice(np.array(SPECIAL_BITS, dtype=np.uint32), shape), words)
    return words.view(F)


# ---------------------------------------------------------------------------
# Elementwise ops
# ---------------------------------------------------------------------------


class TestElementwise:
    def test_relu_cases(self):
        out = relu(np.array([-1.0, 0.0, 2.5], dtype=F))
        assert_values_equal(out, [0.0, 0.0, 2.5])
        assert_values_equal(relu(np.array([-3.0, -0.5], dtype=F)), [0.0, 0.0])

    def test_relu_propagates_nan(self):
        out = relu(np.array([np.nan, -1.0], dtype=F))
        assert math.isnan(out[0]) and out[1] == 0.0

    def test_prelu_cases(self):
        alpha = np.asarray(0.1, dtype=F)
        assert prelu(np.asarray([3.0], dtype=F), alpha)[0] == F(3.0)
        assert prelu(np.asarray([-2.0], dtype=F), alpha)[0] == F(-0.2)
        assert prelu(np.asarray([0.0], dtype=F), np.asarray(123.0, dtype=F))[0] == F(0.0)

    def test_prelu_alpha_zero_is_relu_bitexact(self):
        source = _WeightSource(11)
        x = rnd(source, (257,), -50.0, 50.0)
        assert_bits_equal(prelu(x, np.asarray(0.0, dtype=F)), relu(x))

    def test_prelu_alpha_one_is_identity_within_one_ulp(self):
        # applies on the non-overflow domain |x| <= FLT_MAX/2; beyond it the
        # mandated dataflow computes 2x which overflows to inf
        source = _WeightSource(12)
        x = rnd(source, (4096,), -1.7e38, 1.7e38)
        out = prelu(x, np.asarray(1.0, dtype=F))
        ulp = np.spacing(np.abs(x).astype(F))
        assert np.all(np.abs(out - x) <= ulp)

    def test_softmax_symmetry(self):
        assert_values_equal(softmax(np.zeros(2, dtype=F)), [0.5, 0.5])

    def test_softmax_stability(self):
        out = softmax(np.array([1000.0, 0.0], dtype=F))
        assert out[0] == F(1.0) and out[1] == F(0.0)
        assert np.isfinite(out).all()

    def test_softmax_derived_values(self):
        out = softmax(np.array([1.0, 2.0, 3.0], dtype=F))
        expected = ref.softmax_ref(np.array([1.0, 2.0, 3.0], dtype=F))
        np.testing.assert_allclose(out, expected, atol=2e-7)
        assert abs(float(out.sum()) - 1.0) < 1e-6

    def test_softmax_sums_to_one(self):
        source = _WeightSource(13)
        for i in range(20):
            x = rnd(source, (10,), -8.0, 8.0)
            assert abs(float(softmax(x).sum(dtype=np.float64)) - 1.0) < 1e-6

    def test_softmax_preserves_argmax(self):
        source = _WeightSource(14)
        for i in range(50):
            x = rnd(source, (7,), -30.0, 30.0)
            assert int(np.argmax(softmax(x))) == int(np.argmax(x))

    def test_softmax_nan_in_nan_out(self):
        out = softmax(np.array([np.nan, 1.0], dtype=F))
        assert np.isnan(out).all()

    def test_flatten_bit_exact(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=F)
        out = forward_layer(Flatten(), x)
        assert out.shape == (4,)
        assert_bits_equal(out, [1.0, 2.0, 3.0, 4.0])
        assert_bits_equal(forward_layer(Flatten(), out), out)

    def test_dropout_pass_through(self):
        x = np.array([1.0, np.nan, -2.0], dtype=F)
        out = forward_layer(Dropout(rate=0.5), x)
        assert_bits_equal(out, x)
        assert np.shares_memory(out, x)


# ---------------------------------------------------------------------------
# Layer kernels vs the scalar reference
# ---------------------------------------------------------------------------


def _random_conv(source, cin, cout, padding="valid", stride=(1, 1)):
    return Conv2D(
        kernel=rnd(source, (3, 3, cin, cout), -0.5, 0.5),
        bias=rnd(source, (cout,), -0.2, 0.2),
        stride=stride,
        padding=padding,
        name="c",
    )


class TestLayerKernels:
    def test_dense_identity(self):
        layer = Dense(weights=np.eye(2, dtype=F), bias=np.zeros(2, dtype=F))
        assert_bits_equal(forward_layer(layer, np.array([3.0, 7.0], dtype=F)), [3.0, 7.0])

    def test_maxpool_window(self):
        layer = MaxPool2D(window=(2, 2), stride=(2, 2))
        out = forward_layer(layer, np.array([1, 2, 3, 4], dtype=F).reshape(2, 2, 1))
        assert_bits_equal(out, np.array([[[4.0]]], dtype=F))

    def test_conv_all_ones(self):
        layer = Conv2D(kernel=np.ones((3, 3, 1, 1), dtype=F), bias=np.zeros(1, dtype=F))
        out = forward_layer(layer, np.ones((3, 3, 1), dtype=F))
        assert_bits_equal(out, np.array([[[9.0]]], dtype=F))

    def test_maxpool_nan_window(self):
        layer = MaxPool2D(window=(2, 2), stride=(2, 2))
        x = np.array([1.0, np.nan, 3.0, 4.0], dtype=F).reshape(2, 2, 1)
        assert math.isnan(forward_layer(layer, x)[0, 0, 0])

    @pytest.mark.parametrize("padding,stride", [("valid", (1, 1)), ("valid", (2, 2)), ("same", (1, 1)), ("same", (2, 2))])
    def test_conv_matches_reference(self, padding, stride):
        source = _WeightSource(21)
        layer = _random_conv(source, 3, 4, padding, stride)
        x = rnd(source, (9, 7, 3))
        expected = ref.conv2d_ref(x, layer.kernel, layer.bias, stride, padding)
        assert_bits_equal(forward_layer(layer, x), expected, f"conv {padding} {stride}")

    @given(rows=st.integers(1, 40), kh=st.integers(1, 4), kw=st.integers(1, 4), sh=st.integers(1, 3),
           sw=st.integers(1, 3), padding=st.sampled_from(["valid", "same"]), h=st.integers(1, 7),
           w=st.integers(1, 7), cin=st.integers(1, 3), cout=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           raw=st.sampled_from([0.0, 0.02, 0.5, 1.0]), special=st.sampled_from([0.0, 0.01, 0.2]),
           block=st.one_of(st.none(), st.integers(1, 5)))
    @example(rows=7, kh=3, kw=2, sh=2, sw=1, padding="same", h=6, w=5, cin=2, cout=3, seed=1, raw=0.5,
             special=0.2, block=3)  # sample blocks of 3, 3 and 1 rows
    @settings(max_examples=60, deadline=None)
    def test_conv_matches_reference_on_any_bits(self, rows, kh, kw, sh, sw, padding, h, w, cin, cout, seed, raw,
                                                special, block):
        """Conv2D equals the scalar oracle bit for bit, in one sample block or in blocks of `block` rows."""
        if padding == "valid":
            h, w = max(h, kh), max(w, kw)
        rng = np.random.default_rng(seed)
        x = _mixed_bits(rng, (rows, h, w, cin), raw, special)
        layer = Conv2D(kernel=_mixed_bits(rng, (kh, kw, cin, cout), raw, special),
                       bias=_mixed_bits(rng, (cout,), raw, special), stride=(sh, sw), padding=padding)
        oh, ow, _ = layer.out_shape((h, w, cin))
        cap = engine._TERM_BYTES if block is None else block * 4 * cout * oh * ow
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_TERM_BYTES", cap)
            out = forward_layer_batch(layer, x)
        expected = np.stack([ref.conv2d_ref(row, layer.kernel, layer.bias, (sh, sw), padding) for row in x])
        open_nan = expected.view(np.uint32) == ref.OPEN_NAN.view(np.uint32)
        assert np.isnan(out[open_nan]).all()
        assert_bits_equal(np.where(open_nan, expected, out), expected,
                          f"{rows}x{h}x{w}x{cin} k{kh}x{kw} s{sh}x{sw} {padding}, block {block}")

    def test_conv_holds_one_sample_block(self, toy):
        """Toy conv2 at 256 rows holds its output and one sample block's scratch, not a term per output.

        The scratch is the block's accumulator and term, each within the
        cap, and its patch buffer of one input channel.  4 KiB covers
        numpy's iterator and Python objects.  An accumulator and a term the
        size of the output would peak near 4.2 MB here; the bound is about
        2.6 MB.
        """
        model, dataset = toy
        layer = model.layers[1]
        x = forward_layer_batch(model.layers[0], dataset.samples[:256])
        forward_layer_batch(layer, x[:2])  # numpy's lazy imports are not the layer's
        tracemalloc.start()
        try:
            out = forward_layer_batch(layer, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = engine._TERM_BYTES // (4 * layer.kernel.shape[3] * out.shape[1] * out.shape[2])
        assert 1 < block < len(x)  # so the rows split into several sample blocks
        bound = out.nbytes + 2 * engine._TERM_BYTES + 4 * block * out.shape[1] * out.shape[2] + (4 << 10)
        assert peak <= bound, f"peak {peak} bytes, bound {bound} bytes"

    def test_same_conv_pads_one_sample_block(self, toy):
        """Toy conv3 (`same`) at 256 rows pads one sample block at a time, not the whole batch.

        Bound: the output, the block's accumulator and term within the cap,
        its patch, one padded block of input, and the 256 KiB slack of
        `test_holds_one_batch_at_a_time`.  A padded copy of all 256 rows
        (819,200 B) peaks near 1.78 MB; the bound is about 1.77 MB.
        """
        model, dataset = toy
        layer = model.layers[4]
        assert layer.padding == "same"
        x = dataset.samples[:256]
        for head in model.layers[:4]:
            x = forward_layer_batch(head, x)
        forward_layer_batch(layer, x[:2])  # numpy's lazy imports are not the layer's
        tracemalloc.start()
        try:
            out = forward_layer_batch(layer, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows, oh, ow, cout = out.shape
        block = engine._TERM_BYTES // (4 * cout * oh * ow)
        assert 1 < block < rows  # so the rows split into several sample blocks
        for i in (0, block - 1, block, rows - 1):  # both sides of the first block boundary
            assert_bits_equal(out[i], ref.conv2d_ref(x[i], layer.kernel, layer.bias, layer.stride, "same"))
        padded = 4 * block * (x.shape[1] + 2) * (x.shape[2] + 2) * x.shape[3]  # a 3x3 kernel pads by one
        bound = out.nbytes + 2 * engine._TERM_BYTES + 4 * block * oh * ow + padded + (256 << 10)
        assert peak <= bound, f"peak {peak} bytes, bound {bound} bytes"

    def test_maxpool_matches_reference(self):
        source = _WeightSource(22)
        layer = MaxPool2D(window=(3, 2), stride=(2, 2))
        x = rnd(source, (9, 8, 3))
        assert_bits_equal(forward_layer(layer, x), ref.maxpool_ref(x, (3, 2), (2, 2)))

    def test_dense_matches_reference(self):
        source = _WeightSource(23)
        layer = Dense(weights=rnd(source, (37, 11)), bias=rnd(source, (11,)))
        x = rnd(source, (37,))
        assert_bits_equal(forward_layer(layer, x), ref.dense_ref(x, layer.weights, layer.bias))

    @given(rows=st.integers(1, 4), n_out=st.integers(1, 4), n_in=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1), raw=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
           special=st.sampled_from([0.0, 0.01, 0.2]), block=st.one_of(st.none(), st.integers(4, 8)))
    @example(rows=1, n_out=1, n_in=200, seed=0, raw=0.0, special=0.0, block=None)  # numpy's pairwise case
    @settings(max_examples=80, deadline=None)
    def test_dense_matches_reference_on_any_bits(self, rows, n_out, n_in, seed, raw, special, block):
        """Dense equals the scalar oracle bit for bit, in one term block or several of `block` features."""
        rng = np.random.default_rng(seed)
        x = _mixed_bits(rng, (rows, n_in), raw, special)
        layer = Dense(weights=_mixed_bits(rng, (n_in, n_out), raw, special),
                      bias=_mixed_bits(rng, (n_out,), raw, special))
        cap = engine._TERM_BYTES if block is None else (block + 1) * 4 * rows * n_out
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_TERM_BYTES", cap)
            out = forward_layer_batch(layer, x)
        expected = np.stack([ref.dense_ref(row, layer.weights, layer.bias) for row in x])
        open_nan = expected.view(np.uint32) == ref.OPEN_NAN.view(np.uint32)
        assert np.isnan(out[open_nan]).all()
        assert_bits_equal(np.where(open_nan, expected, out), expected, f"{rows}x{n_in}->{n_out}, block {block}")

    def test_dense_keeps_negative_zero(self):
        """-0.0 + -0.0 is -0.0: numpy's reduction identity, +0.0, must not enter the sum."""
        layer = Dense(weights=-np.ones((3, 2), dtype=F), bias=np.full(2, -0.0, dtype=F))
        assert_bits_equal(forward_layer_batch(layer, np.zeros((2, 3), dtype=F)), np.full((2, 2), -0.0, dtype=F))

    def test_dense_holds_one_term_block(self):
        """Dense at 320 rows holds its output and one term array within the cap, not all 97 products.

        numpy's ufunc iterator adds its own buffers, `np.getbufsize()`
        float32 values for each of the multiply's two inputs, whatever the
        cap; 4 KiB covers the iterator and Python objects.
        """
        source = _WeightSource(26)
        layer = Dense(weights=rnd(source, (96, 16)), bias=rnd(source, (16,)))
        x = rnd(source, (320, 96))
        forward_layer_batch(layer, x[:2])  # numpy's lazy imports are not the layer's
        tracemalloc.start()
        try:
            out = forward_layer_batch(layer, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 97 * out.nbytes > 4 * engine._TERM_BYTES  # so the cap splits the features into blocks
        bound = engine._TERM_BYTES + out.nbytes + 2 * 4 * np.getbufsize() + (4 << 10)
        assert peak <= bound, f"peak {peak} bytes, bound {bound} bytes"

    def test_prelu_matches_reference(self):
        source = _WeightSource(24)
        layer = PReLU(alpha=rnd(source, (5,), 0.0, 0.5))
        x = rnd(source, (6, 6, 5))
        assert_values_equal(forward_layer(layer, x), ref.prelu_ref(x, layer.alpha))

    @given(data=st.data(), rows=st.integers(1, 4), channels=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_prelu_ops_match_reference_under_replacement(self, data, rows, channels):
        """Each op's output, replaced by arbitrary binary32 bits, reaches the result as the oracle says."""
        shape = (rows, channels)
        x, stand_in = (_f32_bits(data, shape) for _ in range(2))
        alpha = _f32_bits(data, (channels,))
        for position in [None, *range(len(PRELU_OPS))]:
            seen = []

            def hook(i, out):
                seen.append(i)
                return stand_in.copy() if i == position else out

            out = prelu(x, alpha, hook)
            expected = ref.prelu_ref(x, alpha, {} if position is None else {position: stand_in})
            open_nan = expected.view(np.uint32) == ref.OPEN_NAN.view(np.uint32)
            assert np.isnan(out[open_nan]).all()
            assert_bits_equal(np.where(open_nan, expected, out), expected, f"op {position}")
            assert seen == list(range(len(PRELU_OPS)))

    def test_batch_equals_single(self):
        source = _WeightSource(25)
        layers = [
            _random_conv(source, 2, 3, "same"),
            MaxPool2D(window=(2, 2), stride=(2, 2)),
            Flatten(),
            Dense(weights=rnd(source, (48, 6)), bias=rnd(source, (6,))),
            Softmax(),
        ]
        model = Model(input_shape=(8, 8, 2), layers=layers)
        xs = rnd(source, (17, 8, 8, 2))
        batched = forward_batch(model, xs)
        singles = np.stack([forward(model, xs[i]) for i in range(17)])
        assert_bits_equal(batched, singles, "batched forward must be bit-identical to per-sample")


# ---------------------------------------------------------------------------
# Shape algebra and model validation
# ---------------------------------------------------------------------------


class TestShapes:
    @given(
        h=st.integers(3, 12),
        w=st.integers(3, 12),
        cin=st.integers(1, 4),
        cout=st.integers(1, 5),
        k=st.integers(1, 3),
        s=st.integers(1, 3),
        padding=st.sampled_from(["valid", "same"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_conv_declared_shape_matches_actual(self, h, w, cin, cout, k, s, padding):
        if padding == "valid" and (h < k or w < k):
            return
        layer = Conv2D(
            kernel=np.zeros((k, k, cin, cout), dtype=F),
            bias=np.zeros(cout, dtype=F),
            stride=(s, s),
            padding=padding,
        )
        x = np.zeros((h, w, cin), dtype=F)
        assert forward_layer(layer, x).shape == layer.out_shape((h, w, cin))

    @given(h=st.integers(2, 12), w=st.integers(2, 12), c=st.integers(1, 4), p=st.integers(1, 3), s=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_pool_declared_shape_matches_actual(self, h, w, c, p, s):
        if h < p or w < p:
            return
        layer = MaxPool2D(window=(p, p), stride=(s, s))
        x = np.zeros((h, w, c), dtype=F)
        assert forward_layer(layer, x).shape == layer.out_shape((h, w, c))

    def test_shape_mismatch_names_layer(self):
        layer = Dense(weights=np.eye(4, dtype=F), bias=np.zeros(4, dtype=F), name="clf")
        with pytest.raises(ValidationError, match="clf"):
            forward_layer(layer, np.zeros(8, dtype=F))

    def test_model_chain_validation(self):
        with pytest.raises(ValidationError, match="dense_b"):
            Model(
                input_shape=(8,),
                layers=[
                    Dense(weights=np.zeros((8, 4), dtype=F), bias=np.zeros(4, dtype=F), name="dense_a"),
                    Dense(weights=np.zeros((6, 2), dtype=F), bias=np.zeros(2, dtype=F), name="dense_b"),
                ],
            )

    def test_model_requires_rank1_output(self):
        with pytest.raises(ValidationError, match="rank-1"):
            Model(input_shape=(4, 4, 1), layers=[MaxPool2D(window=(2, 2), stride=(2, 2))])

    def test_model_requires_layers(self):
        with pytest.raises(ValidationError, match="at least one layer"):
            Model(input_shape=(4,), layers=[])

    def test_dropout_rate_range(self):
        with pytest.raises(ValidationError, match="rate"):
            Dropout(rate=1.0)


class TestLinearity:
    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.714])
    def test_conv_zero_bias_linear(self, alpha):
        source = _WeightSource(31)
        layer = Conv2D(kernel=rnd(source, (3, 3, 2, 3), -0.5, 0.5), bias=np.zeros(3, dtype=F))
        x = rnd(source, (7, 7, 2))
        lhs = forward_layer(layer, (F(alpha) * x))
        rhs = F(alpha) * forward_layer(layer, x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.714])
    def test_dense_zero_bias_linear(self, alpha):
        source = _WeightSource(32)
        layer = Dense(weights=rnd(source, (24, 7)), bias=np.zeros(7, dtype=F))
        x = rnd(source, (24,))
        lhs = forward_layer(layer, (F(alpha) * x))
        rhs = F(alpha) * forward_layer(layer, x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-5)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


class TestPredict:
    def test_basic(self):
        assert predict(np.array([0.1, 0.7, 0.2], dtype=F)) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert predict(np.array([0.5, 0.5], dtype=F)) == 0

    def test_all_nan_is_invalid(self):
        assert predict(np.array([np.nan, np.nan], dtype=F)) == INVALID_PREDICTION

    def test_partial_nan_treated_as_maximal(self):
        assert predict(np.array([1.0, np.nan, 3.0], dtype=F)) == 1

    def test_batch_matches_scalar(self):
        source = _WeightSource(33)
        scores = rnd(source, (40, 6), -5.0, 5.0)
        scores[3, :] = np.nan
        scores[7, 2] = np.nan
        batch = predict_batch(scores)
        for i in range(scores.shape[0]):
            assert batch[i] == predict(scores[i])
            assert batch[i] == ref.predict_ref(scores[i])

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError, match="rank-1"):
            predict(np.zeros((2, 2), dtype=F))


# ---------------------------------------------------------------------------
# Whole-model determinism and the frozen golden file
# ---------------------------------------------------------------------------


def build_two_conv_cnn():
    """Fixed tiny 2-conv model used for the frozen-score regression test."""
    source = _WeightSource(404)
    layers = [
        _random_conv(source, 1, 3),
        _random_conv(source, 3, 4),
        Flatten(),
        Dense(weights=rnd(source, (64, 5), -0.3, 0.3), bias=rnd(source, (5,), -0.1, 0.1)),
    ]
    return Model(input_shape=(8, 8, 1), layers=layers)


def golden_inputs():
    source = _WeightSource(405)
    return [rnd(source, (8, 8, 1)) for _ in range(3)]


def _hex(arr):
    return [f"{b:08x}" for b in np.asarray(arr, dtype=F).reshape(-1).view(np.uint32)]


class TestForward:
    def test_forward_runs_twice_bit_identical(self, toy):
        model, dataset = toy
        a = forward_batch(model, dataset.samples[:16])
        b = forward_batch(model, dataset.samples[:16])
        assert_bits_equal(a, b)

    def test_forward_validates_input_shape(self, toy):
        model, _ = toy
        with pytest.raises(ValidationError, match="input"):
            forward(model, np.zeros((5, 5, 1), dtype=F))

    def test_frozen_golden_scores(self):
        """Scores frozen from this engine once; regenerating must not drift."""
        doc = json.loads((DATA / "golden_2conv.json").read_text())
        model = build_two_conv_cnn()
        for entry, x in zip(doc["cases"], golden_inputs()):
            assert _hex(x) == entry["input_hex"], "frozen input drifted"
            assert _hex(forward(model, x)) == entry["logits_hex"], "engine scores drifted"

    def test_golden_scores_cross_checked_against_scalar_reference(self):
        """The same frozen values recomputed by the independent scalar loops."""
        doc = json.loads((DATA / "golden_2conv.json").read_text())
        model = build_two_conv_cnn()
        for entry, x in zip(doc["cases"], golden_inputs()):
            logits = ref.forward_ref(model, x)
            assert _hex(logits) == entry["logits_hex"], "scalar reference disagrees with frozen scores"

    def test_softmax_model_against_reference(self):
        base = build_two_conv_cnn()
        model = Model(input_shape=base.input_shape, layers=base.layers + [Softmax()])
        for x in golden_inputs():
            mine = forward(model, x)
            theirs = ref.forward_ref(model, x)
            np.testing.assert_allclose(mine, theirs, atol=3e-7)
            assert int(np.argmax(mine)) == int(np.argmax(theirs))

    def test_full_scalar_reference_on_toy_sample(self, toy):
        """End-to-end engine vs scalar loops on the real toy CNN."""
        model, dataset = toy
        x = dataset.samples[0]
        mine = forward(model, x)
        theirs = ref.forward_ref(model, x)
        np.testing.assert_allclose(mine, theirs, atol=3e-7)
        assert int(np.argmax(mine)) == int(np.argmax(theirs))
