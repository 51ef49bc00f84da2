"""Cone replay: layer-wise replays carry only the box of each map that one changed element reaches.

The oracles are a full recompute of every map (`forward_layer_batch` on
whole rows) and the per-trial full-tail replay of `reference_layerwise`.
"""

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bitstorm.executor as executor_mod
import reference_layerwise
from strategies import random_models
from bitstorm.engine import Conv2D, Dense, Dropout, Flatten, MaxPool2D, Model, PReLU, forward_layer_batch, predict_batch
from bitstorm.executor import (_cones, _paste, _replay_rows, _start_cone, layer_caches, replay_layers,
                               run_injected_layerwise)
from bitstorm.faults import FAULT_KINDS, FaultSpec
from bitstorm.model_io import Dataset
from bitstorm.toygen import _WeightSource

F = np.float32

#: u32 patterns a changed element may take: +-Inf, a quiet NaN, a NaN with a payload, a signalling NaN.
SPECIALS = (0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC01234, 0x7F800001)


def _same_but_nan_payload(got, want, what):
    """Bit-equal, except that two NaNs may differ in payload."""
    got, want = np.asarray(got, dtype=F), np.asarray(want, dtype=F)
    assert got.shape == want.shape, what
    same = (got.view(np.uint32) == want.view(np.uint32)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), f"{what}: differs at {np.argwhere(~same)[:5].tolist()}"


def _maps(model, x, start=0):
    """[output of layer k for k >= start], from whole rows `x` (the input of layer `start`)."""
    out = []
    for layer in model.layers[start:]:
        x = forward_layer_batch(layer, x)
        out.append(x)
    return out


@st.composite
def _injections(draw, model, samples):
    """(target, picks, elements, patterns): rows of the target's golden output, each changed in one element.

    Positions favour the corners and edges of a map; patterns are bit flips (often of bits 23, 30 and 31,
    which make Inf, NaN and sign changes) or one of SPECIALS.
    """
    target = draw(st.integers(0, len(model.layers) - 1))
    shape = model.output_shapes[target]
    count = draw(st.integers(1, 6))
    picks = draw(st.lists(st.integers(0, samples - 1), min_size=count, max_size=count))
    elements, patterns = [], []
    for _ in range(count):
        axes = [draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))) for n in shape]
        elements.append(int(np.ravel_multi_index(axes, shape)))
        bit = draw(st.one_of(st.sampled_from([23, 30, 31]), st.integers(0, 31)))
        patterns.append(draw(st.one_of(st.just(("flip", bit)), st.sampled_from([("set", v) for v in SPECIALS]))))
    return target, np.array(picks), np.array(elements), patterns


def _check_against_full_recompute(model, xs, target, picks, elements, patterns):
    """Change one element of rows of the target's golden output, then hold every cone to a full recompute.

    Every live cone, written into its golden map, is the recomputed map; a row that leaves at a layer is
    golden there; predictions equal the recomputed ones, and a row that left keeps its golden one.
    """
    golden = [xs, *_maps(model, xs)]  # golden[k + 1] is the output of layer k
    rows = golden[target + 1][picks].copy()
    flat = rows.reshape(len(picks), -1).view(np.uint32)
    at = (np.arange(len(picks)), elements)
    before = flat[at]
    for i, (how, value) in enumerate(patterns):
        flat[i, elements[i]] = before[i] ^ (1 << value) if how == "flip" else value
    changed = flat[at] != before
    rows, picks, elements = rows[changed], picks[changed], elements[changed]
    if not rows.shape[0]:
        return
    full = [rows, *_maps(model, rows, target + 1)]  # full[k - target]: the output of layer k
    want = predict_batch(full[-1])

    def stored(k):
        return golden[k + 1]

    start = _start_cone(model, target, rows, elements)
    if start[0] is not None:
        alive = np.arange(rows.shape[0])
        for index, live, top, left, cone in _cones(model, target, *start, picks, stored):
            rebuilt = stored(index)[picks[live]]
            _paste(rebuilt, cone, top, left)
            _same_but_nan_payload(rebuilt, full[index - target][live], f"layer {index}")
            dropped = np.setdiff1d(alive, live)
            _same_but_nan_payload(full[index - target][dropped], stored(index)[picks[dropped]],
                                  f"rows dropped at layer {index}")
            alive = live
    live, scores = _replay_rows(model, target, *start, picks, stored)
    assert np.array_equal(predict_batch(scores), want[live])
    dropped = np.setdiff1d(np.arange(rows.shape[0]), live)
    assert np.array_equal(want[dropped], predict_batch(golden[-1])[picks[dropped]])


def _strided_layers():
    convs = [(k, s, padding) for k in range(1, 5) for s in range(1, 4) for padding in ("valid", "same")]
    pools = [(w, s) for w in range(1, 4) for s in range(1, 4)]
    return [pytest.param(("conv", *c), id=f"conv-k{c[0]}-s{c[1]}-{c[2]}") for c in convs] + [
        pytest.param(("pool", *p), id=f"pool-w{p[0]}-s{p[1]}") for p in pools]


class TestConeEqualsFullRecompute:
    @given(case=random_models(max_side=16), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_map_and_prediction(self, case, data):
        model, xs = case
        _check_against_full_recompute(model, xs, *data.draw(_injections(model, xs.shape[0])))

    @pytest.mark.parametrize("spec", _strided_layers())
    def test_every_position_through_a_strided_layer(self, spec):
        """A cone of 1, 2 or 3 rows and columns enters the layer at every position of a 9 x 8 map.

        On the way it passes a PReLU whose alpha differs per element.
        """
        source = _WeightSource(5)
        if spec[0] == "conv":
            _, k, s, padding = spec
            layer = Conv2D(kernel=source.uniform((k, k + (k < 4), 2, 2), -0.6, 0.6),
                           bias=source.uniform((2,), -0.2, 0.2), stride=(s, s + (s < 3)), padding=padding)
        else:
            _, w, s = spec
            layer = MaxPool2D(window=(w, w + (w < 3)), stride=(s, s + (s < 3)))
        for before in (1, 2, 3):
            pre = Conv2D(kernel=source.uniform((before, before, 2, 2), -0.6, 0.6),
                         bias=source.uniform((2,), -0.2, 0.2), padding="same")
            shape = layer.out_shape(pre.out_shape((9, 8, 2)))
            model = Model(input_shape=(9, 8, 2), layers=[
                Dropout(), pre, PReLU(alpha=source.uniform((9, 8, 2), -0.5, 0.5)), layer, Flatten(),
                Dense(weights=source.uniform((int(np.prod(shape)), 3), -0.5, 0.5), bias=np.zeros(3, dtype=F))])
            xs = source.uniform((2, 9, 8, 2), -3.0, 3.0)
            elements = np.arange(9 * 8 * 2)
            picks = elements % 2
            _check_against_full_recompute(model, xs, 0, picks, elements, [("flip", 30)] * elements.size)

    def test_a_fault_that_a_max_pool_masks_stops_there(self, monkeypatch):
        """A lowered element that is not its pool window's maximum leaves the batch at the pool."""
        model = Model(input_shape=(4, 4, 1), layers=[
            Dropout(),
            MaxPool2D(window=(2, 2), stride=(2, 2)),
            Conv2D(kernel=np.ones((1, 1, 1, 2), dtype=F), bias=np.zeros(2, dtype=F)),
            Flatten(),
            Dense(weights=np.ones((8, 2), dtype=F), bias=np.zeros(2, dtype=F)),
        ])
        xs = np.arange(1, 17, dtype=F).reshape(1, 4, 4, 1)  # each 2 x 2 window's maximum is its bottom right
        golden = [xs, *_maps(model, xs)]
        seen = []
        real = executor_mod.forward_layer_batch

        def recording(layer, x, hook=None):
            seen.append((type(layer).__name__, x.shape[0]))
            return real(layer, x, hook)

        monkeypatch.setattr(executor_mod, "forward_layer_batch", recording)
        monkeypatch.setattr(executor_mod, "tail_scores_batch", lambda *args: pytest.fail("the tail ran"))
        rows = xs.copy()
        rows[0, 0, 0, 0] = 0.0  # top left of the first window: not its maximum
        start = _start_cone(model, 0, rows, np.array([0]))
        steps = [(index, live.size) for index, live, *_ in _cones(model, 0, *start, np.array([0]),
                                                                   lambda k: golden[k + 1])]
        assert steps == [(0, 1), (1, 0)]
        assert seen == [("MaxPool2D", 1)]
        live, scores = _replay_rows(model, 0, *start, np.array([0]), lambda k: golden[k + 1])
        assert live.size == 0 and scores.shape == (0, 2)

        seen.clear()
        rows = xs.copy()
        rows[0, 1, 1, 0] = 100.0  # the first window's maximum, raised: it reaches the conv
        start = _start_cone(model, 0, rows, np.array([5]))
        steps = [(index, live.size) for index, live, *_ in _cones(model, 0, *start, np.array([0]),
                                                                   lambda k: golden[k + 1])]
        assert steps == [(0, 1), (1, 1), (2, 1)]
        assert seen == [("MaxPool2D", 1), ("Conv2D", 1)]


class TestReplayEqualsOracle:
    @given(case=random_models(max_samples=12), data=st.data(), fault=st.sampled_from(FAULT_KINDS),
           bit=st.one_of(st.sampled_from([23, 30, 31]), st.integers(0, 31)), probability=st.sampled_from([0.4, 1.0]),
           seed=st.integers(0, 2**64 - 1), spill=st.booleans())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_equals_per_trial_full_tail(self, case, data, fault, bit, probability, seed, spill):
        """Predictions, records and uniforms equal the full-tail oracle byte for byte, spilled or not."""
        model, xs = case
        target = data.draw(st.integers(0, len(model.layers) - 1), label="target")
        dataset = Dataset(samples=xs, labels=np.zeros(xs.shape[0], dtype=np.uint32), class_count=model.class_count)
        per_sample = int(np.prod(model.output_shapes[target])) * 4
        budget = per_sample * (data.draw(st.integers(1, 3), label="rows per chunk") if spill else xs.shape[0])
        spec = FaultSpec(mode="layer", target=target, fault=fault, probability=probability, seed=seed,
                         bit=bit if fault == "bit_flip_specific" else None)
        with tempfile.TemporaryDirectory() as root:
            caches = layer_caches(model, dataset, [target], budget, root, extra=replay_layers(model, [target]))
            trials = range(3, 6)
            runs = run_injected_layerwise(model, caches, spec, trials)
            for trial, run in zip(trials, runs):
                for got, want, what in zip(run, reference_layerwise.run_trial(model, caches[target], spec, trial),
                                           ("preds", "records", "u")):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), (trial, what)
                    assert got.tobytes() == want.tobytes(), (trial, what)


class TestReplayLayers:
    def test_toy_cones_end_before_flatten(self, toy):
        model, _ = toy
        assert [layer.kind for layer in model.layers[7:9]] == ["Dropout", "Flatten"]
        assert replay_layers(model, [0]) == list(range(8))
        assert replay_layers(model, [5, 7]) == [5, 6, 7]
        assert replay_layers(model, [8, 11]) == [8, 11]

    def test_missing_cone_layers_are_named(self, toy, tmp_path):
        model, dataset = toy
        small = Dataset(samples=dataset.samples[:4], labels=dataset.labels[:4], class_count=dataset.class_count)
        caches = layer_caches(model, small, [4, 6], 1 << 20, tmp_path)
        spec = FaultSpec(mode="layer", target=4, fault="zero", probability=1.0, seed=0)
        with pytest.raises(executor_mod.ValidationError, match=r"lacks the outputs of layers \[5, 7\]"):
            run_injected_layerwise(model, caches, spec, [0])

    def test_cone_layers_are_read_once_per_window(self, toy, tmp_path, monkeypatch):
        """Each cone layer is read by row range: one read per window, and none when no row is replayed."""
        model, dataset = toy
        caches = layer_caches(model, dataset, [0], 64 << 10, tmp_path, extra=replay_layers(model, [0]))
        reads = []
        real = executor_mod.ActivationCache.read_rows

        def counting(self, start, stop):
            reads.append((self.layer, start, stop))
            return real(self, start, stop)

        monkeypatch.setattr(executor_mod.ActivationCache, "read_rows", counting)
        spec = FaultSpec(mode="layer", target=0, fault="bit_flip_specific", probability=0.0, seed=2, bit=30)
        run_injected_layerwise(model, caches, spec, range(2))
        assert reads == []
        run_injected_layerwise(model, caches, dataclasses.replace(spec, probability=1.0), range(2))
        per_chunk = caches[0].samples_per_chunk
        windows = [(lo, min(lo + per_chunk, dataset.samples.shape[0])) for lo in range(0, len(dataset), per_chunk)]
        assert sorted(reads) == sorted((k, lo, hi) for k in range(1, 8) for lo, hi in windows)
