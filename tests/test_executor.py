"""Executor tests: golden runs, split execution, caches, injected runs."""

import dataclasses
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest

import bitstorm.executor as executor_mod
from bitstorm.campaign import accuracy
from bitstorm.engine import forward_batch, predict, predict_batch, tail_scores_batch
from bitstorm.errors import ResourceError, ValidationError
from bitstorm.executor import (
    at_probability,
    boundary_layers,
    build_cache,
    golden_run,
    layer_caches,
    replay_layers,
    run_injected_layerwise,
    run_injected_opwise,
    run_tail,
)
from bitstorm.faults import FaultSpec, derive_stream, maybe_inject
from bitstorm.microops import INJECTABLE_KINDS, expand_prelu
from bitstorm.model_io import Dataset

F = np.float32


def _replay_store(model, dataset, target, budget, root):
    """{layer: cache}: the store a layer-wise replay of `target` reads."""
    return layer_caches(model, dataset, [target], budget, root, extra=replay_layers(model, [target]))


def _small_dataset(dataset, count):
    return Dataset(
        samples=dataset.samples[:count], labels=dataset.labels[:count], class_count=dataset.class_count
    )


class TestGoldenRun:
    def test_deterministic(self, toy):
        model, dataset = toy
        a = golden_run(model, dataset)
        b = golden_run(model, dataset)
        assert np.array_equal(a, b)

    def test_self_accuracy_is_one(self, toy):
        model, dataset = toy
        g = golden_run(model, dataset)
        assert accuracy(g, g) == 1.0

    def test_shape_mismatch_rejected(self, toy):
        model, _ = toy
        bad = Dataset(samples=np.zeros((4, 3, 3, 1), dtype=F), labels=np.zeros(4, dtype=np.uint32), class_count=2)
        with pytest.raises(ValidationError, match="input"):
            golden_run(model, bad)

    def test_equals_whole_batch_forward(self, toy, monkeypatch):
        model, dataset = toy
        want = predict_batch(forward_batch(model, dataset.samples))
        monkeypatch.setattr(executor_mod, "_BUILD_BATCH", 7)
        assert np.array_equal(golden_run(model, dataset), want)

    def test_holds_one_batch_at_a_time(self, toy):
        """The golden pass is bounded by its batch, not by the dataset.

        Bound: `_BUILD_BATCH` samples of the widest layer's working set,
        counted as its input and twice its output, 8 bytes a sample for the
        predictions, and 256 KiB for small arrays.  A conv holds its input,
        its output and one sample block's scratch: an accumulator and a term
        of at most `engine._TERM_BYTES` each and one channel's patch, less
        than a second output at these widths.  A pass over all 2560 samples
        at once peaks near 53 MiB here; the bound is about 5.5 MiB.
        """
        model, small = toy
        copies = 8
        dataset = Dataset(samples=np.tile(small.samples, (copies, 1, 1, 1)), labels=np.tile(small.labels, copies),
                          class_count=small.class_count)
        golden_run(model, small)  # numpy's lazy imports are not the pass's
        tracemalloc.start()
        try:
            preds = golden_run(model, dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(preds, np.tile(golden_run(model, small), copies))
        widest = max(int(np.prod(model.input_shape_of(i))) + 2 * int(np.prod(model.output_shapes[i]))
                     for i in range(len(model.layers)))
        bound = executor_mod._BUILD_BATCH * 4 * widest + 8 * len(dataset) + (256 << 10)
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


class TestSplitExecution:
    def test_head_plus_tail_matches_full_forward_every_layer(self, toy, tmp_path):
        model, dataset = toy
        subset = _small_dataset(dataset, 24)
        full = predict_batch(forward_batch(model, subset.samples))
        for layer in range(len(model.layers)):
            cache = build_cache(model, subset, layer, 1 << 20, tmp_path / f"c{layer}")
            preds = []
            for start, acts in cache.iter_chunks():
                preds.extend(int(p) for p in predict_batch(tail_scores_batch(model, layer, acts)))
            assert preds == full.tolist(), f"split at layer {layer} diverged"

    def test_run_tail_at_last_layer_is_predict(self, toy):
        model, dataset = toy
        scores = forward_batch(model, dataset.samples[:4])
        last = len(model.layers) - 1
        for i in range(4):
            assert run_tail(model, last, scores[i]) == predict(scores[i])

    def test_run_tail_shape_mismatch(self, toy):
        model, _ = toy
        with pytest.raises(ValidationError, match="does not match"):
            run_tail(model, 0, np.zeros((3, 3, 1), dtype=F))


class TestActivationCache:
    def test_chunked_and_unchunked_payloads_identical(self, toy, tmp_path):
        model, dataset = toy
        subset = _small_dataset(dataset, 10)
        layer = 3
        per_sample = int(np.prod(model.output_shapes[layer])) * 4
        big = build_cache(model, subset, layer, 1 << 26, tmp_path / "big")
        small = build_cache(model, subset, layer, per_sample * 3, tmp_path / "small")
        assert big.chunk_count == 1 and small.chunk_count == 4
        assert [len(b) for b in _chunk_bytes(small)] == [3 * per_sample] * 3 + [per_sample]
        assert b"".join(_chunk_bytes(big)) == b"".join(_chunk_bytes(small))
        assert big.path.read_bytes() == small.path.read_bytes()

    def test_payload_size_arithmetic(self, toy, tmp_path):
        model, dataset = toy
        subset = _small_dataset(dataset, 10)
        cache = build_cache(model, subset, 3, 1 << 26, tmp_path / "c")
        assert model.output_shapes[3] == (8, 8, 8)
        assert cache.total_bytes == 10 * 512 * 4

    def test_budget_below_one_sample(self, toy, tmp_path):
        model, dataset = toy
        with pytest.raises(ResourceError, match="budget"):
            build_cache(model, dataset, 3, 16, tmp_path / "c")

    def test_rebuild_is_byte_identical(self, toy, tmp_path):
        model, dataset = toy
        subset = _small_dataset(dataset, 12)
        a = build_cache(model, subset, 2, 4096, tmp_path / "a")
        b = build_cache(model, subset, 2, 4096, tmp_path / "b")
        assert a.chunk_count > 1
        assert _chunk_bytes(a) == _chunk_bytes(b)

    def test_manifest_round_trip(self, toy, tmp_path, monkeypatch):
        model, dataset = toy
        subset = _small_dataset(dataset, 8)
        built = build_cache(model, subset, 5, 1 << 20, tmp_path)
        passes = _count_passes(monkeypatch)
        loaded = layer_caches(model, subset, [5], 1 << 20, tmp_path)[5]
        assert not passes
        assert (loaded.path, loaded.layer, loaded.sample_count, loaded.shape) == (
            built.path, built.layer, built.sample_count, built.shape)
        doc = json.loads((tmp_path / STORE_FILE).read_text())
        assert sorted(doc) == ["format_version", "key", "layers", "sample_count"]  # chunking is derived, never stored
        assert (doc["format_version"], doc["sample_count"], doc["layers"]) == (4, 8, [5])

    def test_trials_leave_chunks_byte_identical(self, toy, tmp_path):
        model, dataset = toy
        subset = _small_dataset(dataset, 16)
        caches = _replay_store(model, subset, 6, 1 << 20, tmp_path / "c")
        payloads = [cache.path for cache in caches.values()]
        digests_before = [hashlib.sha256(payload.read_bytes()).hexdigest() for payload in payloads]
        spec = FaultSpec(mode="layer", target=6, fault="random_value", probability=1.0, seed=3)
        run_injected_layerwise(model, caches, spec, range(3))
        assert [hashlib.sha256(payload.read_bytes()).hexdigest() for payload in payloads] == digests_before


class TestLayerwiseInjection:
    def test_probability_zero_equals_golden(self, toy, tmp_path):
        model, dataset = toy
        golden = golden_run(model, dataset)
        caches = _replay_store(model, dataset, 4, 1 << 26, tmp_path / "c")
        spec = FaultSpec(mode="layer", target=4, fault="bit_flip_random", probability=0.0, seed=21)
        (preds, records, _), = run_injected_layerwise(model, caches, spec, trials=[0])
        assert np.array_equal(preds, golden)
        assert records.size == 0

    def test_probability_one_gives_one_record_per_sample(self, toy, tmp_path):
        model, dataset = toy
        subset = _small_dataset(dataset, 20)
        caches = _replay_store(model, subset, 2, 1 << 26, tmp_path / "c")
        spec = FaultSpec(mode="layer", target=2, fault="bit_flip_random", probability=1.0, seed=22)
        (preds, records, _), = run_injected_layerwise(model, caches, spec, trials=[5])
        assert records.size == 20
        assert np.array_equal(np.sort(records["sample"]), np.arange(20, dtype=np.uint64))

    def test_cache_spec_layer_mismatch(self, toy, tmp_path):
        model, dataset = toy
        cache = build_cache(model, _small_dataset(dataset, 4), 2, 1 << 26, tmp_path / "c")
        spec = FaultSpec(mode="layer", target=3, fault="zero", probability=1.0, seed=0)
        with pytest.raises(ValidationError, match="targets layer 3"):
            run_injected_layerwise(model, {2: cache}, spec, trials=[0])

    def test_trial_holds_one_chunk_at_a_time(self, toy, tmp_path):
        """A spilled trial drops each chunk before it reads the next one.

        Bound: one chunk, the file reader's buffer, and 64 bytes a sample for
        the trial's words (32), sample ids (8), predictions (8) and the small
        arrays of each chunk.  A loop that keeps the previous chunk during the
        next read peaks near 2.35 chunks here.
        """
        model, dataset = toy
        caches = _replay_store(model, dataset, 0, 64 << 10, tmp_path / "c")
        cache = caches[0]
        assert cache.chunk_count > 2
        spec = FaultSpec(mode="layer", target=0, fault="bit_flip_random", probability=0.0, seed=3)
        run_injected_layerwise(model, caches, spec, trials=[1])  # numpy's lazy imports are not the trial's
        tracemalloc.start()
        try:
            run_injected_layerwise(model, caches, spec, trials=[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = cache.chunk_bytes(0) + io.DEFAULT_BUFFER_SIZE + 64 * cache.sample_count
        assert peak <= bound, f"peak {peak} bytes, bound {bound} bytes"

    def test_sign_flip_of_top_logit_changes_prediction(self, toy):
        model, dataset = toy
        scores = forward_batch(model, dataset.samples[:1])[0].copy()
        top = int(np.argmax(scores))
        flipped = scores.copy()
        flipped.view(np.uint32)[top] ^= np.uint32(1) << np.uint32(31)
        last = len(model.layers) - 1
        assert run_tail(model, last, flipped) != run_tail(model, last, scores)


@pytest.fixture(scope="module")
def prelu_store(toy_prelu, tmp_path_factory):
    """The golden store of every op-wise boundary of the PReLU toy."""
    model, dataset = toy_prelu
    expanded = expand_prelu(model)
    layers = boundary_layers(expanded, INJECTABLE_KINDS)
    return expanded, layer_caches(model, dataset, layers, 1 << 26, tmp_path_factory.mktemp("prelu_store"))


class TestOpwiseInjection:
    def test_probability_zero_equals_golden(self, toy_prelu, prelu_store, monkeypatch):
        model, dataset = toy_prelu
        expanded, caches = prelu_store
        golden = golden_run(model, dataset)
        spec = FaultSpec(mode="op", target=("Add",), fault="bit_flip_random", probability=0.0, seed=31)
        monkeypatch.setattr(executor_mod, "run_microops_batch", None)  # p = 0 runs no pass
        [[(preds, records)]] = run_injected_opwise(expanded, dataset, caches, spec, [0], [0.0])
        assert np.array_equal(preds, golden)
        assert records.size == 0

    def test_probability_one_record_count(self, toy_prelu, prelu_store):
        _, dataset = toy_prelu
        expanded, caches = prelu_store
        adds = expanded.count_ops({"Add"})
        spec = FaultSpec(mode="op", target=("Add",), fault="bit_flip_random", probability=1.0, seed=32)
        [[(_, records)]] = run_injected_opwise(expanded, dataset, caches, spec, [1], [1.0])
        assert records.size == adds * len(dataset)

    def test_absent_target_is_an_error(self, toy, prelu_store):
        model, dataset = toy  # the 12-layer toy has no arithmetic micro-ops
        expanded = expand_prelu(model)
        spec = FaultSpec(mode="op", target=("Add",), fault="zero", probability=0.5, seed=0)
        with pytest.raises(ValidationError, match="Add"):
            run_injected_opwise(expanded, dataset, prelu_store[1], spec, [0], [0.5])

    def test_multi_kind_target(self, toy_prelu, prelu_store):
        _, dataset = toy_prelu
        expanded, caches = prelu_store
        kinds = {"Add", "Sub", "Mul"}
        count = expanded.count_ops(kinds)
        spec = FaultSpec(mode="op", target=tuple(sorted(kinds)), fault="bit_flip_random", probability=1.0, seed=33)
        [[(_, records)]] = run_injected_opwise(expanded, dataset, caches, spec, [0], [1.0])
        assert records.size == count * len(dataset)
        assert len(set(records["site"].tolist())) == count

    def test_missing_boundary_is_an_error(self, toy_prelu, prelu_store):
        _, dataset = toy_prelu
        expanded, caches = prelu_store
        spec = FaultSpec(mode="op", target=("Add",), fault="zero", probability=0.5, seed=0)
        with pytest.raises(ValidationError, match="golden store"):
            run_injected_opwise(expanded, dataset, {0: caches[0]}, spec, [0], [0.5])

    def test_budget_below_one_sample_is_a_resource_error(self, toy_prelu, tmp_path):
        model, dataset = toy_prelu
        expanded = expand_prelu(model)
        caches = layer_caches(model, dataset, boundary_layers(expanded, {"Add"}), 1600, tmp_path)
        spec = FaultSpec(mode="op", target=("Add",), fault="zero", probability=0.5, seed=0)
        with pytest.raises(ResourceError, match="micro-op working set"):
            run_injected_opwise(expanded, dataset, caches, spec, [0], [0.5])


class TestPassThroughEquivalence:
    @pytest.mark.parametrize("pass_idx", [3, 8, 10])  # dropout, flatten, dropout
    def test_position_mapped_injection_matches_preceding_layer(self, toy, tmp_path, pass_idx):
        """Corrupting a pass-through layer's output is bit-identical to
        corrupting the same flat element of its preceding layer's output."""
        model, dataset = toy
        subset = _small_dataset(dataset, 16)
        prev_idx = pass_idx - 1
        cache_prev = build_cache(model, subset, prev_idx, 1 << 26, tmp_path / f"p{prev_idx}")
        cache_pass = build_cache(model, subset, pass_idx, 1 << 26, tmp_path / f"p{pass_idx}")
        chunks_prev = list(cache_prev.iter_chunks())
        chunks_pass = list(cache_pass.iter_chunks())
        spec = FaultSpec(mode="layer", target=prev_idx, fault="bit_flip_random", probability=1.0, seed=41)
        for trial in range(10):
            preds_prev, preds_pass = [], []
            for (start, acts_prev), (_, acts_pass) in zip(chunks_prev, chunks_pass):
                for i in range(acts_prev.shape[0]):
                    # position-mapped: the same stream drives both injections
                    out_prev, _ = maybe_inject(acts_prev[i], spec, derive_stream(41, trial, start + i, prev_idx))
                    out_pass, _ = maybe_inject(acts_pass[i], spec, derive_stream(41, trial, start + i, prev_idx))
                    preds_prev.append(run_tail(model, prev_idx, out_prev))
                    preds_pass.append(run_tail(model, pass_idx, out_pass))
            assert preds_prev == preds_pass


# ---------------------------------------------------------------------------
# One-pass cache building, content keys, crash safety, row skipping
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import reference_faults
from bitstorm.engine import Dense, Flatten, Model, ReLU
from bitstorm.executor import GOLDEN_FILE, STORE_FILE
from bitstorm.faults import FAULT_KINDS, RECORD_DTYPE, draw_words, inject_batch
from bitstorm.toygen import build_toy_cnn

#: Spills every layer up to flatten on the 320-sample toy (conv2 holds one
#: sample per chunk); the dense layers fit in one chunk.
SPILL_BUDGET = 8192
NO_SPILL_BUDGET = 1 << 26


def _chunk_bytes(cache):
    return [acts.tobytes() for _, acts in cache.iter_chunks()]


def _count_passes(monkeypatch):
    """Patch the golden pass to record its calls; returns the (growing) list of calls."""
    calls = []
    real = executor_mod._golden_pass

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "_golden_pass", counting)
    return calls


@pytest.fixture(scope="module")
def toy_caches(toy, tmp_path_factory):
    """{budget: {layer: cache}} for every toy layer, at a spilling and a non-spilling budget."""
    model, dataset = toy
    root = tmp_path_factory.mktemp("caches")
    return {b: layer_caches(model, dataset, range(len(model.layers)), b, root / str(b))
            for b in (SPILL_BUDGET, NO_SPILL_BUDGET)}


def _relu_model():
    """ReLU -> Flatten -> Dense: about half of the ReLU outputs are exactly zero."""
    rng = np.random.default_rng(11)
    dense = Dense(weights=rng.standard_normal((18, 5)).astype(F), bias=rng.standard_normal(5).astype(F),
                  activation="softmax")
    model = Model(input_shape=(3, 3, 2), layers=[ReLU(), Flatten(), dense])
    dataset = Dataset(samples=rng.standard_normal((40, 3, 3, 2)).astype(F),
                      labels=np.zeros(40, dtype=np.uint32), class_count=5)
    return model, dataset


@pytest.fixture(scope="module")
def relu_caches(tmp_path_factory):
    """(model, {budget: {layer: cache}}) for the ReLU model; 72 bytes/sample spills at 200."""
    model, dataset = _relu_model()
    root = tmp_path_factory.mktemp("relu_caches")
    return model, {b: layer_caches(model, dataset, range(3), b, root / str(b)) for b in (200, NO_SPILL_BUDGET)}


class TestOnePass:
    def test_one_pass_equals_per_layer_builds(self, toy, toy_caches, tmp_path):
        model, dataset = toy
        for layer, cache in toy_caches[SPILL_BUDGET].items():
            single = build_cache(model, dataset, layer, SPILL_BUDGET, tmp_path / f"c{layer}")
            assert (single.samples_per_chunk, single.chunk_count) == (cache.samples_per_chunk, cache.chunk_count)
            assert _chunk_bytes(single) == _chunk_bytes(cache), f"layer {layer}"

    def test_stored_golden_equals_golden_run(self, toy, toy_caches):
        model, dataset = toy
        golden = golden_run(model, dataset)
        for caches in toy_caches.values():
            for layer, cache in caches.items():
                assert np.array_equal(cache.golden, golden), f"layer {layer}"
            stored = np.fromfile(caches[0].path.parent / GOLDEN_FILE, dtype="<i8")
            assert np.array_equal(stored, golden)

    def test_store_holds_one_manifest_and_one_golden(self, toy, toy_caches):
        model, _ = toy
        for caches in toy_caches.values():
            names = sorted(p.name for p in caches[0].path.parent.iterdir())
            assert len(names) == 14
            assert names == sorted([STORE_FILE, GOLDEN_FILE, *(f"layer_{k}.bin" for k in range(len(model.layers)))])

    def test_chunks_straddling_pass_batches(self, toy, tmp_path, monkeypatch):
        model, dataset = toy
        subset = _small_dataset(dataset, 23)
        per_sample = int(np.prod(model.output_shapes[4])) * 4
        reference = build_cache(model, subset, 4, per_sample * 5, tmp_path / "ref")
        monkeypatch.setattr(executor_mod, "_BUILD_BATCH", 7)
        straddled = build_cache(model, subset, 4, per_sample * 5, tmp_path / "straddled")
        assert straddled.chunk_count == 5
        assert _chunk_bytes(straddled) == _chunk_bytes(reference)
        assert sorted(p.name for p in (tmp_path / "straddled").iterdir()) == sorted(
            ["layer_4.bin", GOLDEN_FILE, STORE_FILE])


class TestCacheKey:
    def test_valid_cache_is_reused_without_a_pass(self, toy, tmp_path, monkeypatch):
        model, dataset = toy
        subset = _small_dataset(dataset, 16)
        layer_caches(model, subset, [1, 6], 1 << 20, tmp_path)
        passes = _count_passes(monkeypatch)
        caches = layer_caches(model, subset, [6, 1], 1 << 20, tmp_path)
        assert list(caches) == [6, 1]
        assert not passes

    @pytest.mark.parametrize("change", ["weights", "samples", "budget"])
    def test_any_input_change_rebuilds(self, toy, tmp_path, monkeypatch, change):
        """A new model or new samples run a pass; a new budget only reads the stored payload in other chunks."""
        model, dataset = toy
        subset = _small_dataset(dataset, 16)
        first = layer_caches(model, subset, [5], 1 << 20, tmp_path)[5]
        key = json.loads((tmp_path / STORE_FILE).read_text())["key"]
        budget = 1 << 20
        if change == "weights":
            model, _ = build_toy_cnn(8)
        elif change == "samples":
            subset = _small_dataset(Dataset(samples=dataset.samples[16:], labels=dataset.labels[16:],
                                            class_count=dataset.class_count), 16)
        else:
            budget = first.bytes_per_sample * 3
        passes = _count_passes(monkeypatch)
        second = layer_caches(model, subset, [5], budget, tmp_path)[5]
        assert len(passes) == (change != "budget")
        assert (json.loads((tmp_path / STORE_FILE).read_text())["key"] == key) == (change == "budget")
        if change == "budget":
            assert (first.chunk_count, second.chunk_count) == (1, 6)
            assert b"".join(_chunk_bytes(second)) == b"".join(_chunk_bytes(first))
        monkeypatch.undo()
        fresh = build_cache(model, subset, 5, budget, tmp_path / "fresh")
        assert _chunk_bytes(second) == _chunk_bytes(fresh)
        assert np.array_equal(second.golden, golden_run(model, subset))


class TestCrashSafety:
    def _built(self, toy, root):
        model, dataset = toy
        subset = _small_dataset(dataset, 12)
        per_sample = int(np.prod(model.output_shapes[2])) * 4
        cache = layer_caches(model, subset, [2], per_sample * 5, root)[2]
        return model, subset, per_sample * 5, cache, _chunk_bytes(cache)

    def test_missing_manifest_is_rebuilt_not_read(self, toy, tmp_path):
        model, subset, budget, cache, original = self._built(toy, tmp_path)
        (tmp_path / STORE_FILE).unlink()
        cache.path.write_bytes(bytes(cache.total_bytes))  # right length, wrong content
        rebuilt = layer_caches(model, subset, [2], budget, tmp_path)[2]
        assert _chunk_bytes(rebuilt) == original

    def test_wrong_chunk_length_is_rebuilt_not_read(self, toy, tmp_path):
        model, subset, budget, cache, original = self._built(toy, tmp_path)
        cache.path.write_bytes(b"".join(original)[:-4])
        rebuilt = layer_caches(model, subset, [2], budget, tmp_path)[2]
        assert _chunk_bytes(rebuilt) == original

    def test_missing_golden_is_rebuilt(self, toy, tmp_path):
        model, subset, budget, cache, original = self._built(toy, tmp_path)
        (tmp_path / GOLDEN_FILE).unlink()
        rebuilt = layer_caches(model, subset, [2], budget, tmp_path)[2]
        assert np.array_equal(rebuilt.golden, golden_run(model, subset))
        assert _chunk_bytes(rebuilt) == original

    def test_crash_mid_build_leaves_no_manifest(self, toy, tmp_path, monkeypatch):
        root = tmp_path / "store"
        model, subset, budget, cache, original = self._built(toy, root)
        real = executor_mod.forward_layer_batch

        def crash_in_second_batch(model, layers):
            calls = {"n": 0}

            def forward(layer, x):
                calls["n"] += 1
                if calls["n"] > len(model.layers):
                    raise RuntimeError("simulated crash")
                return real(layer, x)

            monkeypatch.setattr(executor_mod, "_BUILD_BATCH", 4)
            monkeypatch.setattr(executor_mod, "forward_layer_batch", forward)
            with pytest.raises(RuntimeError, match="simulated"):
                layer_caches(model, subset, layers, budget, root)
            monkeypatch.undo()
            return sorted(p.name for p in root.iterdir())

        # Extending the store: the old payload stays, the manifest and every .tmp file are gone.
        assert crash_in_second_batch(model, [2, 5]) == [GOLDEN_FILE, "layer_2.bin"]
        assert cache.path.read_bytes() == b"".join(original)
        both = layer_caches(model, subset, [2, 5], budget, root)
        for layer in (2, 5):
            fresh = build_cache(model, subset, layer, budget, tmp_path / f"fresh{layer}")
            assert _chunk_bytes(both[layer]) == _chunk_bytes(fresh), f"layer {layer}"

        # Replacing it by another model's: its payloads go before the pass, so nothing stale is left to read.
        other, _ = build_toy_cnn(8)
        assert crash_in_second_batch(other, [2]) == [GOLDEN_FILE]
        rebuilt = layer_caches(model, subset, [2], budget, root)[2]
        assert _chunk_bytes(rebuilt) == original

    def test_older_format_is_rebuilt_and_its_directories_removed(self, toy, tmp_path):
        model, dataset = toy
        subset = _small_dataset(dataset, 12)
        for name in ("cache_layer_2", "cache_layer_7"):  # format 3 (and 2, with its chunk files)
            (tmp_path / name).mkdir()
            for file in ("cache_manifest.json", "acts.bin", "golden.bin", "chunk_0.bin.tmp"):
                (tmp_path / name / file).write_bytes(b"old")
        (tmp_path / "cache_layer_9").mkdir()  # no manifest: not a cache, kept
        (tmp_path / "layer_7.bin").write_bytes(b"old")  # a payload no manifest vouches for
        cache = layer_caches(model, subset, [2], 1 << 20, tmp_path)[2]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([STORE_FILE, GOLDEN_FILE, "layer_2.bin",
                                                                     "cache_layer_9"])
        assert _chunk_bytes(cache) == _chunk_bytes(build_cache(model, subset, 2, 1 << 20, tmp_path / "fresh"))

    def test_short_payload_is_an_error_on_read(self, toy, tmp_path):
        _, _, _, cache, original = self._built(toy, tmp_path)
        cache.path.write_bytes(b"".join(original)[:-4])
        with pytest.raises(ValidationError, match="manifest promises"):
            list(cache.iter_chunks())


class TestStoreSequences:
    """Random sequences of layer_caches calls on one root: how the manifest merges old and new layers."""

    @pytest.fixture(scope="class")
    def references(self, toy, tmp_path_factory):
        """{which: (model, dataset, golden, {layer: joined payload bytes of a fresh build_cache})}."""
        out = {}
        for which, (model, dataset) in {"toy": (toy[0], _small_dataset(toy[1], 24)), "relu": _relu_model()}.items():
            root = tmp_path_factory.mktemp(f"fresh_{which}")
            builds = {k: build_cache(model, dataset, k, NO_SPILL_BUDGET, root / str(k))
                      for k in range(len(model.layers))}
            fresh = {k: b"".join(_chunk_bytes(cache)) for k, cache in builds.items()}
            out[which] = model, dataset, golden_run(model, dataset), fresh
        return out

    @given(which=st.sampled_from(["toy", "relu"]),
           calls=st.lists(st.tuples(st.lists(st.integers(0, 11), min_size=1, max_size=4), st.integers(1, 24),
                                    st.integers(0, 3)), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_call_equals_fresh_builds(self, references, tmp_path_factory, monkeypatch, which, calls):
        model, dataset, golden, fresh = references[which]
        root = tmp_path_factory.mktemp("store")
        stored = set()
        with monkeypatch.context() as patch:
            passes = _count_passes(patch)
            for picks, rows, slack in calls:
                layers = list(dict.fromkeys(k % len(model.layers) for k in picks))
                # from one sample of the widest requested layer a chunk up to every sample (no spill)
                budget = rows * max(4 * int(np.prod(model.output_shapes[k])) for k in layers) + slack
                before = len(passes)
                caches = layer_caches(model, dataset, layers, budget, root)
                assert len(passes) - before == (not stored.issuperset(layers))
                stored.update(layers)
                assert list(caches) == layers
                for layer, cache in caches.items():
                    assert b"".join(_chunk_bytes(cache)) == fresh[layer], f"layer {layer}"
                    assert cache.samples_per_chunk == min(budget // cache.bytes_per_sample, len(dataset))
                    assert np.array_equal(cache.golden, golden)
                assert json.loads((root / STORE_FILE).read_text())["layers"] == sorted(stored)


def _full_recompute(model, cache, spec, trial):
    """Reference trial: every row, hit or not, goes through the tail."""
    preds, records = [], []
    for start, acts in cache.iter_chunks():
        ids = np.arange(start, start + acts.shape[0], dtype=np.uint64)
        words = draw_words(spec.seed, trial, ids, cache.layer)
        rows, recs, _ = inject_batch(acts, spec, words, trial, ids, site=cache.layer)
        corrupted = acts.copy()
        corrupted[rows] = reference_faults.corrupted_rows(acts, rows, recs)
        preds.append(predict_batch(tail_scores_batch(model, cache.layer, corrupted)))
        records.append(recs)
    return np.concatenate(preds), np.concatenate(records)


class TestRowSkipping:
    @given(which=st.sampled_from(["toy", "relu"]), seed=st.integers(0, 2**63), trial=st.integers(0, 10**6),
           layer=st.integers(0, 11), probability=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
           fault=st.sampled_from(FAULT_KINDS), bit=st.integers(0, 31), spill=st.booleans())
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_full_tail_recompute(self, toy, toy_caches, relu_caches, which, seed, trial, layer,
                                        probability, fault, bit, spill):
        if which == "toy":
            model, caches = toy[0], toy_caches[SPILL_BUDGET if spill else NO_SPILL_BUDGET]
        else:
            model, by_budget = relu_caches
            caches = by_budget[200 if spill else NO_SPILL_BUDGET]
        layer %= len(model.layers)
        cache = caches[layer]
        spec = FaultSpec(mode="layer", target=layer, fault=fault, probability=probability, seed=seed,
                         bit=bit if fault == "bit_flip_specific" else None)
        want_preds, want_records = _full_recompute(model, cache, spec, trial)
        (preds, records, _), = run_injected_layerwise(model, caches, spec, [trial])
        assert np.array_equal(preds, want_preds)
        assert np.array_equal(records, want_records)

    def test_spill_budgets_spill(self, toy_caches, relu_caches):
        assert toy_caches[SPILL_BUDGET][0].chunk_count > 1 and toy_caches[NO_SPILL_BUDGET][0].chunk_count == 1
        _, by_budget = relu_caches
        assert by_budget[200][0].chunk_count > 1 and by_budget[NO_SPILL_BUDGET][0].chunk_count == 1

    @pytest.mark.parametrize("fault", ["zero", "random_value"])
    def test_only_changed_rows_replay(self, relu_caches, monkeypatch, fault):
        model, by_budget = relu_caches
        caches = by_budget[200]
        cache = caches[0]
        spec = FaultSpec(mode="layer", target=0, fault=fault, probability=1.0, seed=5)
        replayed = []
        real = executor_mod.tail_scores_batch

        def counting(model, layer, acts):
            replayed.append(acts.shape[0])
            return real(model, layer, acts)

        monkeypatch.setattr(executor_mod, "tail_scores_batch", counting)
        (preds, records, _), = run_injected_layerwise(model, caches, spec, trials=[0])
        changed = int(np.count_nonzero(records["original"] != records["corrupted"]))
        assert records.size == cache.sample_count
        assert sum(replayed) == changed and all(n > 0 for n in replayed)
        if fault == "zero":
            assert 0 < changed < records.size  # zeroing a zero ReLU output changes nothing
        want, _ = _full_recompute(model, cache, spec, 0)
        assert np.array_equal(preds, want)


class TestProbabilityCoupling:
    """One replay at the largest probability yields the trial at every lower one."""

    @given(which=st.sampled_from(["toy", "relu"]), seed=st.integers(0, 2**64 - 1), trial=st.integers(0, 10**6),
           layer=st.integers(0, 11), fault=st.sampled_from(FAULT_KINDS), bit=st.integers(0, 31),
           spill=st.booleans(), ends=st.sampled_from([(), (0.0,), (1.0,), (0.0, 1.0)]),
           inner=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_derived_runs_equal_per_probability_runs(self, toy, toy_caches, relu_caches, which, seed, trial,
                                                      layer, fault, bit, spill, ends, inner):
        if which == "toy":
            model, caches = toy[0], toy_caches[SPILL_BUDGET if spill else NO_SPILL_BUDGET]
        else:
            model, by_budget = relu_caches
            caches = by_budget[200 if spill else NO_SPILL_BUDGET]
        layer %= len(model.layers)
        cache = caches[layer]
        probabilities = sorted({*inner, *ends})
        top = FaultSpec(mode="layer", target=layer, fault=fault, probability=probabilities[-1], seed=seed,
                        bit=bit if fault == "bit_flip_specific" else None)
        run, = run_injected_layerwise(model, caches, top, [trial])
        for p in probabilities:
            (want_preds, want_records, want_u), = run_injected_layerwise(
                model, caches, dataclasses.replace(top, probability=p), [trial])
            preds, records = at_probability(cache.golden, *run, p)
            assert np.array_equal(preds, want_preds), p
            assert records.dtype == RECORD_DTYPE and records.shape == want_records.shape, p
            for field in RECORD_DTYPE.names:
                assert np.array_equal(records[field], want_records[field]), (p, field)
            assert (want_u < p).all()


import math
from collections import Counter

from hypothesis import example

import reference_layerwise
from bitstorm.toygen import build_toy_prelu_cnn


def _distinct_keys(records) -> int:
    """The distinct (sample, element, corrupted) among changed records: the distinct window keys of a call."""
    changed = records[records["original"] != records["corrupted"]]
    return len(set(zip(changed["sample"].tolist(), changed["element"].tolist(), changed["corrupted"].tolist())))


@pytest.fixture(scope="module")
def prelu_caches(tmp_path_factory):
    """(model, {budget: {layer: cache}}) for the PReLU toy; 2000 bytes spill its first four layers."""
    model, dataset = build_toy_prelu_cnn()
    root = tmp_path_factory.mktemp("prelu_caches")
    layers = range(len(model.layers))
    return model, {b: layer_caches(model, dataset, layers, b, root / str(b)) for b in (2000, NO_SPILL_BUDGET)}


class TestTrialBatching:
    """A range of trials, chunk-outer and trial-inner, equals one trial at a time, byte for byte."""

    @given(which=st.sampled_from(["toy", "prelu", "relu"]), spill=st.booleans(), layer=st.integers(0, 11),
           fault=st.sampled_from(FAULT_KINDS), bit=st.integers(0, 31), probability=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2**64 - 1), first=st.integers(1, 10**6), block=st.sampled_from([None, 1, 2, 3]),
           extra=st.integers(1, 3), window=st.sampled_from([None, 24, 7]), narrow=st.booleans())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(which="toy", spill=False, layer=8, fault="bit_flip_specific", bit=30, probability=1.0, seed=101,
             first=3, block=None, extra=1, window=None, narrow=False)
    def test_equals_per_trial_oracle(self, toy, toy_caches, prelu_caches, relu_caches, which, spill, layer, fault,
                                     bit, probability, seed, first, block, extra, window, narrow):
        """Ranges start above 0 and cross a draw sub-block boundary; windows are cut from chunks of more rows.

        `block` sets the trials of a full window's draw sub-block (None: `_TRIAL_STREAMS` as it is, 8 trials
        on a 256-row window) and `window` the window rows (None: `_BUILD_BATCH`, which cuts the toy's whole
        320-row chunk in two).  The range holds one sub-block and 1-3 trials more.  None is kept wherever
        that sub-block holds at most 100 trials, that is on windows of 21 rows or more.  `narrow` starts
        each trial's row of the record buffer one record wide, so it is widened as the records come.
        """
        if which == "toy":
            model, caches = toy[0], toy_caches[SPILL_BUDGET if spill else NO_SPILL_BUDGET]
        elif which == "prelu":
            model, by_budget = prelu_caches
            caches = by_budget[2000 if spill else NO_SPILL_BUDGET]
        else:
            model, by_budget = relu_caches
            caches = by_budget[200 if spill else NO_SPILL_BUDGET]
        layer %= len(model.layers)
        cache = caches[layer]
        spec = FaultSpec(mode="layer", target=layer, fault=fault, probability=probability, seed=seed,
                         bit=bit if fault == "bit_flip_specific" else None)
        with pytest.MonkeyPatch.context() as patch:
            if window is not None:
                patch.setattr(executor_mod, "_BUILD_BATCH", window)
            if narrow:
                patch.setattr(executor_mod, "_trial_capacity", lambda samples, probability: 1)
            rows = min(executor_mod._BUILD_BATCH, cache.samples_per_chunk)  # of every window but a chunk's last
            if block is not None:
                patch.setattr(executor_mod, "_TRIAL_STREAMS", block * rows)
            block = max(1, executor_mod._TRIAL_STREAMS // rows)
            assume(block <= 100)  # the real constant draws hundreds of trials at once on a window of a few rows
            trials = range(first, first + block + extra)
            runs = run_injected_layerwise(model, caches, spec, trials)
        assert len(runs) == len(trials)
        for trial, run in zip(trials, runs):
            for got, want, what in zip(run, reference_layerwise.run_trial(model, cache, spec, trial),
                                       ("preds", "records", "u")):
                assert (got.dtype, got.shape) == (want.dtype, want.shape), (trial, what)
                assert got.tobytes() == want.tobytes(), (trial, what)

    def test_trial_capacity(self):
        """A row starts as wide as the samples at p = 1, and at the expected hits plus the margin below it."""
        assert executor_mod._trial_capacity(320, 1.0) == 320
        assert executor_mod._trial_capacity(320, 0.0) == 16
        assert executor_mod._trial_capacity(320, 0.5) == math.ceil(160 + 8 * math.sqrt(80)) + 16
        assert executor_mod._trial_capacity(5, 0.5) == 5

    def test_rejects_a_range_with_gaps(self, toy_caches, toy):
        spec = FaultSpec(mode="layer", target=8, fault="zero", probability=1.0, seed=1)
        with pytest.raises(ValidationError, match="contiguous"):
            run_injected_layerwise(toy[0], toy_caches[SPILL_BUDGET], spec, [0, 2])
        assert run_injected_layerwise(toy[0], toy_caches[SPILL_BUDGET], spec, []) == []

    def test_each_chunk_is_read_once_per_call(self, toy, toy_caches, monkeypatch):
        """However many draw sub-blocks a window takes, every chunk is read once per call."""
        model, caches = toy[0], toy_caches[SPILL_BUDGET]
        cache = caches[8]
        reads, draws = Counter(), []
        real, real_draw = executor_mod.ActivationCache.iter_chunks, executor_mod.draw_words

        def counting(self, indices=None):
            for start, acts in real(self, indices):
                reads[start] += 1
                yield start, acts

        def drawing(seed, trial, sample_ids, site):
            draws.append((len(trial), len(sample_ids)))
            return real_draw(seed, trial, sample_ids, site)

        monkeypatch.setattr(executor_mod.ActivationCache, "iter_chunks", counting)
        monkeypatch.setattr(executor_mod, "draw_words", drawing)
        monkeypatch.setattr(executor_mod, "_TRIAL_STREAMS", 4 * cache.samples_per_chunk)
        spec = FaultSpec(mode="layer", target=8, fault="bit_flip_random", probability=0.3, seed=4)
        trials = range(2, 15)
        assert cache.chunk_count > 1 and cache.samples_per_chunk < executor_mod._BUILD_BATCH
        run_injected_layerwise(model, caches, spec, trials)
        starts = range(0, cache.sample_count, cache.samples_per_chunk)
        assert reads == {start: 1 for start in starts}
        # a full chunk's window draws 4 trials at a time; the last chunk's 5 rows take all 13 trials in one draw
        rows = cache.samples_per_chunk
        assert draws == [(4, rows), (4, rows), (4, rows), (1, rows)] * (cache.chunk_count - 1) + [(13, 5)]
        assert max(n * rows for n, rows in draws) <= executor_mod._TRIAL_STREAMS

    @pytest.mark.parametrize("layer,budget,trials", [(8, SPILL_BUDGET, 20), (0, NO_SPILL_BUDGET, 2)])
    def test_tail_calls_stay_within_build_batch(self, toy, toy_caches, monkeypatch, layer, budget, trials):
        """At p = 1 every row changes; the tail takes each distinct changed row once, `_BUILD_BATCH` at most a call.

        A changed row's key is (window row, element, corrupted pattern), and a window's rows are its samples,
        so the distinct keys of a call are its distinct (sample, element, corrupted) records.  Target 0 at the
        whole budget stores one 320-row chunk, which one trial used to replay in one call.
        """
        model, caches = toy[0], toy_caches[budget]
        cache = caches[layer]
        replayed = []
        real = executor_mod.tail_scores_batch

        def counting(model, layer, acts):
            replayed.append(acts.shape[0])
            return real(model, layer, acts)

        monkeypatch.setattr(executor_mod, "tail_scores_batch", counting)
        spec = FaultSpec(mode="layer", target=layer, fault="bit_flip_specific", probability=1.0, seed=8, bit=30)
        runs = run_injected_layerwise(model, caches, spec, range(trials))
        records = np.concatenate([r for _, r, _ in runs])
        assert np.count_nonzero(records["original"] != records["corrupted"]) == trials * cache.sample_count
        distinct = _distinct_keys(records)
        assert distinct < records.size if layer == 8 else distinct <= records.size
        assert sum(replayed) == distinct
        assert max(replayed) <= executor_mod._BUILD_BATCH

    def test_a_key_is_replayed_once_across_draw_sub_blocks(self, toy, toy_caches, monkeypatch):
        """A key that an earlier draw sub-block of a window replayed is not replayed again by a later one.

        Zeroing one of the last layer's 10 outputs gives each sample at most 10 distinct rows, so 30 trials
        drawn 2 at a time repeat keys across sub-blocks; the tail still sees each distinct row once.
        """
        model, caches = toy[0], toy_caches[NO_SPILL_BUDGET]
        cache = caches[11]
        rows = []
        real = executor_mod.tail_scores_batch

        def keeping(model, layer, acts):
            rows.extend(row.tobytes() for row in acts)
            return real(model, layer, acts)

        monkeypatch.setattr(executor_mod, "tail_scores_batch", keeping)
        monkeypatch.setattr(executor_mod, "_TRIAL_STREAMS", 2 * executor_mod._BUILD_BATCH)
        spec = FaultSpec(mode="layer", target=11, fault="zero", probability=1.0, seed=3)
        runs = run_injected_layerwise(model, caches, spec, range(30))
        records = np.concatenate([r for _, r, _ in runs])
        changed = np.count_nonzero(records["original"] != records["corrupted"])
        distinct = _distinct_keys(records)
        assert distinct < changed // 2  # most changed rows repeat one that an earlier sub-block holds
        assert len(rows) == len(set(rows)) == distinct
        for trial, (preds, _, _) in enumerate(runs):
            assert np.array_equal(preds, reference_layerwise.run_trial(model, cache, spec, trial)[0])

    @staticmethod
    def _peak_and_bound(model, caches, target: int, trials, monkeypatch):
        """(peak, bound, kept, records) of one p = 1 call on `target`; its replays are stubbed.

        Bound, with n samples, T trials, w rows a window, s = min(T, `_TRIAL_STREAMS` // w) · w streams a
        draw sub-block and c = T · w changed records a window (every row changes at p = 1):
          - one chunk and the file reader's buffer;
          - the sub-block's s streams at 24 words each: their 4 words, the 4-word counters `draw_words`
            builds, `philox_block`'s 4 column copies, its 4-word stacked result and at most 8
            temporaries of a round (about 20 words a stream were measured), plus 128 bytes a stream for
            `inject_batch`'s own arrays (uniform, hit index, trial and row indices, element, material, the
            two patterns and a 44-byte record), and 48 bytes a stream for the trial row and place of each
            record and the three temporaries that make the place;
          - the window's c changed records, 137 bytes each: their row, trial index and element (8 bytes
            each) and pattern (4) kept per sub-block, and the concatenation of those (56 in all); the key
            and the three temporaries that make it (32); `np.unique`'s order, sorted keys, flags, running
            count and inverse index (33); and the scatter's sample index and gathered predictions (16);
          - at most `_BUILD_BATCH` distinct row copies, plus 32 bytes a row for the indices that write
            their patterns;
          - the records that are kept: every trial's predictions (8 bytes a sample), records (44 bytes)
            and uniforms (8 bytes), written in place into the call's buffer, which at p = 1 is exactly
            as wide as the samples;
          - 64 bytes a sample for the small arrays, as in the one-trial test above.
        Replays' own scratch (cones and tail) is not the loop's: `_replay_rows` returns zero scores here.
        The buffer is allocated by numpy here, not in a memory map, so that tracemalloc sees it.
        """
        cache = caches[target]
        n = cache.sample_count
        classes = model.output_shapes[-1][0]
        monkeypatch.setattr(executor_mod, "_replay_rows", lambda model, target, top, left, cone, samples, golden:
                            (np.arange(cone.shape[0]), np.zeros((cone.shape[0], classes), dtype=F)))
        monkeypatch.setattr(executor_mod, "_mapped", np.zeros)
        spec = FaultSpec(mode="layer", target=target, fault="bit_flip_specific", probability=1.0, seed=6, bit=30)
        run_injected_layerwise(model, caches, spec, [1])  # numpy's lazy imports are not the trials'
        tracemalloc.start()
        try:
            runs = run_injected_layerwise(model, caches, spec, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        t, w = len(trials), min(executor_mod._BUILD_BATCH, cache.samples_per_chunk)
        s, c = min(t, max(1, executor_mod._TRIAL_STREAMS // w)) * w, t * w
        kept = sum(p.nbytes + r.nbytes + u.nbytes for p, r, u in runs)
        records = sum(r.size for _, r, _ in runs)
        assert records == t * n
        bound = (cache.chunk_bytes(0) + io.DEFAULT_BUFFER_SIZE + s * (24 * 8 + 128 + 48) + c * 137
                 + min(c, executor_mod._BUILD_BATCH) * (cache.bytes_per_sample + 32) + kept + 64 * n)
        return peak, bound, kept, records

    def test_trial_block_memory(self, toy, toy_caches, monkeypatch):
        """A call holds one chunk, one draw sub-block's words and one window's changed records at a time.

        Target 8 at the spilling budget has 16 windows of 21 rows (the last of 5), and 120 trials take two
        draw sub-blocks a window.  Drawing all trials' words at once exceeds the bound, and so does
        holding all the call's records until its end to put them in trial order there.
        """
        model, caches = toy[0], toy_caches[SPILL_BUDGET]
        trials = range(7, 127)
        assert executor_mod._TRIAL_STREAMS // caches[8].samples_per_chunk < len(trials)
        peak, bound, kept, records = self._peak_and_bound(model, caches, 8, trials, monkeypatch)
        assert len(trials) * caches[8].sample_count * 32 * 5 > bound  # every trial's words and Philox temporaries
        assert kept + 56 * records > bound  # every record reordered at the call's end
        assert peak <= bound, f"peak {peak} bytes, bound {bound} bytes"

    def test_one_row_windows_memory(self, toy, toy_caches, monkeypatch):
        """Windows of one row keep nothing of their own past the window: their records go in place.

        Target 1 at the spilling budget stores one sample a chunk, so each of its 320 windows holds one
        row of each of 40 trials.  Keeping a piece of records and one of uniforms per (trial, window),
        at about 128 bytes of array header each, would exceed the bound; so would reordering every
        record at the end.
        """
        model, caches = toy[0], toy_caches[SPILL_BUDGET]
        assert caches[1].samples_per_chunk == 1
        trials = range(7, 47)
        peak, bound, kept, records = self._peak_and_bound(model, caches, 1, trials, monkeypatch)
        assert kept + 256 * len(trials) * caches[1].chunk_count > bound
        assert kept + 56 * records > bound
        assert peak <= bound, f"peak {peak} bytes, bound {bound} bytes"


import tempfile

from strategies import random_models
from bitstorm.executor import _window_keys


@st.composite
def _small_targets(draw):
    """(model, samples, target): a random model, its inputs, and a layer whose output has 1 to 8 elements."""
    model, xs = draw(random_models(max_samples=12))
    small = [k for k, shape in enumerate(model.output_shapes) if math.prod(shape) <= 8]  # the last layer is
    return model, xs, draw(st.sampled_from(small))


_TOY_MODEL, _TOY_DATASET = build_toy_cnn()


class TestDistinctRows:
    """A window replays each distinct (row, element, corrupted pattern) once, across every trial of the call."""

    @given(case=_small_targets(), fault=st.sampled_from(["zero", "bit_flip_specific"]), bit=st.integers(0, 31),
           probability=st.sampled_from([0.4, 1.0]), seed=st.integers(0, 2**64 - 1), first=st.integers(0, 10**6),
           count=st.integers(20, 40), spill=st.booleans(), streams=st.sampled_from([1, 16, 2048]),
           window=st.sampled_from([None, 3]))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @example(case=(_TOY_MODEL, _TOY_DATASET.samples, 11), fault="zero", bit=0, probability=1.0, seed=101, first=0,
             count=20, spill=False, streams=2048, window=None)
    def test_equals_per_trial_oracle_and_replays_each_key_once(self, case, fault, bit, probability, seed, first,
                                                               count, spill, streams, window):
        """Byte for byte the per-trial oracle, while the tail takes exactly the distinct changed keys.

        With 1 to 8 elements and 20-40 trials, keys repeat within a draw sub-block and across them
        (`streams` sets `_TRIAL_STREAMS`, `window` `_BUILD_BATCH`).  Past Flatten every distinct key reaches
        the tail; on a map its cone may end before, so the tail takes at most that many and `_start_cone`
        exactly that many.
        """
        model, xs, target = case
        dataset = Dataset(samples=xs, labels=np.zeros(xs.shape[0], dtype=np.uint32), class_count=model.class_count)
        per_sample = math.prod(model.output_shapes[target]) * 4
        budget = per_sample * (2 if spill else xs.shape[0])
        spec = FaultSpec(mode="layer", target=target, fault=fault, probability=probability, seed=seed,
                         bit=bit if fault == "bit_flip_specific" else None)
        started, tailed = [], []
        real_start, real_tail = executor_mod._start_cone, executor_mod.tail_scores_batch

        def starting(model, target, rows, elements):
            started.append(rows.shape[0])
            return real_start(model, target, rows, elements)

        def tailing(model, layer, acts):
            tailed.append(acts.shape[0])
            return real_tail(model, layer, acts)

        trials = range(first, first + count)
        with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
            caches = layer_caches(model, dataset, [target], budget, root, extra=replay_layers(model, [target]))
            patch.setattr(executor_mod, "_start_cone", starting)
            patch.setattr(executor_mod, "tail_scores_batch", tailing)
            patch.setattr(executor_mod, "_TRIAL_STREAMS", streams)
            if window is not None:
                patch.setattr(executor_mod, "_BUILD_BATCH", window)
            runs = run_injected_layerwise(model, caches, spec, trials)
            patch.undo()
            for trial, run in zip(trials, runs, strict=True):
                for got, want, what in zip(run, reference_layerwise.run_trial(model, caches[target], spec, trial),
                                           ("preds", "records", "u")):
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), (trial, what)
                    assert got.tobytes() == want.tobytes(), (trial, what)
        distinct = _distinct_keys(np.concatenate([r for _, r, _ in runs]))
        assert sum(started) == distinct
        if len(model.output_shapes[target]) == 3:
            assert sum(tailed) <= distinct
        else:
            assert sum(tailed) == distinct
        assert max(started, default=0) <= (window or executor_mod._BUILD_BATCH)

    def test_window_keys_do_not_collide(self):
        """Keys differ when only a large element index or only the corrupted pattern's top bit differs."""
        rows = np.array([3, 3], dtype=np.intp)
        top = np.array([0x80000000, 0], dtype=np.uint32)
        for n_rows, n_elements in [(4, 1000), (256, 2**40), (2**20, 2**44)]:
            elements = np.full(2, n_elements - 1, dtype=np.intp)
            keys = _window_keys(rows, elements, top, n_rows, n_elements)
            assert keys[0] != keys[1], (n_rows, n_elements)
            assert _window_keys(rows, elements, top[::-1], n_rows, n_elements)[0] == keys[1]
        # element e of one row never meets element e - n_elements of the next, nor one 2**32 away
        for n_elements in (1000, 2**33 + 5):
            big = np.array([2**32 + 7, 7, 7], dtype=np.intp) % n_elements
            keys = _window_keys(np.array([1, 1, 2], dtype=np.intp), big, np.zeros(3, dtype=np.uint32), 3, n_elements)
            assert np.unique(keys).size == len({(r, e) for r, e in zip([1, 1, 2], big.tolist())})
