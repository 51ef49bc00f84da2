"""Inference drivers: golden runs, injection hooks, split execution.

Layer-wise campaigns split the model at the injection layer.  The golden
pass runs every layer once per sample, `_BUILD_BATCH` samples at a time;
`golden_run` keeps only its predictions, and a store build appends the
output of each targeted layer to that layer's payload file, `layer_<k>.bin`,
and stores the predictions in the store's one `golden.bin`.  Trials read a
payload in chunks of at most `budget` bytes.  A store is reused only when
its content key (format version, model and dataset samples) matches
exactly; the budget is not part of it.

Layer-wise replays run chunk-outer and trial-inner.  A range of trials of
one target goes in blocks of `_TRIAL_STREAMS` (trial, sample) streams; a
block draws its words in one Philox call and reads each chunk once.  Each
chunk is cut into windows of at most `_BUILD_BATCH` rows, and a window
takes the block's trials a few at a time, so that no injection or tail
call handles more than `_BUILD_BATCH` rows.  Every trial corrupts copies of
the stored rows its fault hit and replays the tail only for the rows whose
activation the fault actually changed; every other row keeps its golden
prediction.  This is bit-exact because every kernel in `engine` computes
each sample from its own row in a fixed order, whatever else is in the
batch.  The store is never mutated by a trial.

A sample's fault depends on (seed, trial, sample, site) and not on the
probability, which only decides whether the sample is hit.  So the cells of
one target share their streams: a campaign replays each (target, trial)
once, at the largest probability of its sweep, and `at_probability`
derives every other probability from that one replay, bit for bit.

Operation-wise campaigns apply the fault model to the output of every
executed micro-op whose kind is targeted, so several faults may land during
a single inference.  They read the same store, at the output of the layer
before each layer that holds a site.  A trial draws the words of each
(trial, site) once, for all samples, which tells it before any pass which
samples a fault hits and in which layer first.  A sample no fault hits keeps
its golden prediction; every other one replays the micro-ops from the
golden input of its first hit layer, in chunks within the memory budget.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine
from .engine import Model, forward_layer_batch, predict_batch, tail_scores_batch
from .engine import head_batch  # noqa: F401  kept in this namespace: perfbench/test_selfcheck.py traces it here
from .errors import ResourceError, ValidationError
from .faults import RECORD_DTYPE, FaultSpec, draw_words, inject_batch, uniforms
from .microops import MicroOpModel, run_microops_batch
from .model_io import Dataset, replacing

STORE_FILE = "store.json"
GOLDEN_FILE = "golden.bin"

#: Bumped whenever the on-disk store layout changes; part of every store key.
CACHE_FORMAT_VERSION = 4

#: Cap on how many rows one call pushes through the model: the golden pass's
#: samples, and a layer-wise replay's window rows and tail rows.  Keeps
#: transient compute buffers small.
_BUILD_BATCH = 256

#: (trial, sample) streams whose words a layer-wise replay draws at once; a
#: block of max(1, _TRIAL_STREAMS // samples) trials shares each chunk read.
_TRIAL_STREAMS = 2048


def _check_pairing(model: Model, dataset: Dataset):
    if dataset.sample_shape != model.input_shape:
        raise ValidationError(
            f"dataset sample shape {dataset.sample_shape} does not match model input {model.input_shape}"
        )
    if dataset.class_count > model.class_count:
        raise ValidationError(
            f"dataset declares {dataset.class_count} classes but model scores {model.class_count}"
        )


def _golden_pass(model: Model, dataset: Dataset, emit=None) -> np.ndarray:
    """The golden predictions, from a forward pass of `_BUILD_BATCH` samples at a time.

    `emit(index, rows)`, when given, receives the output of layer `index`
    for each batch, in sample order.  Every kernel computes each sample from
    its own row, so the batch size changes no output bit.
    """
    _check_pairing(model, dataset)
    golden = np.empty(len(dataset), dtype=np.int64)
    for lo in range(0, len(dataset), _BUILD_BATCH):
        out = np.asarray(dataset.samples[lo : lo + _BUILD_BATCH], dtype=engine.F32)
        for index, layer in enumerate(model.layers):
            out = forward_layer_batch(layer, out)
            if emit is not None:
                emit(index, out)
        golden[lo : lo + out.shape[0]] = predict_batch(out)
    return golden


def golden_run(model: Model, dataset: Dataset) -> np.ndarray:
    """Injection-free predicted class per sample, int64 (INVALID_PREDICTION for all-NaN scores)."""
    return _golden_pass(model, dataset)


def run_tail(model: Model, layer_index: int, activation: np.ndarray) -> int:
    """Prediction from executing only the layers after `layer_index`."""
    scores = tail_scores_batch(model, layer_index, np.asarray(activation, dtype=engine.F32)[None])
    return int(predict_batch(scores)[0])


# ---------------------------------------------------------------------------
# Golden store
# ---------------------------------------------------------------------------


def _store_key(model: Model, dataset: Dataset) -> str:
    """sha256 over the store format and everything the stored bytes depend on.

    That is the model's input shape, every layer's configuration and weight
    bytes, and the dataset's samples.  Labels do not enter a forward pass,
    and the budget only sets how a payload is read.
    """
    h = hashlib.sha256(f"bitstorm-store-v{CACHE_FORMAT_VERSION}".encode())

    def put(label: str, value):
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value, dtype="<f4")
            h.update(f"\0{label}:{value.shape}:".encode())
            h.update(value.data)
        else:
            h.update(f"\0{label}={value!r}".encode())

    put("input_shape", model.input_shape)
    for layer in model.layers:
        put("kind", layer.kind)
        for f in dataclasses.fields(layer):
            put(f.name, getattr(layer, f.name))
    put("samples", dataset.samples)
    return h.hexdigest()


@dataclass(eq=False)
class ActivationCache:
    """One stored layer's outputs for an entire dataset, read in chunks.

    `path` holds the outputs sample-major.  Chunk k is the byte range of
    samples [k * samples_per_chunk, (k + 1) * samples_per_chunk), so a chunk
    holds at most `budget` bytes.  `golden` holds the dataset's
    injection-free predictions, which the building pass computed alongside
    the activations.
    """

    path: Path
    layer: int
    shape: tuple
    budget: int
    golden: np.ndarray  # (sample_count,) int64, read-only

    @property
    def sample_count(self) -> int:
        return self.golden.size

    @property
    def bytes_per_sample(self) -> int:
        return math.prod(self.shape) * 4

    @property
    def total_bytes(self) -> int:
        return self.bytes_per_sample * self.sample_count

    @property
    def samples_per_chunk(self) -> int:
        return min(self.budget // self.bytes_per_sample, self.sample_count)

    @property
    def chunk_count(self) -> int:
        return -(-self.sample_count // self.samples_per_chunk)

    def chunk_bytes(self, index: int) -> int:
        start = index * self.samples_per_chunk
        return min(self.samples_per_chunk, self.sample_count - start) * self.bytes_per_sample

    def iter_chunks(self, indices=None):
        """Yield (start_sample, activations) per chunk in sequential order.

        `indices` limits the read to those chunks (ascending); default all.
        Each chunk takes one seek and one read.  Activation arrays are
        read-only; trials corrupt copies, never the store.
        """
        with open(self.path, "rb") as fh:
            for k in range(self.chunk_count) if indices is None else indices:
                start = k * self.samples_per_chunk
                expected = self.chunk_bytes(k)
                fh.seek(start * self.bytes_per_sample)
                raw = fh.read(expected)
                if len(raw) != expected:
                    raise ValidationError(f"{self.path}: chunk {k} holds {len(raw)} bytes, "
                                          f"manifest promises {expected}")
                yield start, np.frombuffer(raw, dtype="<f4").reshape((-1, *self.shape))
                del raw  # a caller that lets go of a chunk never holds two


def _stored(root: Path, key: str, count: int):
    """(golden, listed layers) of the store under `root` if it is reusable, else None.

    It is reusable when `store.json` carries this format and `key` and
    `golden.bin` holds `count` predictions.
    """
    try:
        doc = json.loads((root / STORE_FILE).read_text(encoding="utf-8"))
        if (doc["format_version"], doc["key"], doc["sample_count"]) != (CACHE_FORMAT_VERSION, key, count):
            return None
        golden = np.frombuffer((root / GOLDEN_FILE).read_bytes(), dtype="<i8")  # read-only
        layers = {int(layer) for layer in doc["layers"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return (golden, layers) if golden.size == count else None


def layer_caches(model: Model, dataset: Dataset, layers, budget: int, cache_root) -> dict:
    """The golden outputs of every layer in `layers`, stored under `cache_root`.

    The store is one `store.json`, one `golden.bin` and a `layer_<k>.bin`
    payload per stored layer.  A reusable store's whole layers are read as
    they are; one forward pass builds every requested layer that is not, and
    adds it to the store.  `budget` only sets how many samples a chunk read
    holds, so it never causes a pass.  Returns {layer: ActivationCache}.

    A crash leaves no manifest, so a half-built store is never read: the
    manifest goes first, the new payloads and `golden.bin` are renamed into
    place whole once the pass is done, and the manifest is written last.
    """
    _check_pairing(model, dataset)
    layers = list(layers)
    root = Path(cache_root)
    views = {k: ActivationCache(path=root / f"layer_{k}.bin", layer=k, shape=shape, budget=int(budget),
                                golden=np.empty(0, dtype=np.int64))
             for k, shape in enumerate(model.output_shapes)}
    for layer in layers:
        if layer not in views:
            raise ValidationError(f"layer index {layer} out of range for {len(model.layers)} layers")
        if budget < views[layer].bytes_per_sample:
            raise ResourceError(f"memory budget {budget} bytes is below one sample's activation "
                                f"({views[layer].bytes_per_sample} bytes)")
    key = _store_key(model, dataset)
    stored = _stored(root, key, len(dataset))
    golden, listed = stored or (None, set())
    sizes = {path.name: path.stat().st_size for path in root.glob("layer_*.bin")}
    whole = {k for k in listed if k in views
             and sizes.get(views[k].path.name) == len(dataset) * views[k].bytes_per_sample}
    missing = sorted(set(layers) - whole)
    if missing:
        try:
            root.mkdir(parents=True, exist_ok=True)
            (root / STORE_FILE).unlink(missing_ok=True)
            if stored is None:  # payloads of another store, and the per-layer directories of format 3
                for stale in root.glob("layer_*.bin"):
                    stale.unlink()
                for manifest in root.glob("cache_layer_*/cache_manifest.json"):
                    shutil.rmtree(manifest.parent)
            with replacing([views[k].path for k in missing] + [root / GOLDEN_FILE], "wb") as files:
                payloads = dict(zip(missing, files))

                def emit(index, rows):
                    if index in payloads:
                        payloads[index].write(np.ascontiguousarray(rows, dtype="<f4").data)

                golden = _golden_pass(model, dataset, emit)
                files[-1].write(golden.astype("<i8").tobytes())
            golden.flags.writeable = False
            doc = {"format_version": CACHE_FORMAT_VERSION, "key": key, "sample_count": len(dataset),
                   "layers": sorted(whole.union(missing))}
            with replacing([root / STORE_FILE], "wb") as (fh,):
                fh.write((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())
        except OSError as exc:
            raise ResourceError(f"failed to write the golden store: {exc}") from None
    for layer in layers:
        views[layer].golden = golden
    return {layer: views[layer] for layer in layers}


def build_cache(model: Model, dataset: Dataset, layer: int, budget: int, directory) -> ActivationCache:
    """The golden outputs of one layer, stored under `directory`; see layer_caches."""
    return layer_caches(model, dataset, [layer], budget, directory)[layer]


# ---------------------------------------------------------------------------
# Injected runs
# ---------------------------------------------------------------------------


def run_injected_layerwise(model: Model, cache: ActivationCache, spec: FaultSpec, trials):
    """Trials `trials` (a contiguous ascending range) of one target; one (preds, records, u) per trial.

    Each trial injects at most once per sample into the stored activations.
    The loop runs chunk-outer and trial-inner: the trials go in blocks of
    max(1, _TRIAL_STREAMS // samples), each block draws its words in one
    call, and reads every chunk once.  A chunk is cut into windows of at
    most `_BUILD_BATCH` rows, and a window takes the block's trials in
    sub-blocks of max(1, _BUILD_BATCH // window rows); each sub-block makes
    one `inject_batch` call and replays the rows its faults changed (records
    with original != corrupted) in one tail call of at most `_BUILD_BATCH`
    rows.  Every other row keeps the golden prediction stored in the cache.
    This is bit-exact because the tail computes each row from its own input.

    Per trial, u[i] is the Bernoulli uniform of records[i], and records are
    in sample order; `at_probability` derives from them the trial at any
    lower probability.
    """
    if spec.mode != "layer":
        raise ValidationError("run_injected_layerwise requires an operation mode of 'layer'")
    if cache.layer != spec.target:
        raise ValidationError(f"cache holds layer {cache.layer} but spec targets layer {spec.target}")
    trials = list(trials)
    if trials != list(range(trials[0], trials[0] + len(trials)) if trials else []):
        raise ValidationError("trials must be a contiguous ascending range")
    sample_ids = np.arange(cache.sample_count, dtype=np.uint64)
    block = max(1, _TRIAL_STREAMS // cache.sample_count)
    runs = []
    for lo in range(0, len(trials), block):
        runs += _replay_block(model, cache, spec, trials[lo : lo + block], sample_ids)
    return runs


def _replay_block(model: Model, cache: ActivationCache, spec: FaultSpec, trials: list, sample_ids: np.ndarray):
    """The (preds, records, u) of each trial in `trials`, from one read of every chunk."""
    words = draw_words(spec.seed, trials, sample_ids, cache.layer)
    preds = np.tile(cache.golden, (len(trials), 1))
    parts, us = [np.empty(0, dtype=RECORD_DTYPE)], [np.empty(0)]
    for start, acts in cache.iter_chunks():
        for lo in range(0, acts.shape[0], _BUILD_BATCH):
            window = acts[lo : lo + _BUILD_BATCH]
            rows_of = slice(start + lo, start + lo + window.shape[0])
            step = max(1, _BUILD_BATCH // window.shape[0])
            for j in range(0, len(trials), step):
                rows, records, u = inject_batch(window, spec, words[j : j + step, rows_of], trials[j : j + step],
                                                sample_ids[rows_of], cache.layer)
                if not records.size:
                    continue
                parts.append(records)
                us.append(u)
                changed = records["original"] != records["corrupted"]
                if not changed.all():
                    rows, records = rows[changed], records[changed]
                if rows.shape[0]:
                    at = ((records["trial"] - np.uint64(trials[0])).astype(np.int64),
                          records["sample"].astype(np.int64))
                    preds[at] = predict_batch(tail_scores_batch(model, cache.layer, rows))
                del rows  # one sub-block's hit copies at a time
        del acts, window  # neither outlives the next read
    records, u = np.concatenate(parts), np.concatenate(us)
    del parts, us
    order = np.argsort(records["trial"], kind="stable")  # each trial's records are in sample order already
    records, u = records[order], u[order]
    cuts = np.searchsorted(records["trial"], np.array(trials[1:], dtype=np.uint64))
    return list(zip(preds, np.split(records, cuts), np.split(u, cuts)))


def at_probability(golden: np.ndarray, preds: np.ndarray, records: np.ndarray, u: np.ndarray, probability: float):
    """The (preds, records) of a layer-wise trial at `probability`, from the same trial at a higher one.

    (preds, records, u) is what run_injected_layerwise returned at the higher
    probability.  The result is bit-identical to running the trial at
    `probability`: a sample is hit there iff its u is below it, at the same
    element with the same material, and the tail computes each row from its
    own input alone, so a hit row keeps its replayed prediction and every
    other row takes the golden one.  Records keep their order.
    """
    hit = u < probability
    if hit.all():
        return preds, records
    out = golden.copy()
    samples = records["sample"][hit].astype(np.int64)
    out[samples] = preds[samples]
    return out, records[hit]


def boundary_layers(expanded: MicroOpModel, kinds) -> list:
    """The layers whose golden outputs op-wise trials over `kinds` replay from.

    A sample first hit in layer L > 0 starts from the output of layer L - 1;
    one first hit in layer 0 starts from the dataset.  When every site sits
    in layer 0, the last layer is named instead, so that the store still
    holds the golden predictions.
    """
    layers = {op.layer_index - 1 for op in expanded.all_ops() if op.kind in kinds and op.layer_index > 0}
    return sorted(layers) or [len(expanded.model.layers) - 1]


def _sample_bytes(expanded: MicroOpModel, layer: int, site_layers) -> int:
    """Bytes one sample needs while `layer` runs as micro-ops.

    That is its layer input and every micro-op output (each has the layer's
    output shape), plus the corrupted copy of a site's output in a layer
    that holds sites.
    """
    model = expanded.model
    outputs = len(expanded.ops_by_layer[layer]) + (layer in site_layers)
    return 4 * (int(np.prod(model.input_shape_of(layer))) + outputs * int(np.prod(model.output_shapes[layer])))


def run_injected_opwise(expanded: MicroOpModel, dataset: Dataset, caches: dict, spec: FaultSpec, trial: int):
    """One trial: apply the fault model to every targeted op execution.

    `caches` is the store `layer_caches` returns for (at least)
    boundary_layers(expanded, spec.target); its golden predictions and
    budget are the trial's.  Each site's words are drawn once for all
    samples before any pass, which gives every sample's first hit layer.  A
    sample no fault hits keeps its golden prediction, so p = 0 runs no pass.
    Every other sample replays the micro-ops from the golden input of its
    first hit layer, in chunks of at most budget // the bytes one sample
    needs in the widest layer it runs.  This is bit-exact because every
    kernel computes each sample from its own row, and the micro-op expansion
    matches the layers it replaces.  Returns (preds, records), records
    ordered by site and then sample.
    """
    if spec.mode != "op":
        raise ValidationError("run_injected_opwise requires an operation mode of 'op'")
    model = expanded.model
    _check_pairing(model, dataset)
    target = set(spec.target)
    expanded.require_kinds(target)
    boundaries = boundary_layers(expanded, target)
    missing = [layer for layer in boundaries if layer not in caches]
    if missing:
        raise ValidationError(f"the golden store lacks the outputs of layers {missing}")
    store = caches[boundaries[0]]
    sites = [op for op in expanded.all_ops() if op.kind in target]
    site_layers = {op.layer_index for op in sites}
    need = [_sample_bytes(expanded, layer, site_layers) for layer in range(len(model.layers))]
    widest = max(need[sites[0].layer_index:])
    if store.budget < widest:
        raise ResourceError(f"memory budget {store.budget} bytes is below one sample's micro-op working set "
                            f"({widest} bytes)")

    sample_ids = np.arange(len(dataset), dtype=np.uint64)
    words = {op.op_id: draw_words(spec.seed, trial, sample_ids, op.op_id) for op in sites}
    first = np.full(len(dataset), len(model.layers))
    for op in reversed(sites):  # sites run in layer order, so the earliest hit is written last
        first[uniforms(words[op.op_id][:, 0]) < spec.probability] = op.layer_index

    preds = store.golden.copy()
    parts = []
    batch = None  # the samples of the chunk being replayed, ascending

    def hook(op, out):
        if op.kind not in target:
            return out
        rows, records, _ = inject_batch(out, spec, words[op.op_id][batch], trial, sample_ids[batch], op.op_id)
        if records.size:
            parts.append(records)
            out[np.searchsorted(batch, records["sample"].astype(np.int64))] = rows  # out is fresh, unread so far
        return out

    for layer in sorted(site_layers):
        group = np.nonzero(first == layer)[0]
        if not group.size:
            continue
        rows_per_chunk = store.budget // max(need[layer:])
        if layer == 0:
            source = [(0, dataset.samples)]
        else:
            cache = caches[layer - 1]
            source = cache.iter_chunks(np.unique(group // cache.samples_per_chunk))
        for start, acts in source:
            lo, hi = np.searchsorted(group, [start, start + acts.shape[0]])
            for i in range(lo, hi, rows_per_chunk):
                batch = group[i : min(i + rows_per_chunk, hi)]
                scores = run_microops_batch(expanded, acts[batch - start], hook=hook, start=layer)
                preds[batch] = predict_batch(scores)
            del acts  # before the next store chunk is read
    if not parts:
        return preds, np.empty(0, dtype=RECORD_DTYPE)
    records = np.concatenate(parts)
    return preds, records[np.lexsort((records["sample"], records["site"]))]
