"""Inference drivers: golden runs, injection hooks, split execution.

Layer-wise campaigns split the model at the injection layer.  The golden
pass runs every layer once per sample, `_BUILD_BATCH` samples at a time;
`golden_run` keeps only its predictions, and a cache build appends the
output of each targeted layer to that layer's payload file, `acts.bin`, and
stores the predictions beside it.  Trials read a payload in chunks of at
most `budget` bytes.  A cache is reused only when its content key (format
version, model, dataset samples, layer and budget) matches exactly.

Every trial corrupts copies of the cached rows its fault hit and replays
the tail only for the rows whose activation the fault actually changed;
every other row keeps its golden prediction.  This is bit-exact because
every kernel in `engine` computes each sample from its own row in a fixed
order.  The cache is never mutated by a trial.

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

CACHE_MANIFEST = "cache_manifest.json"
PAYLOAD_FILE = "acts.bin"
GOLDEN_FILE = "golden.bin"

#: Bumped whenever the on-disk cache layout changes; part of every cache key.
CACHE_FORMAT_VERSION = 3

#: Cap on how many samples the golden pass pushes through the model at once;
#: keeps transient compute buffers small.
_BUILD_BATCH = 256


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
# Activation cache
# ---------------------------------------------------------------------------


def _content_digest(model: Model, dataset: Dataset) -> str:
    """sha256 over everything a cache's bytes depend on apart from layer and budget.

    That is the model's input shape, every layer's configuration and weight
    bytes, and the dataset's samples.  Labels do not enter a forward pass.
    """
    h = hashlib.sha256()

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


def _cache_key(content: str, layer: int, budget: int) -> str:
    """The key a cache manifest must carry to be reused; see _content_digest."""
    doc = f"bitstorm-cache-v{CACHE_FORMAT_VERSION}\0{content}\0layer={int(layer)}\0budget={int(budget)}"
    return hashlib.sha256(doc.encode()).hexdigest()


@dataclass(eq=False)
class ActivationCache:
    """On-disk store of one layer's outputs for an entire dataset, read in chunks.

    `acts.bin` holds the outputs sample-major.  Chunk k is the byte range of
    samples [k * samples_per_chunk, (k + 1) * samples_per_chunk), so a chunk
    holds at most `budget` bytes.  `golden` holds the dataset's
    injection-free predictions, which the building pass computed alongside
    the activations.
    """

    directory: Path
    layer: int
    sample_count: int
    shape: tuple
    budget: int
    key: str
    golden: np.ndarray  # (sample_count,) int64, read-only

    @property
    def bytes_per_sample(self) -> int:
        return int(np.prod(self.shape)) * 4

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
        read-only; trials corrupt copies, never the cache.
        """
        path = self.directory / PAYLOAD_FILE
        with open(path, "rb") as fh:
            for k in range(self.chunk_count) if indices is None else indices:
                start = k * self.samples_per_chunk
                expected = self.chunk_bytes(k)
                fh.seek(start * self.bytes_per_sample)
                raw = fh.read(expected)
                if len(raw) != expected:
                    raise ValidationError(f"{path}: chunk {k} holds {len(raw)} bytes, manifest promises {expected}")
                yield start, np.frombuffer(raw, dtype="<f4").reshape((-1, *self.shape))
                del raw  # a caller that lets go of a chunk never holds two

    def save_manifest(self):
        doc = {
            "format_version": CACHE_FORMAT_VERSION,
            "key": self.key,
            "layer": self.layer,
            "sample_count": self.sample_count,
            "shape": list(self.shape),
            "dtype": "<f4",
            "budget": self.budget,
        }
        with replacing([self.directory / CACHE_MANIFEST], "wb") as (fh,):
            fh.write((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


def load_cache(directory) -> ActivationCache:
    """Read a cache's manifest and golden predictions (activations are read lazily)."""
    directory = Path(directory)
    path = directory / CACHE_MANIFEST
    if not path.is_file():
        raise ValidationError(f"cache manifest not found: {path}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("format_version") != CACHE_FORMAT_VERSION:
        raise ValidationError(f"{path}: cache format {doc.get('format_version')}, expected {CACHE_FORMAT_VERSION}")
    sample_count = int(doc["sample_count"])
    golden = np.frombuffer((directory / GOLDEN_FILE).read_bytes(), dtype="<i8").astype(np.int64, copy=False)
    if golden.size != sample_count:
        raise ValidationError(f"{directory / GOLDEN_FILE}: {golden.size} predictions, manifest promises {sample_count}")
    cache = ActivationCache(directory=directory, layer=int(doc["layer"]), sample_count=sample_count,
                            shape=tuple(doc["shape"]), budget=int(doc["budget"]), key=str(doc["key"]), golden=golden)
    if cache.budget < cache.bytes_per_sample:
        raise ValidationError(f"{path}: budget {cache.budget} bytes is below one sample's activation "
                              f"({cache.bytes_per_sample} bytes)")
    return cache


def _valid_cache(directory: Path, key: str) -> ActivationCache | None:
    """The cache in `directory` if its key matches and its payload is whole, else None."""
    try:
        cache = load_cache(directory)
        if cache.key != key or (directory / PAYLOAD_FILE).stat().st_size != cache.total_bytes:
            return None
    except (OSError, ValueError, KeyError, TypeError, ValidationError):
        return None
    return cache


def _write_caches(model: Model, dataset: Dataset, directories: dict, budget: int, content: str) -> dict:
    """One golden pass that builds the cache of every layer in `directories`.

    Each layer's outputs are appended to its payload as the pass produces
    them.  A crash leaves no manifest, so a half-built cache is never read:
    the old manifest goes first, every payload and golden prediction file is
    renamed into place whole once the pass is done, and the manifest is
    written last.
    """
    _check_pairing(model, dataset)
    caches = {}
    for layer, directory in directories.items():
        if not 0 <= layer < len(model.layers):
            raise ValidationError(f"layer index {layer} out of range for {len(model.layers)} layers")
        cache = ActivationCache(directory=Path(directory), layer=layer, sample_count=len(dataset),
                                shape=model.output_shapes[layer], budget=int(budget),
                                key=_cache_key(content, layer, budget), golden=np.empty(0, dtype=np.int64))
        if budget < cache.bytes_per_sample:
            raise ResourceError(f"memory budget {budget} bytes is below one sample's activation "
                                f"({cache.bytes_per_sample} bytes)")
        caches[layer] = cache
    try:
        for cache in caches.values():
            cache.directory.mkdir(parents=True, exist_ok=True)
            (cache.directory / CACHE_MANIFEST).unlink(missing_ok=True)
            for stale in cache.directory.glob("chunk_*"):  # the per-chunk files of format 2
                stale.unlink()
        paths = [cache.directory / name for name in (PAYLOAD_FILE, GOLDEN_FILE) for cache in caches.values()]
        with replacing(paths, "wb") as files:
            payloads = dict(zip(caches, files))

            def emit(index, rows):
                if index in payloads:
                    payloads[index].write(np.ascontiguousarray(rows, dtype="<f4").data)

            golden = _golden_pass(model, dataset, emit)
            for fh in files[len(caches):]:
                fh.write(golden.astype("<i8").tobytes())
        golden.flags.writeable = False
        for cache in caches.values():
            cache.golden = golden
            cache.save_manifest()
    except OSError as exc:
        raise ResourceError(f"failed to write an activation cache: {exc}") from None
    return caches


def build_cache(model: Model, dataset: Dataset, layer: int, budget: int, directory) -> ActivationCache:
    """Run the model once and persist one layer's outputs, read back in chunks within `budget`.

    Each chunk holds at most `budget // bytes_per_sample` samples; a larger
    dataset spills into further chunks of the same payload file, read back
    sequentially during replay.
    """
    return _write_caches(model, dataset, {layer: directory}, budget, _content_digest(model, dataset))[layer]


def layer_caches(model: Model, dataset: Dataset, layers, budget: int, cache_root) -> dict:
    """The cache of every layer in `layers` under `cache_root/cache_layer_<k>`.

    A cache whose key matches is reused; all others are built by a single
    forward pass.  Returns {layer: ActivationCache}.
    """
    _check_pairing(model, dataset)
    content = _content_digest(model, dataset)
    caches, missing = {}, {}
    for layer in layers:
        directory = Path(cache_root) / f"cache_layer_{layer}"
        cache = _valid_cache(directory, _cache_key(content, layer, budget))
        if cache is None:
            missing[layer] = directory
        else:
            caches[layer] = cache
    if missing:
        caches.update(_write_caches(model, dataset, missing, budget, content))
    return {layer: caches[layer] for layer in layers}


# ---------------------------------------------------------------------------
# Injected runs
# ---------------------------------------------------------------------------


def run_injected_layerwise(model: Model, cache: ActivationCache, spec: FaultSpec, trial: int):
    """One trial: inject at most once per sample into cached activations.

    The trial's words are drawn once for all samples and sliced per chunk.
    Only rows whose activation the fault changed (a record with original !=
    corrupted) go through the tail; every other row keeps the golden
    prediction stored in the cache.  Returns (preds, records, u), where u[i]
    is the Bernoulli uniform of records[i]; `at_probability` derives from
    them the trial at any lower probability.
    """
    if spec.mode != "layer":
        raise ValidationError("run_injected_layerwise requires an operation mode of 'layer'")
    if cache.layer != spec.target:
        raise ValidationError(f"cache holds layer {cache.layer} but spec targets layer {spec.target}")
    sample_ids = np.arange(cache.sample_count, dtype=np.uint64)
    words = draw_words(spec.seed, trial, sample_ids, cache.layer)
    preds = cache.golden.copy()
    all_records, all_u = [], []
    for start, acts in cache.iter_chunks():
        stop = start + acts.shape[0]
        rows, records, u = inject_batch(acts, spec, words[start:stop], trial, sample_ids[start:stop], cache.layer)
        del acts  # rows holds copies of the hit rows
        if records.size:
            all_records.append(records)
            all_u.append(u)
            changed = records["original"] != records["corrupted"]
            if not changed.all():
                rows = rows[changed]
            if rows.shape[0]:
                preds[records["sample"][changed].astype(np.int64)] = predict_batch(
                    tail_scores_batch(model, cache.layer, rows))
        del rows  # neither the chunk nor its hit rows outlive the next read
    if not all_records:
        return preds, np.empty(0, dtype=RECORD_DTYPE), np.empty(0)
    return preds, np.concatenate(all_records), np.concatenate(all_u)


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
