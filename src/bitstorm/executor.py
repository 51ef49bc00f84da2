"""Inference drivers: golden runs, injection hooks, split execution.

Layer-wise campaigns split the model at the injection layer.  The golden
pass runs every layer once per sample, `_BUILD_BATCH` samples at a time;
`golden_run` keeps only its predictions, and a store build appends the
output of each stored layer to that layer's payload file, `layer_<k>.bin`,
and stores the predictions in the store's one `golden.bin`.  A layer-wise
campaign stores each target and the layers its replays read
(`replay_layers`).  Trials read a target's payload in chunks of at most
`budget` bytes.  A store is reused only when its content key (format
version, model and dataset samples) matches exactly; the budget is not part
of it.

Layer-wise replays run chunk-outer and trial-inner.  A call takes a range
of trials of one target and reads each chunk once.  Each chunk is cut into
windows of at most `_BUILD_BATCH` rows, and a window draws and injects the
words of the whole range in sub-blocks of at most `_TRIAL_STREAMS`
(trial, sample) streams, one Philox call each; a chunk whose words for the
whole range fit one such call draws them once for all its windows.  Only
the rows whose activation a fault actually changed are replayed; every
other row keeps its golden prediction.  A changed row is keyed by (window
row, element, corrupted pattern), and each distinct key of the window is
copied and replayed once, at most `_BUILD_BATCH` rows at a time, whichever
trials hit it; every trial that holds the key takes its prediction.  Each
trial's records are written in place, in sample order, into its row of one
buffer for the call, which starts as wide as the trial's hits can be
expected to reach (`_trial_capacity`) and is widened if one exceeds it.
The buffer is a memory map of its own, so its pages go back to the system
once the campaign lets go of the trials' records.

A replayed row differs from the golden one in a single element, which
reaches only a cone of each later map.  Through the spatial layers after
the target (Conv2D, MaxPool2D and the elementwise layers, up to Flatten) a
row carries only a box of each map that holds its cone.  A conv or pool
runs on the box's receptive field, gathered from its stored golden input
with the carried box written in; elementwise layers run on the box alone.
A row whose box equals the stored golden output bit for bit has left the
cone, keeps its golden prediction and leaves the batch.  At the first
layer that is not spatial the box is written into the stored golden input
rows and the rest of the model runs in full; a target at or after Flatten
goes there at once.  The window's rows of each stored layer are read once,
with one seek and one read, when a replay first needs them.  This is
bit-exact because every kernel in `engine` computes each output element in
a fixed order from its own inputs, whatever else is in the batch, so equal
corrupted rows give equal predictions; only a NaN's payload can differ
from a full recompute, and predictions read none.
The store is never mutated by a trial.

A sample's fault depends on (seed, trial, sample, site) and not on the
probability, which only decides whether the sample is hit.  So the cells of
one target share their streams: a campaign replays each (target, trial)
once, at the largest probability of its sweep, and `at_probability`
derives every other probability from that one replay, bit for bit.

Operation-wise campaigns apply the fault model to the output of every
executed micro-op whose kind is targeted, so several faults may land during
a single inference.  They read the same store, at the output of the layer
before each layer that holds a site.  One call takes a contiguous range of
trials of one target and every probability of its sweep, and runs it in
blocks of as many trials as the budget holds the words and keys of.  A
block draws
each site's words once, for all its trials and samples; they do not depend
on the probability, and they tell before any pass which sites hit each
(trial, sample) at each probability.  A higher probability only adds hit
sites, so (trial, sample, number of hit sites) is a collision-free key of
the set.  A sample no fault hits keeps its golden prediction; each
distinct key is replayed once, whichever probabilities share it, from the
golden input of its first hit layer: each store chunk is read once per
block and its keys' rows go through the micro-ops in batches within the
memory budget.  Each key's records are written in place into one buffer
for the block, and every (trial, probability) takes the prediction and the
records of the key it holds for each sample.  Two NaNs that meet keep
either payload by their place in the batch, so a site's output holds the
canonical NaN `CANONICAL_NAN` wherever it is NaN before its fault is
applied; records and predictions then do not depend on the batches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import mmap
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import engine
from .engine import Conv2D, MaxPool2D, Model, PReLU, conv_padding, forward_layer_batch, predict_batch, tail_scores_batch
from .engine import head_batch  # noqa: F401  kept in this namespace: perfbench/test_selfcheck.py traces it here
from .errors import ResourceError, ValidationError
from .faults import RECORD_DTYPE, FaultSpec, check_probability, draw_words, inject_batch, uniforms
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

#: The pattern an op-wise site's output holds wherever it is NaN, whatever payload the op left: the
#: quiet NaN 0x7fc00000.
CANONICAL_NAN = np.uint32(0x7FC00000).view(np.float32)

#: (trial, sample) streams whose words a layer-wise replay draws at once: a
#: window draws the words of max(1, _TRIAL_STREAMS // window rows) trials a
#: call, and a chunk whose whole trial range fits draws it in one call.
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
                # nothing here keeps the chunk, so a caller that lets go of it never holds two
                yield start, self._read(fh, start, start + self.chunk_bytes(k) // self.bytes_per_sample)

    def read_rows(self, start: int, stop: int) -> np.ndarray:
        """The outputs of samples [start, stop), read-only, from one seek and one read."""
        with open(self.path, "rb") as fh:
            return self._read(fh, start, stop)

    def _read(self, fh, start: int, stop: int) -> np.ndarray:
        expected = (stop - start) * self.bytes_per_sample
        fh.seek(start * self.bytes_per_sample)
        raw = fh.read(expected)
        if len(raw) != expected:
            raise ValidationError(f"{self.path}: samples {start}..{stop - 1} hold {len(raw)} bytes, "
                                  f"manifest promises {expected}")
        return np.frombuffer(raw, dtype="<f4").reshape((-1, *self.shape))


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


def layer_caches(model: Model, dataset: Dataset, layers, budget: int, cache_root, extra=()) -> dict:
    """The golden outputs of every layer in `layers` and `extra`, stored under `cache_root`.

    The store is one `store.json`, one `golden.bin` and a `layer_<k>.bin`
    payload per stored layer.  A reusable store's whole layers are read as
    they are; one forward pass builds every requested layer that is not, and
    adds it to the store.  `budget` only sets how many samples a chunk read
    holds, so it never causes a pass; one sample of each layer in `layers`
    must fit it.  The layers in `extra` are read by row range (`read_rows`),
    which the budget does not bound.  Returns {layer: ActivationCache}.

    A crash leaves no manifest, so a half-built store is never read: the
    manifest goes first, the new payloads and `golden.bin` are renamed into
    place whole once the pass is done, and the manifest is written last.
    """
    _check_pairing(model, dataset)
    chunked = list(layers)
    layers = list(dict.fromkeys([*chunked, *extra]))
    root = Path(cache_root)
    views = {k: ActivationCache(path=root / f"layer_{k}.bin", layer=k, shape=shape, budget=int(budget),
                                golden=np.empty(0, dtype=np.int64))
             for k, shape in enumerate(model.output_shapes)}
    for layer in layers:
        if layer not in views:
            raise ValidationError(f"layer index {layer} out of range for {len(model.layers)} layers")
    for layer in chunked:
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


def replay_layers(model: Model, targets) -> list:
    """The layers whose stored golden outputs the layer-wise replays of `targets` read, ascending.

    A replay of target t reads the output of t and of every later layer a
    cone passes through, up to the input of the first layer that is not
    spatial (Flatten).
    """
    layers = set()
    for target in targets:
        stop = target + 1
        while _spatial(model, stop):
            stop += 1
        layers.update(range(target, stop))
    return sorted(layers)


def _spatial(model: Model, index: int) -> bool:
    """Whether layer `index` exists and maps an (h, w, c) map to another, so that a cone passes through it."""
    return (index < len(model.layers) and len(model.input_shape_of(index)) == 3
            and len(model.output_shapes[index]) == 3)


def run_injected_layerwise(model: Model, caches: dict, spec: FaultSpec, trials):
    """Trials `trials` (a contiguous ascending range) of one target; one (preds, records, u) per trial.

    `caches` is the store `layer_caches` returns for (at least)
    replay_layers(model, [spec.target]).  Each trial injects at most once
    per sample into the stored activations of the target.  The loop runs
    chunk, then window, then the whole trial range: every chunk is read
    once per call and cut into windows of at most `_BUILD_BATCH` rows, and
    a window draws its words and injects them in sub-blocks of
    max(1, _TRIAL_STREAMS // window rows) trials, one `draw_words` and one
    `inject_batch` call each (a chunk whose words for the whole range fit
    `_TRIAL_STREAMS` streams draws them in one call for all its windows).
    The records whose fault changed the activation (original != corrupted)
    are keyed on (window row, element, corrupted pattern) over all the
    call's trials, and each distinct key is replayed once, whichever trials
    hit it, in batches of at most `_BUILD_BATCH` rows; its prediction is
    scattered back to every trial that holds the key.

    A changed row differs from its golden map in one element, and through
    the spatial layers after the target it carries only the box of each map
    that this element can reach (its cone): each conv or pool runs on the
    cone's receptive field, gathered from the layer's stored golden input,
    and a row whose cone equals the golden output bit for bit keeps its
    golden prediction from there on.  At the first layer that is not
    spatial, the cone is written into the stored golden input and the rest
    runs in full, in one tail call; a target at or after Flatten goes there
    at once.  Every other row keeps the golden prediction stored in the
    cache.  This is bit-exact because every kernel computes each output
    element in a fixed order from its own inputs, whatever else is in the
    batch, so equal corrupted rows get equal predictions; only a NaN's
    payload, which no prediction reads, may differ from a full recompute.

    Per trial, u[i] is the Bernoulli uniform of records[i], and records are
    in sample order; `at_probability` derives from them the trial at any
    lower probability.  Each trial's records and uniforms are written in
    place into its row of one buffer for the call, so no record is ever
    copied to be put in trial order; a trial's arrays are views of its row.
    """
    if spec.mode != "layer":
        raise ValidationError("run_injected_layerwise requires an operation mode of 'layer'")
    missing = [layer for layer in replay_layers(model, [spec.target]) if layer not in caches]
    if missing:
        raise ValidationError(f"spec targets layer {spec.target}, but the golden store lacks the outputs "
                              f"of layers {missing}")
    trials = _trial_range(trials)
    if not trials:
        return []
    cache = caches[spec.target]
    sample_ids = np.arange(cache.sample_count, dtype=np.uint64)
    preds = np.tile(cache.golden, (len(trials), 1))
    # row i holds the records and uniforms of trials[i], in sample order, in its first filled[i] places
    raw = np.dtype((np.void, RECORD_DTYPE.itemsize))  # a structured copy goes field by field
    kept = _mapped((len(trials), _trial_capacity(cache.sample_count, spec.probability)), raw)
    kept_u = _mapped(kept.shape, np.float64)
    filled = np.zeros(len(trials), dtype=np.intp)
    for start, acts in cache.iter_chunks():
        # a chunk whose words for the whole range fit one draw is drawn once, for all its windows
        chunk_words = (draw_words(spec.seed, trials, sample_ids[start : start + acts.shape[0]], cache.layer)
                       if len(trials) * acts.shape[0] <= _TRIAL_STREAMS else None)
        for lo in range(0, acts.shape[0], _BUILD_BATCH):
            window = acts[lo : lo + _BUILD_BATCH]
            rows_of = slice(start + lo, start + lo + window.shape[0])
            ids = sample_ids[rows_of]
            step = max(1, _TRIAL_STREAMS // window.shape[0])
            hits = []  # per sub-block: (row, trial index, element, pattern) of each record that changed its row
            for j in range(0, len(trials), step):
                block = trials[j : j + step]
                words = (draw_words(spec.seed, block, ids, cache.layer) if chunk_words is None
                         else chunk_words[:, lo : lo + window.shape[0]])
                at, records, u = inject_batch(window, spec, words, block, ids, cache.layer)
                del words
                which = (records["trial"] - np.uint64(trials[0])).astype(np.intp)  # row of each record's trial
                counts = np.bincount(which - j, minlength=len(block))
                place = filled[which] + np.arange(records.size) - np.repeat(np.cumsum(counts) - counts, counts)
                need = int(place.max()) + 1 if records.size else 0
                if need > kept.shape[1]:
                    width = min(cache.sample_count, max(need, 2 * kept.shape[1]))
                    kept, kept_u = _widened(kept, width), _widened(kept_u, width)
                kept[which, place] = records.view(raw)
                kept_u[which, place] = u
                filled[j : j + len(block)] += counts
                keep = np.flatnonzero(records["original"] != records["corrupted"])
                hits.append((at[keep], which[keep], records["element"][keep].astype(np.intp),
                             records["corrupted"][keep]))
                del at, records, u, which, place
            rows, trial, elements, corrupted = (np.concatenate(column) for column in zip(*hits))
            del hits
            if rows.size:
                golden = _window_golden(caches, cache.layer, window, rows_of)
                pred = _replay_distinct(model, cache.layer, window, rows, elements, corrupted, golden,
                                        cache.golden[rows_of])
                preds[trial, rows + rows_of.start] = pred
                del golden  # the window's golden rows of the cone layers
        del acts, window, chunk_words  # none outlives the next read
    records = kept.view(RECORD_DTYPE)
    return [(preds[i], records[i, : filled[i]], kept_u[i, : filled[i]]) for i in range(len(trials))]


def _trial_range(trials) -> list:
    """`trials` as a list, if it is a contiguous ascending range of trial ids, else ValidationError."""
    trials = list(trials)
    if trials != list(range(trials[0], trials[0] + len(trials)) if trials else []):
        raise ValidationError("trials must be a contiguous ascending range")
    return trials


def _trial_capacity(samples: int, probability: float) -> int:
    """Records a trial's row holds at first: all `samples` at p = 1, else its expected hits and a margin.

    A trial hits each sample with probability p, independently, so its
    count is binomial; the margin of 8 standard deviations and 16 records
    is rarely crossed, and a crossing only widens the buffer.
    """
    mean, var = samples * probability, samples * probability * (1 - probability)
    return min(samples, math.ceil(mean + 8 * math.sqrt(var)) + 16)


def _widened(a: np.ndarray, width: int) -> np.ndarray:
    """A copy of the 2-D `a` with `width` columns, in a map of its own; the columns past a's are zero."""
    out = _mapped((a.shape[0], width), a.dtype)
    out[:, : a.shape[1]] = a
    return out


def _mapped(shape: tuple, dtype) -> np.ndarray:
    """A zeroed array in an anonymous private memory map of its own.

    A page of it becomes resident only once written, and every page goes
    back to the system as soon as the array and all its views are gone;
    malloc may serve an array of this size from its heap, which need not
    give pages back once they are freed.
    """
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def _window_keys(rows: np.ndarray, elements: np.ndarray, corrupted: np.ndarray, n_rows: int, n_elements: int):
    """One key per changed record of a window, equal iff (window row, element, corrupted pattern) are.

    rows[i] < n_rows and elements[i] < n_elements.  While n_rows x
    n_elements fits 32 bits, a key is the uint64
    (row * n_elements + element) << 32 | corrupted; beyond that, it is the
    20 big-endian bytes of the three, so no layer size makes two keys collide.
    """
    if n_rows * n_elements <= 1 << 32:
        position = rows.astype(np.uint64) * np.uint64(n_elements) + elements.astype(np.uint64)
        return (position << np.uint64(32)) | corrupted.astype(np.uint64)
    keys = np.empty(rows.size, dtype=[("row", ">u8"), ("element", ">u8"), ("corrupted", ">u4")])
    keys["row"], keys["element"], keys["corrupted"] = rows, elements, corrupted
    return keys.view(np.dtype((np.void, keys.dtype.itemsize)))


def _replay_distinct(model: Model, target: int, window: np.ndarray, rows: np.ndarray, elements: np.ndarray,
                     corrupted: np.ndarray, golden, golden_preds: np.ndarray) -> np.ndarray:
    """The prediction of each changed record, from one replay of each distinct corrupted row.

    The i-th changed record wrote pattern corrupted[i] at flat element
    elements[i] (intp) of window row rows[i]; golden(k) gives the window's
    stored outputs of layer k and golden_preds its golden predictions.
    Rows are copied only for the distinct keys, at most `_BUILD_BATCH` at
    a time, and each copy lives only until its cone is cut.
    """
    keys = _window_keys(rows, elements, corrupted, window.shape[0], window[0].size)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    del keys
    pred = golden_preds[rows[first]]  # a row whose cone vanishes keeps its golden prediction
    for lo in range(0, first.size, _BUILD_BATCH):
        pick = first[lo : lo + _BUILD_BATCH]
        copies = window[rows[pick]]
        copies.reshape(pick.size, -1).view(np.uint32)[np.arange(pick.size), elements[pick]] = corrupted[pick]
        cones = _start_cone(model, target, copies, elements[pick])
        del copies
        live, scores = _replay_rows(model, target, *cones, rows[pick], golden)
        del cones
        pred[lo + live] = predict_batch(scores)
    return pred[inverse]


def _window_golden(caches: dict, target: int, window: np.ndarray, rows_of: slice):
    """golden(k): the stored outputs of layer k for the window's samples, each layer read once, on first use."""
    stored = {target: window}

    def golden(k: int) -> np.ndarray:
        if k not in stored:
            stored[k] = caches[k].read_rows(rows_of.start, rows_of.stop)
        return stored[k]

    return golden


# ---------------------------------------------------------------------------
# Cone replay
# ---------------------------------------------------------------------------


def _start_cone(model: Model, target: int, rows: np.ndarray, elements: np.ndarray):
    """(top, left, cone): the 1 x 1 box, all channels, of each injected row at its changed element.

    rows[i] is the output of `target` with flat element elements[i]
    changed.  When that output is not an (h, w, c) map, the cone is the
    whole row and top and left are None.
    """
    if len(model.output_shapes[target]) != 3:
        return None, None, rows
    _, w, c = model.output_shapes[target]
    top, left = np.divmod(elements.astype(np.int64) // c, w)
    return top, left, _box(rows, np.arange(rows.shape[0]), top, left, 1, 1)


def _replay_rows(model: Model, target: int, top, left, cone: np.ndarray, samples: np.ndarray, golden):
    """(live, scores): which injected rows may change their prediction, and their class scores.

    (top, left, cone) is what `_start_cone` gives for the rows of window
    samples `samples`; golden(k) gives the window's stored outputs of layer
    k.  Rows whose cone vanishes are left out of `live`.
    """
    if top is None:
        return np.arange(cone.shape[0]), tail_scores_batch(model, target, cone)
    for index, live, top, left, cone in _cones(model, target, top, left, cone, samples, golden):
        pass
    if not live.size:
        return live, np.empty((0, model.class_count), dtype=engine.F32)
    full = golden(index)[samples[live]]
    _paste(full, cone, top, left)
    return live, tail_scores_batch(model, index, full)


def _cones(model: Model, target: int, top, left, cone: np.ndarray, samples: np.ndarray, golden):
    """Yield (layer, live, top, left, cone) at `target` and after each spatial layer that follows it.

    cone[i] is the box of that layer's output at (top[i], left[i]), all
    channels, for injected row live[i]; outside it the row's map equals the
    golden one.  At the target the boxes are `_start_cone`'s.  A conv or
    pool takes for its output box every output that the previous cone
    reaches, clipped to the map, and computes it from the receptive field
    of that box: the layer's golden input (zero where a `same` padding
    lies) with the cone written in.  The box's size depends only on the
    layer, so the rows go in one batch.  Elementwise layers run on the cone
    as it is.  A row whose cone equals the golden output bit for bit leaves
    `live`; iteration stops when none is left.
    """
    live = np.arange(cone.shape[0])
    index = target
    yield index, live, top, left, cone
    while _spatial(model, index + 1) and live.size:
        index += 1
        layer = model.layers[index]
        in_shape, (oh, ow, _) = model.input_shape_of(index), model.output_shapes[index]
        if isinstance(layer, (Conv2D, MaxPool2D)):
            if isinstance(layer, Conv2D):
                (kh, kw), ((pad_top, _), (pad_left, _)) = layer.kernel.shape[:2], conv_padding(layer, in_shape)
                layer = dataclasses.replace(layer, padding="valid")  # the box holds the padding
            else:
                (kh, kw), pad_top, pad_left = layer.window, 0, 0
            sh, sw = layer.stride
            out_h = min(oh, (cone.shape[1] + kh - 2) // sh + 1)
            out_w = min(ow, (cone.shape[2] + kw - 2) // sw + 1)
            # the first output whose window reaches the cone: ceil((top + pad - k + 1) / stride)
            out_top = np.clip(-((kh - 1 - pad_top - top) // sh), 0, oh - out_h)
            out_left = np.clip(-((kw - 1 - pad_left - left) // sw), 0, ow - out_w)
            box_top, box_left = out_top * sh - pad_top, out_left * sw - pad_left
            box = _box(golden(index - 1), samples[live], box_top, box_left,
                       (out_h - 1) * sh + kh, (out_w - 1) * sw + kw)
            _paste(box, cone, top - box_top, left - box_left)
            cone = forward_layer_batch(layer, box)
            top, left = out_top, out_left
        else:
            if isinstance(layer, PReLU):
                alpha = np.broadcast_to(layer.alpha, in_shape)[None]  # one map for every row
                alpha = _box(alpha, np.zeros_like(live), top, left, *cone.shape[1:3])  # each row's under its cone
                layer = dataclasses.replace(layer, alpha=alpha)
            cone = forward_layer_batch(layer, cone)
        same = _box(golden(index), samples[live], top, left, *cone.shape[1:3])
        changed = (cone.view(np.uint32) != same.view(np.uint32)).reshape(live.size, -1).any(axis=1)
        if not changed.all():
            live, top, left, cone = live[changed], top[changed], left[changed], cone[changed]
        yield index, live, top, left, cone


def _box(maps: np.ndarray, picks: np.ndarray, top: np.ndarray, left: np.ndarray, height: int, width: int):
    """A (height, width) box of maps[picks[i]] at (top[i], left[i]) per row, zero where it leaves the map."""
    h, w = maps.shape[1:3]
    ii = top[:, None] + np.arange(height)
    jj = left[:, None] + np.arange(width)
    box = maps[picks[:, None, None], np.clip(ii, 0, h - 1)[:, :, None], np.clip(jj, 0, w - 1)[:, None, :]]
    outside = ((ii < 0) | (ii >= h))[:, :, None] | ((jj < 0) | (jj >= w))[:, None, :]
    box[outside] = 0
    return box


def _paste(maps: np.ndarray, boxes: np.ndarray, top: np.ndarray, left: np.ndarray) -> None:
    """Write boxes[i] into maps[i] at (top[i], left[i]), dropping what falls outside the map."""
    h, w = maps.shape[1:3]
    ii = top[:, None] + np.arange(boxes.shape[1])
    jj = left[:, None] + np.arange(boxes.shape[2])
    row, i, j = np.nonzero(((ii >= 0) & (ii < h))[:, :, None] & ((jj >= 0) & (jj < w))[:, None, :])
    maps[row, ii[row, i], jj[row, j]] = boxes[row, i, j]


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


def _sample_bytes(expanded: MicroOpModel, layer: int) -> int:
    """Bytes one sample needs while `layer` runs as micro-ops: its layer input and every micro-op output.

    Each micro-op output has the layer's output shape.  A fault is written
    in place into the fresh output of its op, so it needs no copy.
    """
    model = expanded.model
    outputs = len(expanded.ops_by_layer[layer])
    return 4 * (int(np.prod(model.input_shape_of(layer))) + outputs * int(np.prod(model.output_shapes[layer])))


def run_injected_opwise(expanded: MicroOpModel, dataset: Dataset, caches: dict, spec: FaultSpec, trials,
                        probabilities):
    """Op-wise trials `trials` (contiguous, ascending) at each p of `probabilities`: per trial, (preds, records) per p.

    `spec` names the fault, the targeted op kinds and the seed; its own
    probability is not read.  Each targeted op execution is injected under
    the fault model, so several faults may land in one inference.  `caches`
    is the store `layer_caches` returns for (at least)
    boundary_layers(expanded, spec.target); its golden predictions and
    budget are the call's.  Records come ordered by site and then sample,
    and each (trial, p) is byte-identical to a whole-batch pass of that
    trial at that p, whatever the budget, the range or the other
    probabilities.

    The range runs in blocks of as many trials as the budget holds the
    words and keys of (`_trial_block`, at least one).  A block draws each site's words once, for
    all its trials and samples; they do not depend on p.  A (trial, sample)
    is hit at p in the sites whose uniform is below p, so its hit sites at
    each p are nested, and (trial, sample, number of hit sites) names its
    set whatever the site count.  Each distinct such key is replayed once,
    whichever probabilities share it, from the golden input of its first
    hit layer, with the smallest p that gives the key as the threshold of
    every site in its row; a (trial, sample) no fault hits keeps its golden
    prediction, so p = 0 runs no pass, and a range at p = 0 alone draws no
    words.  The keys of each first hit layer are taken in sample order: the
    store chunks that hold them are read once per block, and their rows go
    through the micro-ops in batches of at most budget // the bytes one
    sample needs in the widest layer it runs.  Each key's records are
    written in place into one buffer for the block, and each (trial, p)
    takes the prediction and the records of the key it holds for each
    sample.  This is bit-exact because every kernel computes each row from
    its own input alone, and the micro-op expansion matches the layers it
    replaces.  Only a NaN's payload can depend on a row's place in its
    batch, where two NaNs meet, so a site's output holds `CANONICAL_NAN`
    wherever it is NaN before its fault is applied; predictions read no
    payload.
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
    widest = max(_sample_bytes(expanded, layer) for layer in range(sites[0].layer_index, len(model.layers)))
    if store.budget < widest:
        raise ResourceError(f"memory budget {store.budget} bytes is below one sample's micro-op working set "
                            f"({widest} bytes)")
    trials = _trial_range(trials)
    probabilities = np.array([check_probability(p) for p in probabilities], dtype=np.float64)
    if not probabilities.any():
        empty = np.empty(0, dtype=RECORD_DTYPE)
        return [[(store.golden.copy(), empty) for _ in probabilities] for _ in trials]
    levels, level_of = np.unique(probabilities, return_inverse=True)  # the distinct probabilities, ascending
    block = _trial_block(store.budget, len(sites), len(dataset), levels.size)
    runs = []
    for lo in range(0, len(trials), block):
        runs += _opwise_block(expanded, dataset, caches, store, spec, sites, trials[lo : lo + block], levels,
                              level_of)
    return runs


def _trial_block(budget: int, sites: int, samples: int, levels: int) -> int:
    """Trials an op-wise block takes: as many as `budget` holds the working set of, and at least one.

    Per (trial, sample) a block holds 32 bytes of words per site; while
    one site's words are drawn, 192 bytes of `philox_block`'s temporaries
    (24 uint64 per stream); and per distinct probability (level) 160 bytes
    of hit counts, keys and their columns, and the map from each (trial,
    sample, level) to its key.  Records are not charged: they are the
    call's result, and a block's buffer holds no more of them than the
    block returns.
    """
    return max(1, budget // (samples * (32 * sites + 192 + 160 * levels)))


def _opwise_block(expanded: MicroOpModel, dataset: Dataset, caches: dict, store: ActivationCache, spec: FaultSpec,
                  sites, trials, levels: np.ndarray, level_of: np.ndarray):
    """run_injected_opwise over one block of trials at the distinct probabilities `levels`, ascending.

    `store` gives the golden predictions and the budget, and level_of[i]
    is the level of the call's i-th probability.
    """
    model = expanded.model
    sample_ids = np.arange(len(dataset), dtype=np.uint64)
    words = {op.op_id: draw_words(spec.seed, trials, sample_ids, op.op_id) for op in sites}  # (trials, samples, 4)

    # hits[t, n, j]: how many sites hit sample n of trial t at levels[j], which grows with j; a key starts
    # wherever it grows
    hits = np.zeros((len(trials), len(dataset), levels.size), dtype=np.int32)
    for op in sites:
        hits += uniforms(words[op.op_id][..., 0])[..., None] < levels
    # key k starts at flat index key_at[k] of hits, and key_hits[k] sites hit its (trial, sample)
    key_at = np.flatnonzero(np.diff(hits, axis=-1, prepend=0) > 0)
    key_hits = hits.reshape(-1)[key_at]
    key_t, key_n = np.divmod(key_at // levels.size, len(dataset))
    key_p = levels[key_at % levels.size]
    key_layer = np.full(key_at.size, len(model.layers), dtype=np.int32)
    for op in reversed(sites):  # sites run in layer order, so the earliest hit is written last
        key_layer[uniforms(words[op.op_id][key_t, key_n, 0]) < key_p] = op.layer_index
    del key_t, key_p

    # each key's records go in place, in site order, into its slot of one buffer
    key_pred = np.empty(key_at.size, dtype=np.int64)
    records = _mapped((int(key_hits.sum()),), RECORD_DTYPE)
    filled = np.cumsum(key_hits) - key_hits
    # the keys being replayed, and their trial indices, samples, trial ids and probabilities
    batch = batch_t = batch_n = batch_trial = batch_p = None

    def hook(op, out):
        if op.kind not in spec.target:
            return out
        # two NaNs that meet keep either payload, by their place in the batch, so a site's NaNs all read as one
        np.copyto(out, CANONICAL_NAN, where=np.isnan(out))
        rows, found, _ = inject_batch(out, spec, words[op.op_id][batch_t, batch_n], batch_trial, batch_n, op.op_id,
                                      batch_p)
        if found.size:
            owners = batch[rows]  # one row per key, so one record per key
            records[filled[owners]] = found
            filled[owners] += 1
            # out is fresh and unread so far; an index per axis writes it in place whatever its strides
            out.view(np.uint32)[(rows, *np.unravel_index(found["element"], out.shape[1:]))] = found["corrupted"]
        return out

    need = [_sample_bytes(expanded, layer) for layer in range(len(model.layers))]
    key_sample = key_at // levels.size % len(dataset)
    for layer in sorted({op.layer_index for op in sites}):
        group = np.flatnonzero(key_layer == layer)
        if not group.size:
            continue
        group = group[np.argsort(key_sample[group], kind="stable")]
        rows_per_batch = store.budget // max(need[layer:])
        if layer == 0:
            source = [(0, dataset.samples)]
        else:
            cache = caches[layer - 1]
            source = cache.iter_chunks(np.unique(key_sample[group] // cache.samples_per_chunk))
        for start, acts in source:
            lo, hi = np.searchsorted(key_sample[group], [start, start + acts.shape[0]])
            for i in range(lo, hi, rows_per_batch):
                batch = group[i : min(i + rows_per_batch, hi)]
                stream, level = np.divmod(key_at[batch], levels.size)
                batch_t, batch_n = np.divmod(stream, len(dataset))
                batch_trial, batch_p = np.uint64(trials[0]) + batch_t.astype(np.uint64), levels[level]
                scores = run_microops_batch(expanded, acts[batch_n - start], hook=hook, start=layer)
                key_pred[batch] = predict_batch(scores)
            del acts  # before the next store chunk is read
    del words, filled, key_sample, key_layer

    # at each level, every trial takes the prediction and the records of the key it holds for each sample hit:
    # where hits[t, n, j] > 0, key_of[t, n, j] is the last key started at or before (t, n, j)
    key_of = np.zeros(hits.size, dtype=np.intp)
    key_of[key_at] = 1
    key_of = (np.cumsum(key_of, out=key_of) - 1).reshape(hits.shape)
    order = np.lexsort((records["sample"], records["site"], records["trial"]))
    owner = np.repeat(np.arange(key_pred.size), key_hits)[order]
    ends_at = np.uint64(trials[0]) + np.arange(len(trials), dtype=np.uint64)
    by_level = []
    for j in range(levels.size):
        held, hit = key_of[..., j], hits[..., j] > 0
        preds = np.tile(store.golden, (len(trials), 1))
        preds[hit] = key_pred[held[hit]]
        holds = np.zeros(key_pred.size, dtype=bool)
        holds[held[hit]] = True
        mine = records[order if holds.all() else order[holds[owner]]]
        ends = np.searchsorted(mine["trial"], ends_at, side="right")
        by_level.append([(preds[t], mine[lo:hi]) for t, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends))])
    return [[by_level[j][t] for j in level_of] for t in range(len(trials))]
