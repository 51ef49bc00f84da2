"""Bit-exact serialization: model manifests, weight blobs, datasets, configs.

On-disk formats (all multi-byte values little-endian):

* ``model.json``  -- UTF-8 JSON manifest; weight tensors are referenced by
  byte offset/length into a sibling raw binary32 blob (row-major).
* ``weights.bin`` -- concatenated raw float32 data, no header.
* ``samples.bin`` -- magic ``BSDS``, u32 version, u32 sample count,
  u32 rank, u32 extents..., then float32 payload (sample-major).
* ``labels.bin``  -- magic ``BSLB``, u32 count, then u32 labels.
* ``config.json`` -- UTF-8 JSON run configuration.

Weight bytes are reinterpreted directly as binary32 values; loading never
converts or rounds.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import Conv2D, Dense, Dropout, Flatten, MaxPool2D, Model, PReLU, ReLU, Softmax
from .errors import ValidationError
from .faults import check_fault, check_int, check_mode, check_op_kinds, check_probability, check_u64

FORMAT_VERSION = 1
SAMPLES_MAGIC = b"BSDS"
LABELS_MAGIC = b"BSLB"


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return doc[key]


class _BlobReader:
    def __init__(self, data: bytes, path: Path):
        self.data = data
        self.path = path

    def tensor(self, ref: dict, shape, where: str) -> np.ndarray:
        offset = int(_require(ref, "offset", where))
        length = int(_require(ref, "length", where))
        expected = int(np.prod(shape)) * 4
        if length != expected:
            raise ValidationError(
                f"{where}: blob length {length} does not match shape {tuple(shape)} ({expected} bytes)"
            )
        if offset < 0 or offset + length > len(self.data):
            raise ValidationError(
                f"{where}: blob range [{offset}, {offset + length}) outside {self.path.name} "
                f"({len(self.data)} bytes)"
            )
        arr = np.frombuffer(self.data, dtype="<f4", count=length // 4, offset=offset)
        return arr.reshape(shape)


def _layer_from_entry(entry: dict, index: int, blob: _BlobReader):
    where = f"layers[{index}]"
    kind = _require(entry, "kind", where)
    name = entry.get("name", f"{kind.lower()}_{index}")
    where = f"{where} ({name})"
    if kind == "Conv2D":
        kshape = _require(entry, "kernel_shape", where)
        return Conv2D(
            kernel=blob.tensor(_require(entry, "kernel", where), kshape, f"{where}.kernel"),
            bias=blob.tensor(_require(entry, "bias", where), (kshape[3],), f"{where}.bias"),
            stride=tuple(entry.get("stride", (1, 1))),
            padding=entry.get("padding", "valid"),
            name=name,
        )
    if kind == "MaxPool2D":
        return MaxPool2D(
            window=tuple(_require(entry, "window", where)),
            stride=tuple(entry.get("stride", entry.get("window", (2, 2)))),
            name=name,
        )
    if kind == "Dense":
        wshape = _require(entry, "weights_shape", where)
        activation = entry.get("activation")
        return Dense(
            weights=blob.tensor(_require(entry, "weights", where), wshape, f"{where}.weights"),
            bias=blob.tensor(_require(entry, "bias", where), (wshape[1],), f"{where}.bias"),
            activation=activation,
            name=name,
        )
    if kind == "PReLU":
        ashape = _require(entry, "alpha_shape", where)
        return PReLU(alpha=blob.tensor(_require(entry, "alpha", where), ashape, f"{where}.alpha"), name=name)
    if kind == "ReLU":
        return ReLU(name=name)
    if kind == "Softmax":
        return Softmax(name=name)
    if kind == "Flatten":
        return Flatten(name=name)
    if kind == "Dropout":
        return Dropout(rate=float(entry.get("rate", 0.0)), name=name)
    raise ValidationError(f"{where}: unknown layer kind {kind!r}")


def load_model(manifest_path) -> Model:
    """Load and shape-validate a model from its JSON manifest; a malformed one is a ValidationError naming it."""
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise ValidationError(f"model manifest not found: {manifest_path}")
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValidationError("expected a JSON object")
        version = doc.get("format_version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ValidationError(f"unsupported format_version {version}")
        weights_path = manifest_path.parent / _require(doc, "weights_file", "top level")
        if not weights_path.is_file():
            raise ValidationError(f"weight blob not found: {weights_path}")
        blob = _BlobReader(weights_path.read_bytes(), weights_path)
        input_shape = tuple(_require(doc, "input_shape", "top level"))
        entries = _require(doc, "layers", "top level")
        layers = [_layer_from_entry(entry, i, blob) for i, entry in enumerate(entries)]
        return Model(input_shape=input_shape, layers=layers)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{manifest_path}: malformed JSON at line {exc.lineno}: {exc.msg}") from None
    except ValidationError as exc:
        raise ValidationError(f"{manifest_path}: {exc}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ValidationError(f"{manifest_path}: malformed model ({type(exc).__name__}: {exc})") from None


def _weight_arrays(layer):
    if isinstance(layer, Conv2D):
        return [("kernel", layer.kernel), ("bias", layer.bias)]
    if isinstance(layer, Dense):
        return [("weights", layer.weights), ("bias", layer.bias)]
    if isinstance(layer, PReLU):
        return [("alpha", layer.alpha)]
    return []


def save_model(model: Model, manifest_path) -> None:
    """Write the manifest plus weight blob; load_model round-trips bit-exactly."""
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    blob = bytearray()
    entries = []
    for layer in model.layers:
        entry = {"kind": layer.kind, "name": layer.name}
        if isinstance(layer, Conv2D):
            entry["kernel_shape"] = list(layer.kernel.shape)
            entry["stride"] = list(layer.stride)
            entry["padding"] = layer.padding
        elif isinstance(layer, Dense):
            entry["weights_shape"] = list(layer.weights.shape)
            if layer.activation:
                entry["activation"] = layer.activation
        elif isinstance(layer, PReLU):
            entry["alpha_shape"] = list(layer.alpha.shape)
        elif isinstance(layer, MaxPool2D):
            entry["window"] = list(layer.window)
            entry["stride"] = list(layer.stride)
        elif isinstance(layer, Dropout):
            entry["rate"] = layer.rate
        for field_name, arr in _weight_arrays(layer):
            raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
            entry[field_name] = {"offset": len(blob), "length": len(raw)}
            blob.extend(raw)
        entries.append(entry)
    weights_name = manifest_path.stem + "_weights.bin" if manifest_path.stem != "model" else "weights.bin"
    doc = {
        "format_version": FORMAT_VERSION,
        "input_shape": list(model.input_shape),
        "weights_file": weights_name,
        "layers": entries,
    }
    (manifest_path.parent / weights_name).write_bytes(bytes(blob))
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Dataset:
    """Uniform-shape input tensors with class labels."""

    samples: np.ndarray  # (count, *sample shape) float32
    labels: np.ndarray  # (count,) uint32
    class_count: int

    def __post_init__(self):
        if self.samples.ndim < 2:
            raise ValidationError("samples must have a leading sample axis plus tensor extents")
        if len(self.labels) != len(self.samples):
            raise ValidationError(
                f"dataset has {len(self.samples)} samples but {len(self.labels)} labels"
            )
        if len(self.samples) == 0:
            raise ValidationError("dataset must contain at least one sample")
        if self.class_count < 1:
            raise ValidationError("class_count must be positive")
        if self.labels.size and int(self.labels.max()) >= self.class_count:
            raise ValidationError(
                f"label {int(self.labels.max())} out of range for class_count {self.class_count}"
            )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def sample_shape(self):
        return self.samples.shape[1:]


def save_dataset(dataset: Dataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shape = dataset.sample_shape
    header = struct.pack(
        f"<4sIII{len(shape)}I", SAMPLES_MAGIC, FORMAT_VERSION, len(dataset), len(shape), *shape
    )
    payload = np.ascontiguousarray(dataset.samples, dtype="<f4").tobytes()
    (directory / "samples.bin").write_bytes(header + payload)
    labels = struct.pack("<4sI", LABELS_MAGIC, len(dataset))
    labels += np.ascontiguousarray(dataset.labels, dtype="<u4").tobytes()
    (directory / "labels.bin").write_bytes(labels)


def load_dataset(directory, class_count: int | None = None) -> Dataset:
    """Load samples.bin + labels.bin from a dataset directory.

    If `class_count` is not given (e.g. when the pairing model is not yet
    known) it is inferred as max(label) + 1; passing the model's class
    count enforces that every label is in range.
    """
    directory = Path(directory)
    samples_path = directory / "samples.bin"
    labels_path = directory / "labels.bin"
    for p in (samples_path, labels_path):
        if not p.is_file():
            raise ValidationError(f"dataset file not found: {p}")

    raw = samples_path.read_bytes()
    if len(raw) < 16 or raw[:4] != SAMPLES_MAGIC:
        raise ValidationError(f"{samples_path}: bad magic, expected {SAMPLES_MAGIC!r}")
    version, count, rank = struct.unpack_from("<III", raw, 4)
    if version != FORMAT_VERSION:
        raise ValidationError(f"{samples_path}: unsupported version {version}")
    offset = 16 + 4 * rank
    if len(raw) < offset:
        raise ValidationError(f"{samples_path}: header declares rank {rank}, longer than the file ({len(raw)} bytes)")
    extents = struct.unpack_from(f"<{rank}I", raw, 16)
    expected = count * math.prod(extents) * 4
    if len(raw) - offset != expected:
        raise ValidationError(
            f"{samples_path}: payload is {len(raw) - offset} bytes, header promises {expected}"
        )
    samples = np.frombuffer(raw, dtype="<f4", offset=offset).reshape((count, *extents))

    raw = labels_path.read_bytes()
    if len(raw) < 8 or raw[:4] != LABELS_MAGIC:
        raise ValidationError(f"{labels_path}: bad magic, expected {LABELS_MAGIC!r}")
    (label_count,) = struct.unpack_from("<I", raw, 4)
    if len(raw) - 8 != label_count * 4:
        raise ValidationError(
            f"{labels_path}: payload is {(len(raw) - 8) // 4} labels, header promises {label_count}"
        )
    labels = np.frombuffer(raw, dtype="<u4", offset=8)
    if label_count != count:
        raise ValidationError(f"{samples_path}, {labels_path}: {count} samples but {label_count} labels")
    if class_count is None:
        class_count = int(labels.max()) + 1 if labels.size else 1
    try:
        return Dataset(samples=samples, labels=labels, class_count=class_count)
    except ValidationError as exc:
        raise ValidationError(f"{samples_path}, {labels_path}: {exc}") from None


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

DEFAULT_TRIALS = 100
DEFAULT_CMA_WINDOW = 20
DEFAULT_CMA_EPSILON = 0.002
DEFAULT_BUDGET = 64 * 1024 * 1024


@dataclass
class CampaignSpec:
    """Every campaign parameter, checked and normalised at construction.

    The one implementation of the campaign rules: config.json, CLI overrides
    (through dataclasses.replace) and direct construction all pass through
    __post_init__ before any model pass.  `targets` ends up "all" or a
    non-empty list without repeats (a scalar becomes a one-element list) and
    `probabilities` sorted without duplicates.
    """

    mode: str  # "op" | "layer"
    targets: object  # "all", layer index list, or op-kind list
    probabilities: list[float]
    fault: str = "bit_flip_random"
    bit: int | None = None
    trials: int = DEFAULT_TRIALS
    metric: str = "golden_run"  # "ground_truth" | "golden_run"
    seed: int = 0
    out_dir: Path | None = None
    budget: int = DEFAULT_BUDGET
    cma_window: int = DEFAULT_CMA_WINDOW
    cma_epsilon: float = DEFAULT_CMA_EPSILON

    def __post_init__(self):
        check_mode(self.mode)
        if self.metric not in ("ground_truth", "golden_run"):
            raise ValidationError(f"metric must be 'ground_truth' or 'golden_run', got {self.metric!r}")
        if self.targets != "all":
            targets = list(self.targets) if isinstance(self.targets, (list, tuple)) else [self.targets]
            if self.mode == "op":
                targets = list(check_op_kinds(targets))
            elif not targets:
                raise ValidationError("layer-wise target must name at least one layer")
            else:
                targets = [check_int(t, "layer target", 0) for t in targets]
            repeated = next((t for i, t in enumerate(targets) if t in targets[:i]), None)
            if repeated is not None:
                raise ValidationError(f"target {repeated!r} is named more than once")
            self.targets = targets
        if not isinstance(self.probabilities, (list, tuple)) or not self.probabilities:
            raise ValidationError(
                f"probabilities must be a list with at least one probability, got {self.probabilities!r}"
            )
        eps = self.cma_epsilon
        if not isinstance(eps, numbers.Real) or isinstance(eps, bool) or not eps > 0:
            raise ValidationError(f"cma_epsilon must be a positive number, got {eps!r}")
        self.probabilities = sorted({check_probability(p) for p in self.probabilities})
        self.bit = check_fault(self.fault, self.bit)
        self.trials = check_int(self.trials, "trials", 1)
        self.seed = check_u64(self.seed, "seed")
        self.budget = check_int(self.budget, "budget", 1)
        self.cma_window = check_int(self.cma_window, "cma_window", 2)
        self.cma_epsilon = float(eps)


@dataclass
class RunConfig:
    """A loaded config.json: the input paths and the checked campaign."""

    model: Path
    dataset: Path
    spec: CampaignSpec


#: The top-level keys of config.json: required campaign keys, optional ones
#: (CampaignSpec holds their defaults) and paths relative to the file.
_CONFIG_REQUIRED = ("mode", "target", "probabilities", "fault")
_CONFIG_OPTIONAL = ("bit", "trials", "metric", "seed", "budget", "cma_window", "cma_epsilon")
_CONFIG_PATHS = ("model", "dataset", "out_dir")


def load_config(path) -> RunConfig:
    """Load a run configuration; CampaignSpec checks the campaign parameters.

    A key outside the documented set is rejected by name, so a misspelt
    optional key never falls back to its default unnoticed.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: malformed JSON at line {exc.lineno}: {exc.msg}") from None
    where = str(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{where}: expected a JSON object")
    unknown = sorted(set(doc) - {*_CONFIG_REQUIRED, *_CONFIG_OPTIONAL, *_CONFIG_PATHS})
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")
    fields = {("targets" if key == "target" else key): _require(doc, key, where) for key in _CONFIG_REQUIRED}
    fields.update((key, doc[key]) for key in _CONFIG_OPTIONAL if key in doc)
    model, dataset, out_dir = (path.parent / _require(doc, name, where) for name in _CONFIG_PATHS)
    try:
        spec = CampaignSpec(out_dir=out_dir, **fields)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    return RunConfig(model=model, dataset=dataset, spec=spec)


def save_config(doc: dict, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@contextmanager
def replacing(paths, mode: str = "w"):
    """Open `<name>.tmp` beside each path in `paths` and yield the open files.

    Once the block completes, every file is closed and only then renamed
    over its path, in the order given, so each path holds either its old
    bytes or its whole new content.  If the block raises, the temp files are
    removed and no path is touched.
    """
    tmps = [p.with_name(p.name + ".tmp") for p in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open(t, mode, encoding=None if "b" in mode else "utf-8")) for t in tmps]
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise
    for tmp, path in zip(tmps, paths):
        os.replace(tmp, path)
