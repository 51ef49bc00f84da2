"""Campaign orchestration: probability sweeps, per-layer experiments, reports.

A trial is one pass over the evaluation set under a fixed fault spec and a
derived random stream; its accuracy is one observation.  Each (target,
probability) cell runs `trials` independent trials, and the cumulative
moving average of the per-trial accuracies is reported so the trial count
can be judged sufficient.

Layer-wise, the cells of one target share their random streams: each
(target, trial) is injected and replayed once, at the largest probability,
and that one replay yields the trial's accuracy and records at every
probability (`executor.at_probability`).  A worker runs a contiguous range
of a target's trials in one `executor.run_injected_layerwise` call, which
reads each chunk of the target's store once for the whole range rather
than once per trial, and replays each distinct corrupted row once,
whichever of the range's trials hit it.  A target's cells are appended
together once all its trials are done.

Operation-wise, each trial replays only the samples its faults hit, from
the golden input of their first hit layer, in chunks within the budget;
the words of each (trial, site) are drawn once.  Both modes read their
golden predictions and layer inputs from one store (`executor.layer_caches`)
and never run a separate golden pass.

Trials are independent.  Each worker takes one contiguous range of them,
and the results are concatenated in trial order, so reports are
byte-identical at any worker count.  Unless told otherwise, campaigns use a
single worker, since a pool measured slower in both modes.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .engine import INVALID_PREDICTION, Model
from .errors import ValidationError
from .executor import (at_probability, boundary_layers, layer_caches, replay_layers, run_injected_layerwise,
                       run_injected_opwise)
from .faults import RNG_ALGORITHM, FaultSpec, check_int, concat_records, records_to_rows
from .microops import INJECTABLE_KINDS, expand_prelu
from .model_io import DEFAULT_CMA_EPSILON, DEFAULT_CMA_WINDOW, CampaignSpec, Dataset, replacing

SUMMARY_FILE = "summary.json"
ACCURACY_FILE = "accuracy.csv"
CMA_FILE = "cma.csv"
RECORDS_FILE = "records.csv"
LAYERS_FILE = "layers.csv"


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def accuracy(preds, reference) -> float:
    """Fraction of predictions equal to the reference (labels or golden predictions).

    Invalid predictions never match anything, including themselves.
    """
    p = np.asarray(preds, dtype=np.int64)
    ref = np.asarray(reference, dtype=np.int64)
    if len(p) != len(ref):
        raise ValidationError(f"prediction count {len(p)} does not match reference count {len(ref)}")
    match = (p == ref) & (p != INVALID_PREDICTION)
    return float(np.count_nonzero(match) / len(p))


def cma(series) -> list[float]:
    """Cumulative moving average via a running sum: out[n] = sum(x[:n+1])/(n+1)."""
    series = list(series)
    if not series:
        raise ValidationError("cma requires a non-empty series")
    out = []
    total = 0.0
    for i, x in enumerate(series):
        total += float(x)
        out.append(total / (i + 1))
    return out


@dataclass(frozen=True)
class ConvergenceCheck:
    converged: bool
    note: str | None = None


def check_convergence(cma_series, window: int = DEFAULT_CMA_WINDOW, epsilon: float = DEFAULT_CMA_EPSILON) -> ConvergenceCheck:
    """True iff the last `window` CMA values span at most `epsilon`."""
    check_int(window, "cma_window", 2)
    series = list(cma_series)
    if len(series) < window:
        return ConvergenceCheck(False, f"insufficient trials: {len(series)} < window {window}")
    tail = series[-window:]
    return ConvergenceCheck(max(tail) - min(tail) <= epsilon)


def converged(cma_series, window: int = DEFAULT_CMA_WINDOW, epsilon: float = DEFAULT_CMA_EPSILON) -> bool:
    return check_convergence(cma_series, window, epsilon).converged


def _seq_std(xs, mean: float) -> float:
    # population deviation (divisor N) over trial accuracies
    total = 0.0
    for x in xs:
        d = float(x) - mean
        total += d * d
    return math.sqrt(total / len(xs))


# ---------------------------------------------------------------------------
# Campaign results
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CellResult:
    """Statistics for one (target, probability) cell."""

    target_label: str
    target_kind: str  # layer kind, or "" for op targets
    output_shape: tuple
    probability: float
    accuracies: list[float]
    cma: list[float]
    mean: float
    std: float
    min: float
    max: float
    converged: bool
    convergence_note: str | None
    records: np.ndarray  # RECORD_DTYPE


@dataclass(eq=False)
class CampaignResult:
    spec: CampaignSpec
    reference_accuracy: float
    golden: np.ndarray  # (samples,) int64 golden predictions
    cells: list[CellResult]
    partial: bool = False


def _make_cell(label: str, kind: str, shape: tuple, probability: float, outcomes, spec: CampaignSpec) -> CellResult:
    """The cell of one (target, probability) from its per-trial (accuracy, records), in trial order."""
    accuracies = [a for a, _ in outcomes]
    series = cma(accuracies)
    check = check_convergence(series, spec.cma_window, spec.cma_epsilon)
    # mean is defined as the running-sum mean, which the CMA ends on exactly
    mean = series[-1]
    return CellResult(
        target_label=label,
        target_kind=kind,
        output_shape=shape,
        probability=probability,
        accuracies=accuracies,
        cma=series,
        mean=mean,
        std=_seq_std(accuracies, mean),
        min=min(accuracies),
        max=max(accuracies),
        converged=check.converged,
        convergence_note=check.note,
        records=concat_records([r for _, r in outcomes]),
    )


def resolve_targets(spec: CampaignSpec, model: Model) -> list:
    """The layer indices (layer mode) or op kinds (op mode) that spec.targets names in `model`.

    Raises ValidationError for a layer past the model's end or an op kind
    the model does not contain.
    """
    if spec.mode == "layer":
        if spec.targets == "all":
            return list(range(len(model.layers)))
        for t in spec.targets:
            if t >= len(model.layers):
                raise ValidationError(f"layer target {t} out of range for {len(model.layers)} layers")
        return spec.targets
    expanded = expand_prelu(model)
    if spec.targets == "all":
        present = expanded.kinds_present()
        kinds = [k for k in INJECTABLE_KINDS if k in present]
        if not kinds:
            raise ValidationError("model contains no injectable micro-ops")
        return kinds
    expanded.require_kinds(spec.targets)
    return spec.targets


def _worker_count(workers) -> int:
    """`workers`, else BITSTORM_THREADS (a non-negative integer); 0 or less picks the count.

    The picked count is 1 in either mode: since trials are batched and
    replays follow the receptive-field cone, a pool measured slower than a
    single worker on every benchmark workload (on 2 CPUs).
    """
    if workers is None:
        text = os.environ.get("BITSTORM_THREADS", "").strip() or "0"
        if not (text.isascii() and text.isdigit()):
            raise ValidationError(f"BITSTORM_THREADS must be a non-negative integer, got {text!r}")
        workers = int(text)
    if workers <= 0:
        workers = 1
    return workers


def _run_trials(trials: int, workers: int, run_range):
    """run_range(r) over contiguous ranges r that cover range(trials), one per worker; results in trial order.

    run_range returns one result per trial of its range.  The ranges differ
    in length by at most one.
    """
    count = max(1, min(workers, trials))
    ranges = [range(i * trials // count, (i + 1) * trials // count) for i in range(count)]
    if count == 1:
        return run_range(ranges[0])
    with ThreadPoolExecutor(max_workers=count) as pool:
        return [result for part in pool.map(run_range, ranges) for result in part]


def run_stochastic(spec: CampaignSpec, model: Model, dataset: Dataset, workers: int | None = None, cache_root=None) -> CampaignResult:
    """Run the full sweep: every target, every probability, `trials` trials.

    The golden predictions come from the pass that builds the store of
    layer outputs the trials read (or from the store itself when it is
    reused): each target layer's output layer-wise, the input of each
    layer holding a targeted op op-wise.
    On an error mid-campaign, the cells completed so far are flushed to
    spec.out_dir (when set) before the exception propagates.
    """
    workers = _worker_count(workers)
    tmp = None
    if cache_root is None:
        if spec.out_dir is not None:
            cache_root = Path(spec.out_dir) / "caches"
        else:
            tmp = tempfile.TemporaryDirectory(prefix="bitstorm_cache_")
            cache_root = Path(tmp.name)
    try:
        return _run_cells(spec, model, dataset, workers, Path(cache_root))
    finally:
        if tmp is not None:
            tmp.cleanup()


def _run_cells(spec: CampaignSpec, model: Model, dataset: Dataset, workers: int, cache_root: Path) -> CampaignResult:
    targets = resolve_targets(spec, model)
    if spec.mode == "layer":
        caches = layer_caches(model, dataset, targets, spec.budget, cache_root, extra=replay_layers(model, targets))
    else:
        expanded = expand_prelu(model)
        caches = layer_caches(model, dataset, boundary_layers(expanded, targets), spec.budget, cache_root)
    golden = next(iter(caches.values())).golden
    if spec.metric == "ground_truth":
        reference = dataset.labels.astype(np.int64)
        reference_accuracy = accuracy(golden, reference)
    else:
        reference = golden
        reference_accuracy = 1.0

    cells: list[CellResult] = []
    result = CampaignResult(spec=spec, reference_accuracy=reference_accuracy, golden=golden, cells=cells)
    try:
        if spec.mode == "layer":
            for layer in targets:
                fault = FaultSpec(mode="layer", target=layer, fault=spec.fault,
                                  probability=max(spec.probabilities), seed=spec.seed, bit=spec.bit)

                def run_range(trials, fault=fault):
                    outcomes = []
                    for run in run_injected_layerwise(model, caches, fault, trials):
                        derived = (at_probability(golden, *run, p) for p in spec.probabilities)
                        outcomes.append([(accuracy(preds, reference), records) for preds, records in derived])
                    return outcomes

                by_trial = _run_trials(spec.trials, workers, run_range)
                for p, outcomes in zip(spec.probabilities, zip(*by_trial)):
                    cells.append(_make_cell(str(layer), model.layers[layer].kind, model.output_shapes[layer],
                                            p, outcomes, spec))
        else:
            for kind in targets:
                for p in spec.probabilities:
                    fault = FaultSpec(mode="op", target=(kind,), fault=spec.fault,
                                      probability=p, seed=spec.seed, bit=spec.bit)

                    def run_range(trials, fault=fault):
                        runs = (run_injected_opwise(expanded, dataset, caches, fault, trial) for trial in trials)
                        return [(accuracy(preds, reference), records) for preds, records in runs]

                    cells.append(_make_cell(kind, "", (), p, _run_trials(spec.trials, workers, run_range), spec))
    except BaseException:
        if spec.out_dir is not None and cells:
            result.partial = True
            emit_report(result, spec.out_dir)
        raise
    return result


def run_deterministic_100(spec: CampaignSpec, model: Model, dataset: Dataset, workers: int | None = None, cache_root=None) -> CampaignResult:
    """Per-layer experiments at a fixed 100% injection probability.

    Accuracy is measured against the golden run; layers appear in index
    order in the result.
    """
    if spec.mode != "layer":
        raise ValidationError("deterministic 100% campaigns are layer-wise")
    fixed = replace(spec, probabilities=[1.0], metric="golden_run")
    return run_stochastic(fixed, model, dataset, workers=workers, cache_root=cache_root)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _comment(spec: CampaignSpec) -> str:
    return f"# bitstorm {__version__}; rng={RNG_ALGORITHM}; seed={spec.seed}"


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_report(result: CampaignResult, out_dir) -> None:
    """Write summary.json plus the four CSV files; byte-stable on re-emit.

    Each file is streamed to a temp file and renamed into place only when all
    five are complete, so a failed emit leaves the previous report intact.
    records.csv is written one block of records at a time, as
    `records_to_rows` formats them.
    """
    if not result.cells:
        raise ValidationError("cannot emit a report with no completed cells")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = result.spec

    cells_doc = []
    for cell in result.cells:
        cells_doc.append(
            {
                "target": cell.target_label,
                "kind": cell.target_kind,
                "output_shape": list(cell.output_shape),
                "probability": cell.probability,
                "trials": len(cell.accuracies),
                "mean": cell.mean,
                "std": cell.std,
                "min": cell.min,
                "max": cell.max,
                "converged": cell.converged,
                "convergence_note": cell.convergence_note,
                "injections": int(cell.records.size),
                "accuracies": cell.accuracies,
                "cma": cell.cma,
            }
        )
    summary = {
        "tool": f"bitstorm {__version__}",
        "rng": RNG_ALGORITHM,
        "seed": spec.seed,
        "mode": spec.mode,
        "fault": spec.fault,
        "bit": spec.bit,
        "metric": spec.metric,
        "trials": spec.trials,
        "probabilities": spec.probabilities,
        "convergence": {"window": spec.cma_window, "epsilon": spec.cma_epsilon},
        "reference_accuracy": result.reference_accuracy,
        "partial": result.partial,
        "cells": cells_doc,
    }

    header = _comment(spec)
    # summary.json, which `bitstorm report` reads, is renamed into place last
    names = (ACCURACY_FILE, CMA_FILE, RECORDS_FILE, LAYERS_FILE, SUMMARY_FILE)
    with replacing([out_dir / name for name in names]) as (acc_fh, cma_fh, rec_fh, layers_fh, summary_fh):
        acc_fh.write(header + "\n")
        acc_fh.write("target,probability,trial,accuracy\n")
        for cell in result.cells:
            for t, acc in enumerate(cell.accuracies):
                acc_fh.write(f"{cell.target_label},{_fmt(cell.probability)},{t},{_fmt(acc)}\n")

        cma_fh.write(header + "\n")
        cma_fh.write("target,probability,trial,cma\n")
        for cell in result.cells:
            for t, value in enumerate(cell.cma):
                cma_fh.write(f"{cell.target_label},{_fmt(cell.probability)},{t},{_fmt(value)}\n")

        rec_fh.write(header + "\n")
        rec_fh.write("target,probability,trial,sample,site,element,bit,original_hex,corrupted_hex\n")
        for cell in result.cells:
            rec_fh.writelines(records_to_rows(cell.records, f"{cell.target_label},{_fmt(cell.probability)},"))

        layers_fh.write(header + "\n")
        layers_fh.write("target,kind,output_shape,probability,mean,std,min,max\n")
        for cell in result.cells:
            shape = "x".join(str(e) for e in cell.output_shape)
            layers_fh.write(
                f"{cell.target_label},{cell.target_kind},{shape},{_fmt(cell.probability)},"
                f"{_fmt(cell.mean)},{_fmt(cell.std)},{_fmt(cell.min)},{_fmt(cell.max)}\n"
            )

        summary_fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
