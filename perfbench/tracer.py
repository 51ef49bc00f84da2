"""Spans and counters recorded around bitstorm's public functions.

The tracer wraps a function by rebinding its name in every bitstorm module
that holds it, so calls through `from .engine import head_batch` are seen
too.  Spans (name, start, end, parent span) and counters stay in memory
until the benchmark writes them out.  A function that no longer exists is
skipped, and the metrics that need it are reported as absent (null).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

#: Layer names of the two toy models; each run reports every one of them,
#: with zeros for the names its model does not have.
LAYER_NAMES = (
    "conv1", "conv2", "pool1", "drop1", "conv3", "conv4", "pool2", "drop2", "flatten", "dense1",
    "drop3", "dense_softmax", "prelu1", "prelu2", "softmax",
)


def _count_head(c, args, out):
    c["engine.head_layer_evals"] += args[1] + 1


def _count_tail(c, args, out):
    model, layer, acts = args[:3]
    c["executor.replayed_rows"] += acts.shape[0]
    c["engine.tail_row_layers"] += acts.shape[0] * (len(model.layers) - layer - 1)


def _count_golden(c, args, out):
    c["executor.golden_run_calls"] += 1


def _count_cache(c, args, out):
    c["executor.cache_bytes_written"] += out.total_bytes


def _count_inject(c, args, out):
    c["faults.inject_rows"] += args[0].shape[0]
    c["faults.records"] += out[1].size


def _count_layer(c, args, out):
    c[f"engine.layer.{args[0].name}_rows"] += args[1].shape[0]


def _count_microops(c, args, out):
    c["microops.ops_evaluated"] += sum(len(ops) for ops in args[0].ops_by_layer)
    c["microops.max_batch_rows"] = max(c["microops.max_batch_rows"], len(args[1]))


def _count_accuracy(c, args, out):
    c["campaign.mispredicted_rows"] += len(args[0]) - round(out * len(args[0]))


def _count_report(c, args, out):
    c["campaign.report_bytes"] += sum(p.stat().st_size for p in Path(args[1]).iterdir())


#: (owner.function, span name or None, counter).  Owners are module short
#: names, or a module and a class.
HOOKS = (
    ("model_io.load_model", "model_io.load", None),
    ("model_io.load_dataset", "model_io.load", None),
    ("engine.head_batch", "engine.head_batch", _count_head),
    ("engine.tail_scores_batch", "engine.tail_scores_batch", _count_tail),
    ("engine.forward_layer_batch", lambda args: f"engine.layer.{args[0].name}", _count_layer),
    ("executor.golden_run", "executor.golden_run", _count_golden),
    ("executor.build_cache", "executor.build_cache", _count_cache),
    ("executor.run_injected_layerwise", "executor.run_injected_layerwise", None),
    ("executor.run_injected_opwise", "executor.run_injected_opwise", None),
    ("executor.ActivationCache.iter_chunks", None, None),
    ("faults.inject_batch", "faults.inject_batch", _count_inject),
    ("faults.philox_block", "faults.philox_block", None),
    ("microops.run_microops_batch", "microops.run_microops_batch", _count_microops),
    ("campaign.accuracy", None, _count_accuracy),
    ("campaign.run_stochastic", "campaign.run_stochastic", None),
    ("campaign.emit_report", "campaign.emit_report", _count_report),
)


def _metric_table():
    """(metric, unit, better, hooks it needs) for every per-layer metric."""
    s, n = "s", "count"
    table = [
        ("model_io.load_s", s, "lower", ["model_io.load_model", "model_io.load_dataset"]),
        ("executor.golden_run_s", s, "lower", ["executor.golden_run"]),
        ("executor.golden_run_calls", n, "lower", ["executor.golden_run"]),
        ("executor.build_cache_s", s, "lower", ["executor.build_cache"]),
        ("executor.cache_bytes_written", "bytes", "lower", ["executor.build_cache"]),
        ("engine.head_batch_s", s, "lower", ["engine.head_batch"]),
        ("engine.head_layer_evals", n, "lower", ["engine.head_batch"]),
        ("engine.tail_scores_batch_s", s, "lower", ["engine.tail_scores_batch"]),
        ("executor.replayed_rows", n, "lower", ["engine.tail_scores_batch"]),
        ("engine.tail_row_layers", n, "lower", ["engine.tail_scores_batch"]),
    ]
    for name in LAYER_NAMES:
        table.append((f"engine.layer.{name}_s", s, "lower", ["engine.forward_layer_batch"]))
        table.append((f"engine.layer.{name}_rows", n, "lower", ["engine.forward_layer_batch"]))
    chunks = ["executor.ActivationCache.iter_chunks", "executor.run_injected_layerwise"]
    table += [
        ("executor.chunks_read", n, "lower", chunks),
        ("executor.chunk_bytes_read", "bytes", "lower", chunks),
        ("executor.run_injected_layerwise_s", s, "lower", ["executor.run_injected_layerwise"]),
        ("faults.inject_batch_s", s, "lower", ["faults.inject_batch"]),
        ("faults.philox_block_s", s, "lower", ["faults.philox_block"]),
        ("faults.inject_rows", n, "lower", ["faults.inject_batch"]),
        ("faults.records", n, "lower", ["faults.inject_batch"]),
        ("executor.hit_share", "ratio", "higher", ["faults.inject_batch", "engine.tail_scores_batch"]),
        ("campaign.mispredicted_rows", n, "lower", ["campaign.accuracy"]),
        ("campaign.sdc_share", "ratio", "higher", ["campaign.accuracy", "faults.inject_batch"]),
        ("executor.run_injected_opwise_s", s, "lower", ["executor.run_injected_opwise"]),
        ("microops.run_microops_batch_s", s, "lower", ["microops.run_microops_batch"]),
        ("microops.ops_evaluated", n, "lower", ["microops.run_microops_batch"]),
        ("microops.max_batch_rows", n, "lower", ["microops.run_microops_batch"]),
        ("campaign.run_stochastic_s", s, "lower", ["campaign.run_stochastic"]),
        ("campaign.emit_report_s", s, "lower", ["campaign.emit_report"]),
        ("campaign.report_bytes", "bytes", "lower", ["campaign.emit_report"]),
        ("trace.overhead_s", s, "lower", ["campaign.run_stochastic"]),
    ]
    return table


METRICS = _metric_table()


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = perf_counter()

    def _in_span(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, fn, span, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(span if isinstance(span, str) else span(args)) if span else None
            try:
                out = fn(*args, **kwargs)
            finally:
                if index is not None:
                    tracer._close(index)
            if count is not None:
                count(tracer.counts, args, out)
            return out

        return wrapper

    def _wrap_chunks(self, fn):
        """Count chunks that a replay reads from disk (preloads are not replays)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for start, acts in fn(*args, **kwargs):
                if tracer._in_span("executor.run_injected_layerwise"):
                    tracer.counts["executor.chunks_read"] += 1
                    tracer.counts["executor.chunk_bytes_read"] += acts.nbytes
                yield start, acts

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every hook that exists in `package` (the imported bitstorm)."""
        modules = [m for name, m in sys.modules.items() if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for target, span, count in HOOKS:
            path = target.split(".")
            owner = getattr(package, path[0], None)
            for part in path[1:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None)
            if fn is None:
                self.absent.add(target)
                continue
            wrapper = self._wrap_chunks(fn) if path[-1] == "iter_chunks" else self._wrap(fn, span, count)
            holders = [owner] if len(path) > 2 else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def total(self, name: str) -> float:
        return sum(end - start for span_name, start, end, _ in self.spans if span_name == name)

    def summary(self) -> dict[str, float | int | None]:
        """Per-layer metrics for what was recorded since the last reset."""
        c = self.counts
        values = {}
        for metric, _, _, _ in METRICS:
            values[metric] = self.total(metric[:-2]) if metric.endswith("_s") else c[metric]
        values["executor.hit_share"] = _ratio(c["faults.records"], c["executor.replayed_rows"])
        values["campaign.sdc_share"] = _ratio(c["campaign.mispredicted_rows"], c["faults.records"])
        for metric, _, _, needs in METRICS:
            if self.absent.intersection(needs):
                values[metric] = None
        return values

    def write(self, path: Path) -> None:
        doc = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.write_text(json.dumps({"spans": doc, "counts": dict(self.counts)}) + "\n", encoding="utf-8")
