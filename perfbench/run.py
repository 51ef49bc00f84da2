#!/usr/bin/env python3
"""Campaign benchmark for bitstorm.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Writes the workload's toy model and dataset, loads them through the public
API (timed as set-up), then runs whole campaign rounds seeded with --seed
(`run_stochastic` into a fresh cache directory, then `emit_report` into a
fresh directory) until --seconds are used up.  The first round is checked
against computations made apart from bitstorm (checks.py); every later round
must give byte-identical reports.  The last stdout line is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics (tracer.py) with
--trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups before each untraced round; setup_s is the median of all of them.
SETUP_REPS = 3

# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "sweep": dict(variant="cnn", mode="layer", targets="all", probabilities=[0.0, 0.25, 0.5, 0.75, 1.0],
                  fault="bit_flip_random", bit=None, trials=2, budget=None),
    "late-p1-spill": dict(variant="cnn", mode="layer", targets=[8, 9, 10, 11], probabilities=[1.0],
                          fault="bit_flip_specific", bit=30, trials=100, budget=8 * 1024),
    "opwise": dict(variant="prelu-cnn", mode="op", targets=["Add", "Sub", "Mul", "ReLU", "Abs", "ConstMul"],
                   probabilities=[0.0, 0.5, 1.0], fault="bit_flip_random", bit=None, trials=3, budget=1 << 20),
}

#: opwise copies each of the PReLU toy's 60 samples this many times, jittered.
OPWISE_COPIES = 32
OPWISE_JITTER = 0.05

END_TO_END = {"setup_s": "s", "inferences_per_s": "1/s", "report_s": "s", "peak_rss_mib": "MiB"}


def import_bitstorm():
    """Import bitstorm from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "bitstorm" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'bitstorm'} not found; run from a bitstorm checkout")
    sys.path.insert(0, str(src))
    import bitstorm
    import bitstorm.toygen

    if Path(bitstorm.__file__).resolve().parent != (src / "bitstorm").resolve():
        sys.exit(f"error: imported bitstorm from {bitstorm.__file__}, not from {src}")
    return bitstorm


def make_inputs(bs, wl: dict, seed: int, ws: Path) -> None:
    """Write model.json, weights.bin and dataset/ for one seed.

    The toy model is always the one of toygen's default seed: toys of other
    seeds differ in how many activations a flip turns subnormal or infinite,
    which moved the speed of `late-p1-spill` by up to 20% from seed to seed.
    The seed drives the fault streams and, on `opwise`, the sample jitter.
    """
    import numpy as np

    if wl["variant"] == "cnn":
        model, dataset = bs.toygen.build_toy_cnn(bs.toygen.DEFAULT_SEED)
    else:
        model, dataset = bs.toygen.build_toy_prelu_cnn(bs.toygen.DEFAULT_SEED)
        rng = np.random.default_rng(seed)
        copies = [dataset.samples + rng.uniform(-OPWISE_JITTER, OPWISE_JITTER, dataset.samples.shape)
                  for _ in range(OPWISE_COPIES)]
        dataset = bs.Dataset(samples=np.concatenate(copies).astype(np.float32),
                             labels=np.tile(dataset.labels, OPWISE_COPIES), class_count=dataset.class_count)
    bs.save_model(model, ws / "model.json")
    bs.save_dataset(dataset, ws / "dataset")


def setup(bs, wl: dict, ws: Path):
    model = bs.load_model(ws / "model.json")
    dataset = bs.load_dataset(ws / "dataset", class_count=model.class_count)
    bs.executor.golden_run(model, dataset)
    expanded = bs.expand_prelu(model) if wl["mode"] == "op" else None
    return model, dataset, expanded


def report_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_digest() -> str:
    """Digest of the program and the benchmark code, which key the stored digests."""
    h = hashlib.sha256()
    bench = [p for p in HERE.glob("*.py") if not p.name.startswith("test_")]
    for path in sorted([*(ROOT / "src" / "bitstorm").rglob("*.py"), *bench]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def remembered(workload: str, seed: int, doc: dict) -> list[str]:
    """Compare `doc` with what earlier runs of this workload, seed and source stored.

    Keys seen for the first time are stored.  This is how the report digest
    is compared across runs, and the traced counts across traced runs.
    """
    path = OUT / "digests" / f"{workload}-seed{seed}-{source_digest()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    stored = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    errors = [f"{key} differs from an earlier run" for key, value in doc.items() if key in stored and stored[key] != value]
    if any(key not in stored for key in doc):
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**doc, **stored}, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    return errors


def cell_sites(result_cell, wl: dict, model, expanded):
    """(site id, element count) of every site a cell injects into."""
    if wl["mode"] == "layer":
        layer = int(result_cell.target_label)
        return [(layer, math.prod(model.output_shapes[layer]))]
    return [(op.op_id, math.prod(model.output_shapes[op.layer_index]))
            for op in expanded.all_ops() if op.kind == result_cell.target_label]


def check_round(wl: dict, seed: int, result, report_dir: Path, model, expanded, cells: int):
    """Failed operations of a round: the trials of each failing cell, plus the report."""
    oracle = checks.PhiloxOracle(seed)
    samples = len(result.golden)
    failed = (cells - len(result.cells)) * wl["trials"]
    messages = []
    if result.reference_accuracy != 1.0:
        messages.append(f"golden_run reference accuracy is {result.reference_accuracy}")
    for cell in result.cells:
        errors = checks.check_cell(cell, oracle, cell_sites(cell, wl, model, expanded), samples, wl["fault"], wl["bit"])
        if errors:
            failed += len(cell.accuracies)
            messages += [f"cell {cell.target_label} p={cell.probability}: {e}" for e in errors]
    report_errors = checks.check_report(result, report_dir)
    messages += report_errors
    failed += bool(report_errors)
    return failed, messages


def run_round(bs, wl: dict, spec, ws: Path, round_dir: Path, workers: int, setups: int):
    """Set up `setups` times, run the campaign and emit its report.

    Returns the set-up times, the campaign and report seconds, and the result.
    """
    setup_s = []
    for _ in range(setups):
        start = perf_counter()
        model, dataset, _ = setup(bs, wl, ws)
        setup_s.append(perf_counter() - start)
    start = perf_counter()
    result = bs.run_stochastic(spec, model, dataset, workers=workers, cache_root=round_dir / "cache")
    middle = perf_counter()
    bs.emit_report(result, round_dir / "report")
    end = perf_counter()
    shutil.rmtree(round_dir / "cache", ignore_errors=True)
    return setup_s, middle - start, end - middle, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="campaign trial threads; the gated runs use 1, README's thread-pool figure uses nproc")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    bs = import_bitstorm()
    wl = WORKLOADS[args.workload]
    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        ws = run_dir / "inputs"
        make_inputs(bs, wl, args.seed, ws)
        model, dataset, expanded = setup(bs, wl, ws)  # warm-up, untimed
        if wl["mode"] == "layer" and wl["budget"] is not None:
            fits = [t for t in wl["targets"] if math.prod(model.output_shapes[t]) * 4 * len(dataset) <= wl["budget"]]
            if fits:
                sys.exit(f"error: the caches of targets {fits} fit the budget and would not spill")
        spec = bs.CampaignSpec(mode=wl["mode"], targets=wl["targets"], probabilities=wl["probabilities"],
                               fault=wl["fault"], bit=wl["bit"], trials=wl["trials"], metric="golden_run",
                               seed=args.seed, **({"budget": wl["budget"]} if wl["budget"] else {}))
        cells = len(wl["probabilities"]) * (len(model.layers) if wl["targets"] == "all" else len(wl["targets"]))

        tracer = tracing.Tracer()
        setup_s, campaign_s, report_s, traced, digests = [], [], [], [], []
        first = None
        elapsed = 0.0
        # Whole rounds only, while one more (at the mean round time) still fits.
        while not digests or (args.trace and len(digests) < 2) or elapsed + elapsed / len(digests) <= args.seconds:
            round_dir = run_dir / f"round-{len(digests)}"
            round_start = perf_counter()
            if args.trace and len(digests) % 2 == 1:
                tracer.install(bs)
                try:
                    _, _, _, result = run_round(bs, wl, spec, ws, round_dir, args.workers, setups=1)
                finally:
                    tracer.uninstall()
                traced.append(tracer.summary())
                tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
                tracer.reset()
            else:
                setups, campaign, report, result = run_round(bs, wl, spec, ws, round_dir, args.workers, SETUP_REPS)
                setup_s += setups
                campaign_s.append(campaign)
                report_s.append(report)
            elapsed += perf_counter() - round_start
            digests.append(report_digest(round_dir / "report"))
            if first is None:
                # Peak memory of one set-up, campaign and report; later rounds
                # would add the results this benchmark keeps for its checks.
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                first = (result, round_dir / "report")
            else:
                shutil.rmtree(round_dir / "report")
            result = None

        per_round = cells * wl["trials"] + 1
        attempted = per_round * len(digests)
        failed, messages = check_round(wl, args.seed, first[0], first[1], model, expanded, cells)
        for i, digest in enumerate(digests[1:], start=1):
            if digest != digests[0]:
                failed += per_round
                messages.append(f"round {i} report digest differs from round 0")
        memory = {"report_digest": digests[0]}
        if traced:
            counts = {k: v for k, v in traced[0].items() if v is not None and not k.endswith("_s")}
            if any({k: t[k] for k in counts} != counts for t in traced[1:]):
                messages.append("traced counts differ between rounds")
            memory["traced_counts"] = counts
        stale = remembered(args.workload, args.seed, memory)
        if stale:
            failed = attempted
            messages += stale
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for message in messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(digests)} rounds, report digest {digests[0][:16]}, "
          f"campaign s {[round(t, 3) for t in campaign_s]}, report s {[round(t, 3) for t in report_s]}", file=sys.stderr)

    if args.trace:
        values = {k: statistics.median(t[k] for t in traced) if traced[0][k] is not None else None for k in traced[0]}
        overhead = values["campaign.run_stochastic_s"]
        values["trace.overhead_s"] = None if overhead is None else overhead - statistics.median(campaign_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in tracing.METRICS}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            # Work done over time taken: phases of a few seconds when the
            # machine runs faster or slower average out better than in a median.
            "inferences_per_s": cells * wl["trials"] * len(dataset) * len(campaign_s) / sum(campaign_s),
            "report_s": statistics.median(report_s),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not messages, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
