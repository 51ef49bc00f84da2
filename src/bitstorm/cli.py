"""Command-line front end.

    bitstorm golden   --config config.json [--seed N] [--out DIR]
    bitstorm cache    --config config.json [--budget BYTES] [--out DIR]
    bitstorm campaign --config config.json [--seed N] [--out DIR] [--budget BYTES] [--trials N]
    bitstorm report   --config config.json [--out DIR]
    bitstorm gen-toy  --out DIR [--seed N] [--variant cnn|prelu-cnn]

Exit codes: 0 success, 1 internal error, 2 input/validation error,
3 resource error (budget, lock contention, any OS error such as a full
disk).  Console output is mirrored into run.log inside the output
directory.  Concurrent invocations against the same output directory are
rejected via an flock on a lock file, which the kernel releases when the
process dies.  ``BITSTORM_THREADS``, a non-negative integer, sets the
campaign worker count (0 = auto, which is one worker).
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .campaign import (
    ACCURACY_FILE,
    RECORDS_FILE,
    SUMMARY_FILE,
    _worker_count,
    accuracy,
    emit_report,
    resolve_targets,
    run_stochastic,
)
from .errors import BitstormError, ResourceError, ValidationError
from .executor import golden_run, layer_caches, replay_layers
from .faults import check_u64
from .model_io import load_config, load_dataset, load_model, replacing
from . import toygen

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


class Console:
    """Prints to stdout and mirrors every line into out_dir/run.log."""

    def __init__(self):
        self._log = None

    def attach(self, out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        self._log = open(out_dir / "run.log", "a", encoding="utf-8")

    def line(self, text: str = ""):
        print(text)
        if self._log is not None:
            self._log.write(text + "\n")
            self._log.flush()

    def close(self):
        if self._log is not None:
            self._log.close()
            self._log = None


@contextmanager
def _locked(out_dir: Path):
    """Hold an exclusive flock on out_dir/.bitstorm.lock for the whole command.

    The kernel releases the lock when the process dies, so a killed run
    never blocks the next one.  The holder unlinks the file before it lets
    go; a process that opened the file before the unlink then finds another
    inode (or none) at the path and treats that as contention too.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".bitstorm.lock"
    fd = os.open(lock, os.O_CREAT | os.O_WRONLY, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            held = os.path.samestat(os.fstat(fd), os.stat(lock))
        except (BlockingIOError, FileNotFoundError):
            held = False
        if not held:
            raise ResourceError(f"output directory {out_dir} is in use by another invocation (lock file {lock})")
        try:
            yield
        finally:
            lock.unlink(missing_ok=True)
    finally:
        os.close(fd)


def _apply_overrides(config, args):
    """Command-line values replace the config's; replace() re-runs the campaign checks."""
    changes = {name: getattr(args, name) for name in ("seed", "budget", "trials") if getattr(args, name, None) is not None}
    if getattr(args, "out", None) is not None:
        changes["out_dir"] = Path(args.out)
    config.spec = dataclasses.replace(config.spec, **changes)
    return config


def _load_inputs(config):
    model = load_model(config.model)
    dataset = load_dataset(config.dataset, class_count=model.class_count)
    return model, dataset


def cmd_golden(args, console: Console) -> int:
    config = _apply_overrides(load_config(args.config), args)
    out_dir = config.spec.out_dir
    model, dataset = _load_inputs(config)
    with _locked(out_dir):
        console.attach(out_dir)
        preds = golden_run(model, dataset)
        vs_labels = accuracy(preds, dataset.labels)
        doc = {"sample_count": len(preds), "predictions": preds.tolist(), "accuracy_vs_labels": vs_labels}
        with replacing([out_dir / "golden.json"]) as (fh,):
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        console.line(f"golden run: {len(preds)} predictions -> {out_dir / 'golden.json'}")
        console.line(f"accuracy vs labels: {vs_labels!r}")
    return EXIT_OK


def cmd_cache(args, console: Console) -> int:
    config = _apply_overrides(load_config(args.config), args)
    spec = config.spec
    if spec.mode != "layer":
        raise ValidationError("cache requires a layer-wise config (mode 'layer')")
    model, dataset = _load_inputs(config)
    targets = resolve_targets(spec, model)
    with _locked(spec.out_dir):
        console.attach(spec.out_dir)
        caches = layer_caches(model, dataset, targets, spec.budget, spec.out_dir / "caches",
                              extra=replay_layers(model, targets))
        total = 0
        for layer, cache in caches.items():
            reads = f"in {cache.chunk_count} chunk(s)" if layer in targets else "read by row range"
            console.line(f"cache layer {layer} ({model.layers[layer].name}): {cache.total_bytes} bytes {reads}")
            total += cache.total_bytes
        console.line(f"total cache payload: {total} bytes")
    return EXIT_OK


def _print_summary(console: Console, summary: dict):
    console.line(f"{'target':>8} {'kind':<14} {'prob':>6} {'mean':>10} {'std':>10} {'min':>10} {'max':>10}  converged")
    not_converged = []
    for cell in summary["cells"]:
        console.line(
            f"{cell['target']:>8} {cell['kind']:<14} {cell['probability']:>6} "
            f"{cell['mean']:>10.6f} {cell['std']:>10.6f} {cell['min']:>10.6f} {cell['max']:>10.6f}  "
            + ("yes" if cell["converged"] else "NO")
        )
        if not cell["converged"]:
            note = cell.get("convergence_note") or "cma range above epsilon"
            not_converged.append(f"  target {cell['target']} p={cell['probability']}: {note}")
    window = summary["convergence"]["window"]
    epsilon = summary["convergence"]["epsilon"]
    total = len(summary["cells"])
    ok = sum(1 for c in summary["cells"] if c["converged"])
    console.line(f"reference accuracy (no injection): {summary['reference_accuracy']!r}")
    console.line(f"cma convergence (window={window}, epsilon={epsilon}): {ok}/{total} cells converged")
    for line in not_converged:
        console.line(line)


def cmd_campaign(args, console: Console) -> int:
    config = _apply_overrides(load_config(args.config), args)
    spec = config.spec
    workers = _worker_count(None)
    model, dataset = _load_inputs(config)
    resolve_targets(spec, model)  # a bad thread count or target is rejected before out_dir is created
    with _locked(spec.out_dir):
        console.attach(spec.out_dir)
        result = run_stochastic(spec, model, dataset, workers=workers)
        emit_report(result, spec.out_dir)
        summary = json.loads((spec.out_dir / SUMMARY_FILE).read_text(encoding="utf-8"))
        _print_summary(console, summary)
        console.line(f"report written to {spec.out_dir} ({SUMMARY_FILE}, {ACCURACY_FILE}, cma.csv, {RECORDS_FILE}, layers.csv)")
    return EXIT_OK


def cmd_report(args, console: Console) -> int:
    out_dir = _apply_overrides(load_config(args.config), args).spec.out_dir
    summary_path = out_dir / SUMMARY_FILE
    if not summary_path.is_file():
        raise ValidationError(f"no campaign summary found at {summary_path}; run 'bitstorm campaign' first")
    console.attach(out_dir)
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    console.line(f"campaign report {summary_path} ({summary['tool']}, rng={summary['rng']}, seed={summary['seed']})")
    if summary.get("partial"):
        console.line("NOTE: partial results from an interrupted run")
    _print_summary(console, summary)
    return EXIT_OK


def cmd_gen_toy(args, console: Console) -> int:
    out = Path(args.out)
    seed = check_u64(toygen.DEFAULT_SEED if args.seed is None else args.seed, "seed")
    with _locked(out):
        console.attach(out)
        info = toygen.generate(out, seed=seed, variant=args.variant)
        console.line(f"toy {args.variant}: {info['layers']} layers, {info['samples']} samples, seed {seed}")
        console.line(f"wrote {info['model']}, {info['dataset']}/, {info['config']}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bitstorm", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"bitstorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials=False, budget=False):
        p.add_argument("--config", required=True, help="path to config.json")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if budget:
            p.add_argument("--budget", type=int, default=None, help="override the cache memory budget (bytes)")
        if trials:
            p.add_argument("--trials", type=int, default=None, help="override the trials per probability")

    common(sub.add_parser("golden", help="run and persist the fault-free predictions"))
    common(sub.add_parser("cache", help="build activation caches for the configured layers"), budget=True)
    common(sub.add_parser("campaign", help="run the configured fault-injection campaign"),
           trials=True, budget=True)
    common(sub.add_parser("report", help="re-render the summary of an existing campaign"))

    gen = sub.add_parser("gen-toy", help="generate a seeded toy model and dataset")
    gen.add_argument("--out", required=True, help="destination directory")
    gen.add_argument("--seed", type=int, default=None, help="generation seed")
    gen.add_argument("--variant", choices=("cnn", "prelu-cnn"), default="cnn",
                     help="12-layer CNN (layer-wise) or PReLU CNN (operation-wise)")
    return parser


_COMMANDS = {
    "golden": cmd_golden,
    "cache": cmd_cache,
    "campaign": cmd_campaign,
    "report": cmd_report,
    "gen-toy": cmd_gen_toy,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    console = Console()
    try:
        return _COMMANDS[args.command](args, console)
    except ValidationError as exc:
        print(f"bitstorm: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ResourceError, OSError) as exc:
        print(f"bitstorm: resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except KeyboardInterrupt:
        print("bitstorm: interrupted", file=sys.stderr)
        return 130
    except BitstormError as exc:
        print(f"bitstorm: error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, never crashes
        print(f"bitstorm: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        console.close()


if __name__ == "__main__":
    sys.exit(main())
