"""CLI tests: subcommands end to end, exit codes, locking, run.log."""

import fcntl
import gc
import json
import os
import resource
import shutil
import signal
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bitstorm
from bitstorm.cli import EXIT_OK, EXIT_RESOURCE, EXIT_VALIDATION, _locked, main
from bitstorm.errors import ResourceError
from bitstorm.executor import layer_caches
from bitstorm.model_io import Dataset, load_dataset, load_model, save_config, save_dataset


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    """A generated toy workspace shared by the CLI tests (read-only)."""
    out = tmp_path_factory.mktemp("toyws")
    assert main(["gen-toy", "--out", str(out), "--seed", "7"]) == EXIT_OK
    return out


def _write_config(path, toy_dir, **overrides):
    doc = {
        "model": str(toy_dir / "model.json"),
        "dataset": str(toy_dir / "dataset"),
        "mode": "layer",
        "target": [2],
        "fault": "bit_flip_random",
        "probabilities": [0.0, 1.0],
        "trials": 4,
        "metric": "golden_run",
        "seed": 7,
        "out_dir": "results",
    }
    doc.update(overrides)
    save_config(doc, path)
    return path


class TestGenToy:
    def test_outputs_exist(self, toy_dir):
        assert (toy_dir / "model.json").is_file()
        assert (toy_dir / "weights.bin").is_file()
        assert (toy_dir / "dataset" / "samples.bin").is_file()
        assert (toy_dir / "dataset" / "labels.bin").is_file()
        assert (toy_dir / "config.json").is_file()

    def test_regeneration_is_byte_identical(self, toy_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["gen-toy", "--out", str(again), "--seed", "7"]) == EXIT_OK
        for rel in ("model.json", "weights.bin", "dataset/samples.bin", "dataset/labels.bin", "config.json"):
            assert (toy_dir / rel).read_bytes() == (again / rel).read_bytes(), rel

    @pytest.mark.parametrize("variant", ["cnn", "prelu-cnn"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_exits_2_before_writing(self, tmp_path, capsys, seed, variant):
        out = tmp_path / "out"
        assert main(["gen-toy", "--out", str(out), "--seed", str(seed), "--variant", variant]) == EXIT_VALIDATION
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_builds_both_variants(self, tmp_path):
        for variant in ("cnn", "prelu-cnn"):
            out = tmp_path / variant
            assert main(["gen-toy", "--out", str(out), "--seed", str(2**64 - 1), "--variant", variant]) == EXIT_OK

    def test_log_file_is_closed(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["gen-toy", "--out", str(tmp_path / "out")]) == EXIT_OK
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_prelu_variant(self, tmp_path):
        out = tmp_path / "prelu"
        assert main(["gen-toy", "--out", str(out), "--variant", "prelu-cnn"]) == EXIT_OK
        doc = json.loads((out / "config.json").read_text())
        assert doc["mode"] == "op"


class TestGolden:
    def test_writes_predictions_and_reruns_identically(self, toy_dir, tmp_path):
        config = _write_config(tmp_path / "config.json", toy_dir, out_dir=str(tmp_path / "g"))
        assert main(["golden", "--config", str(config)]) == EXIT_OK
        golden_path = tmp_path / "g" / "golden.json"
        doc = json.loads(golden_path.read_text())
        assert doc["sample_count"] == len(doc["predictions"]) == 320
        assert doc["accuracy_vs_labels"] == 1.0
        first = golden_path.read_bytes()
        assert main(["golden", "--config", str(config)]) == EXIT_OK
        assert golden_path.read_bytes() == first

    def test_missing_dataset_exits_2_naming_path(self, toy_dir, tmp_path, capsys):
        config = _write_config(tmp_path / "config.json", toy_dir,
                               dataset=str(tmp_path / "nowhere"), out_dir=str(tmp_path / "g"))
        assert main(["golden", "--config", str(config)]) == EXIT_VALIDATION
        assert "nowhere" in capsys.readouterr().err

    def test_run_log_mirrors_output(self, toy_dir, tmp_path, capsys):
        config = _write_config(tmp_path / "config.json", toy_dir, out_dir=str(tmp_path / "g"))
        assert main(["golden", "--config", str(config)]) == EXIT_OK
        log = (tmp_path / "g" / "run.log").read_text()
        out = capsys.readouterr().out
        assert "accuracy vs labels" in log and "accuracy vs labels" in out


class TestCache:
    def test_payload_arithmetic_for_ten_samples(self, toy_dir, tmp_path, capsys):
        # layer 3 outputs [8, 8, 8]; ten samples cache to exactly 10*512*4 bytes
        ds = load_dataset(toy_dir / "dataset")
        small = Dataset(samples=ds.samples[:10], labels=ds.labels[:10], class_count=ds.class_count)
        save_dataset(small, tmp_path / "ds10")
        config = _write_config(tmp_path / "config.json", toy_dir, dataset=str(tmp_path / "ds10"),
                               target=[3], out_dir=str(tmp_path / "c"))
        assert main(["cache", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"{10 * 512 * 4} bytes" in out
        payload = tmp_path / "c" / "caches" / "layer_3.bin"
        assert payload.stat().st_size == 10 * 512 * 4

    def test_budget_below_one_activation_exits_3(self, toy_dir, tmp_path):
        config = _write_config(tmp_path / "config.json", toy_dir, target=[3], out_dir=str(tmp_path / "c"))
        assert main(["cache", "--config", str(config), "--budget", "64"]) == EXIT_RESOURCE

    def test_budget_override_sets_samples_per_chunk(self, toy_dir, tmp_path, capsys):
        # layer 3 outputs [8, 8, 8]: 2048 bytes a sample, so the budget holds 3 samples a chunk
        ds = load_dataset(toy_dir / "dataset")
        small = Dataset(samples=ds.samples[:10], labels=ds.labels[:10], class_count=ds.class_count)
        save_dataset(small, tmp_path / "ds10")
        config = _write_config(tmp_path / "config.json", toy_dir, dataset=str(tmp_path / "ds10"),
                               target=[3], out_dir=str(tmp_path / "c"))
        per_sample = 512 * 4
        budget = 3 * per_sample + 7
        assert main(["cache", "--config", str(config), "--budget", str(budget)]) == EXIT_OK
        assert f"{10 * per_sample} bytes in 4 chunk(s)" in capsys.readouterr().out
        root = tmp_path / "c" / "caches"
        # the target, and the cone layers after it up to Flatten, which its replays read by row range
        assert sorted(p.name for p in root.iterdir()) == [
            "golden.bin", *(f"layer_{k}.bin" for k in range(3, 8)), "store.json"]
        cache = layer_caches(load_model(toy_dir / "model.json"), small, [3], budget, root)[3]
        assert (cache.samples_per_chunk, cache.chunk_count) == (3, 4)
        assert [acts.nbytes for _, acts in cache.iter_chunks()] == [3 * per_sample] * 3 + [per_sample]
        assert "budget" not in json.loads((root / "store.json").read_text())  # a read size, never stored

    def test_opwise_config_is_usage_error(self, toy_dir, tmp_path):
        config = _write_config(tmp_path / "config.json", toy_dir, mode="op", target=["Add"],
                               out_dir=str(tmp_path / "c"))
        assert main(["cache", "--config", str(config)]) == EXIT_VALIDATION

    def test_rebuild_byte_identical(self, toy_dir, tmp_path):
        config = _write_config(tmp_path / "config.json", toy_dir, target=[2], out_dir=str(tmp_path / "c"))
        assert main(["cache", "--config", str(config)]) == EXIT_OK
        payload = tmp_path / "c" / "caches" / "layer_2.bin"
        first = payload.read_bytes()
        assert main(["cache", "--config", str(config)]) == EXIT_OK
        assert payload.read_bytes() == first


class TestCampaign:
    def test_zero_probability_summary(self, toy_dir, tmp_path, capsys):
        config = _write_config(tmp_path / "config.json", toy_dir, probabilities=[0.0],
                               out_dir=str(tmp_path / "r"))
        assert main(["campaign", "--config", str(config)]) == EXIT_OK
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        cell = summary["cells"][0]
        assert cell["mean"] == summary["reference_accuracy"]
        assert cell["std"] == 0.0

    def test_all_layers_row_count(self, toy_dir, tmp_path):
        ds = load_dataset(toy_dir / "dataset")
        small = Dataset(samples=ds.samples[:12], labels=ds.labels[:12], class_count=ds.class_count)
        save_dataset(small, tmp_path / "ds12")
        config = _write_config(tmp_path / "config.json", toy_dir, dataset=str(tmp_path / "ds12"),
                               target="all", probabilities=[1.0], trials=2, out_dir=str(tmp_path / "r"))
        assert main(["campaign", "--config", str(config)]) == EXIT_OK
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert len(summary["cells"]) == 12  # one row per layer of the 12-layer toy

    def test_trials_override(self, toy_dir, tmp_path):
        config = _write_config(tmp_path / "config.json", toy_dir, probabilities=[1.0],
                               out_dir=str(tmp_path / "r"))
        assert main(["campaign", "--config", str(config), "--trials", "2"]) == EXIT_OK
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["cells"][0]["trials"] == 2

    def test_out_override_replaces_config_out_dir(self, toy_dir, tmp_path):
        config = _write_config(tmp_path / "config.json", toy_dir, probabilities=[1.0], trials=2,
                               out_dir=str(tmp_path / "r"))
        out = tmp_path / "elsewhere"
        assert main(["campaign", "--config", str(config), "--out", str(out)]) == EXIT_OK
        for name in ("summary.json", "accuracy.csv", "cma.csv", "records.csv", "layers.csv", "run.log"):
            assert (out / name).is_file(), name
        assert (out / "caches" / "store.json").is_file()
        assert not (tmp_path / "r").exists()

    def test_opwise_campaign_on_prelu_toy(self, tmp_path):
        out = tmp_path / "prelu"
        assert main(["gen-toy", "--out", str(out), "--variant", "prelu-cnn"]) == EXIT_OK
        config = json.loads((out / "config.json").read_text())
        config.update(probabilities=[1.0], trials=2, target=["Add"])
        save_config(config, out / "config.json")
        assert main(["campaign", "--config", str(out / "config.json")]) == EXIT_OK
        summary = json.loads((out / "results" / "summary.json").read_text())
        assert summary["cells"][0]["target"] == "Add"
        assert summary["cells"][0]["injections"] > 0


class TestRejectedTargets:
    """A target the model lacks exits 2 before out_dir, and so run.log, is created."""

    CASES = {
        "campaign layer 40 of 12": ("campaign", dict(target=[40]), "out of range"),
        "cache layer 40 of 12": ("cache", dict(target=[40]), "out of range"),
        "campaign op Add on the CNN toy": ("campaign", dict(mode="op", target=["Add"]), "do not occur in the model"),
    }

    @pytest.mark.parametrize("command, overrides, message", CASES.values(), ids=CASES.keys())
    def test_exits_2_and_creates_no_out_dir(self, toy_dir, tmp_path, capsys, command, overrides, message):
        out = tmp_path / "r"
        config = _write_config(tmp_path / "config.json", toy_dir, out_dir=str(out), **overrides)
        assert main([command, "--config", str(config)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestBadThreadCount:
    @pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
    def test_exits_2_naming_the_variable_and_creates_no_out_dir(self, toy_dir, tmp_path, capsys, monkeypatch,
                                                                value):
        monkeypatch.setenv("BITSTORM_THREADS", value)
        out = tmp_path / "r"
        config = _write_config(tmp_path / "config.json", toy_dir, out_dir=str(out))
        assert main(["campaign", "--config", str(config)]) == EXIT_VALIDATION
        assert "BITSTORM_THREADS" in capsys.readouterr().err
        assert not out.exists()


def _run_with_file_limit(argv, limit):
    """Run the CLI in a child process that may not grow a file past `limit` bytes.

    SIGXFSZ is ignored, so a write past the limit fails with EFBIG (an
    OSError) instead of killing the process.
    """

    def limit_files():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    src = str(Path(bitstorm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "bitstorm.cli", *argv], env=env, preexec_fn=limit_files,
                          capture_output=True, text=True, timeout=600)


class TestDiskErrors:
    """An OS error while writing an output exits 3 and leaves the previous output whole."""

    def test_golden_exits_3_and_keeps_golden_json(self, toy_dir, tmp_path):
        config = _write_config(tmp_path / "config.json", toy_dir, out_dir=str(tmp_path / "g"))
        assert main(["golden", "--config", str(config)]) == EXIT_OK
        golden = tmp_path / "g" / "golden.json"
        before = golden.read_bytes()
        assert len(before) > 1024
        proc = _run_with_file_limit(["golden", "--config", str(config)], 1024)
        assert proc.returncode == EXIT_RESOURCE, proc.stderr
        assert "resource error" in proc.stderr
        assert golden.read_bytes() == before
        assert not list(golden.parent.glob("*.tmp"))

    def test_campaign_with_reused_caches_exits_3_and_keeps_the_report(self, toy_dir, tmp_path):
        config = _write_config(tmp_path / "config.json", toy_dir, probabilities=[1.0], trials=2,
                               out_dir=str(tmp_path / "r"))
        assert main(["campaign", "--config", str(config)]) == EXIT_OK
        out = tmp_path / "r"
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file() and p.name != "run.log"}
        assert (out / "records.csv").stat().st_size > 4096
        proc = _run_with_file_limit(["campaign", "--config", str(config)], 4096)
        assert proc.returncode == EXIT_RESOURCE, proc.stderr
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file() and p.name != "run.log"} == before


class TestReport:
    def test_rerenders_existing_summary(self, toy_dir, tmp_path, capsys):
        config = _write_config(tmp_path / "config.json", toy_dir, probabilities=[0.0],
                               out_dir=str(tmp_path / "r"))
        assert main(["campaign", "--config", str(config)]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "cma convergence" in out and "reference accuracy" in out

    def test_missing_summary_exits_2(self, toy_dir, tmp_path):
        config = _write_config(tmp_path / "config.json", toy_dir, out_dir=str(tmp_path / "empty"))
        assert main(["report", "--config", str(config)]) == EXIT_VALIDATION


class TestLocking:
    def test_locked_out_dir_exits_3(self, toy_dir, tmp_path):
        out = tmp_path / "g"
        out.mkdir()
        fd = os.open(out / ".bitstorm.lock", os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # a live holder, as another invocation would be
            config = _write_config(tmp_path / "config.json", toy_dir, out_dir=str(out))
            assert main(["golden", "--config", str(config)]) == EXIT_RESOURCE
        finally:
            os.close(fd)

    def test_leftover_lock_file_does_not_block(self, toy_dir, tmp_path):
        out = tmp_path / "g"
        out.mkdir()
        (out / ".bitstorm.lock").write_text("999\n")  # left behind by a killed run, no holder
        config = _write_config(tmp_path / "config.json", toy_dir, out_dir=str(out))
        assert main(["golden", "--config", str(config)]) == EXIT_OK
        assert not (out / ".bitstorm.lock").exists()

    def test_lock_released_after_run(self, toy_dir, tmp_path):
        out = tmp_path / "g"
        config = _write_config(tmp_path / "config.json", toy_dir, out_dir=str(out))
        assert main(["golden", "--config", str(config)]) == EXIT_OK
        assert not (out / ".bitstorm.lock").exists()

    def test_nested_invocation_is_contention(self, tmp_path):
        with _locked(tmp_path):
            with pytest.raises(ResourceError, match="in use"):
                with _locked(tmp_path):
                    pass
        assert not (tmp_path / ".bitstorm.lock").exists()

    def test_lock_file_replaced_before_flock_is_contention(self, tmp_path, monkeypatch):
        real = fcntl.flock

        def flock_after_replace(fd, operation):
            # the previous holder finished, unlinking the file we opened, and a third run made a new one
            (tmp_path / ".bitstorm.lock").unlink()
            (tmp_path / ".bitstorm.lock").touch()
            return real(fd, operation)

        monkeypatch.setattr(fcntl, "flock", flock_after_replace)
        with pytest.raises(ResourceError, match="in use"):
            with _locked(tmp_path):
                pass


def _set_first_conv(field, value):
    def edit(doc):
        doc["layers"][0][field] = value
        return doc
    return edit


#: Malformed model manifests and dataset headers: (file, edit of the parsed manifest or new file bytes).
MALFORMED = {
    "stride 2": ("model.json", _set_first_conv("stride", 2)),
    "kernel 5": ("model.json", _set_first_conv("kernel", 5)),
    "layers 3": ("model.json", lambda doc: {**doc, "layers": 3}),
    "manifest is a list": ("model.json", lambda doc: [doc]),
    "samples rank 1000": ("samples.bin", struct.pack("<4sIII", b"BSDS", 1, 1, 1000).ljust(64, b"\0")),
    "samples rank 0": ("samples.bin", struct.pack("<4sIII", b"BSDS", 1, 320, 0) + bytes(4 * 320)),
    "samples rank 0, 2 samples": ("samples.bin", struct.pack("<4sIII", b"BSDS", 1, 2, 0) + bytes(4 * 2)),
}


@pytest.mark.parametrize("name, edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_exits_2_naming_the_file(toy_dir, tmp_path, capsys, name, edit):
    ws = tmp_path / "ws"
    shutil.copytree(toy_dir, ws)
    if name == "model.json":
        (ws / name).write_text(json.dumps(edit(json.loads((ws / name).read_text()))))
    else:
        (ws / "dataset" / name).write_bytes(edit)
    config = _write_config(tmp_path / "config.json", ws, out_dir=str(tmp_path / "g"))
    assert main(["golden", "--config", str(config)]) == EXIT_VALIDATION
    assert name in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


class TestInvalidInputs:
    def test_bad_config_exits_2(self, toy_dir, tmp_path):
        config = _write_config(tmp_path / "config.json", toy_dir, probabilities=[2.0])
        assert main(["campaign", "--config", str(config)]) == EXIT_VALIDATION

    def test_unexpected_exception_exits_1(self, toy_dir, tmp_path, monkeypatch, capsys):
        import bitstorm.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(cli_mod, "golden_run", boom)
        config = _write_config(tmp_path / "config.json", toy_dir, out_dir=str(tmp_path / "g"))
        assert main(["golden", "--config", str(config)]) == 1
        assert "simulated crash" in capsys.readouterr().err

    def test_interrupt_exits_130_with_partial_results(self, toy_dir, tmp_path, monkeypatch):
        import bitstorm.campaign as camp

        real = camp.run_injected_layerwise
        state = {"cells_done": 0}

        def interrupting(model, caches, fault, trials):
            if fault.target == 2 and fault.probability == 1.0:
                raise KeyboardInterrupt
            return real(model, caches, fault, trials)

        monkeypatch.setattr(camp, "run_injected_layerwise", interrupting)
        config = _write_config(tmp_path / "config.json", toy_dir, target=[1, 2],
                               trials=2, out_dir=str(tmp_path / "r"))
        assert main(["campaign", "--config", str(config)]) == 130
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["partial"] is True
        assert len(summary["cells"]) >= 1

    def test_seed_override_changes_records(self, toy_dir, tmp_path):
        for seed, name in ((7, "a"), (8, "b")):
            config = _write_config(tmp_path / f"config_{name}.json", toy_dir, probabilities=[1.0],
                                   trials=2, out_dir=str(tmp_path / name))
            assert main(["campaign", "--config", str(config), "--seed", str(seed)]) == EXIT_OK
        rec_a = (tmp_path / "a" / "records.csv").read_text()
        rec_b = (tmp_path / "b" / "records.csv").read_text()
        assert rec_a != rec_b


class TestCacheOnePass:
    def test_cache_builds_all_targets_in_one_pass_and_campaign_reuses_them(self, toy_dir, tmp_path, monkeypatch):
        import bitstorm.executor as executor_mod

        ds = load_dataset(toy_dir / "dataset")
        small = Dataset(samples=ds.samples[:12], labels=ds.labels[:12], class_count=ds.class_count)
        save_dataset(small, tmp_path / "ds12")
        config = _write_config(tmp_path / "config.json", toy_dir, dataset=str(tmp_path / "ds12"),
                               target="all", probabilities=[0.5], trials=2, out_dir=str(tmp_path / "r"))
        real = executor_mod._golden_pass
        passes = []

        def counting(*args, **kwargs):
            passes.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "_golden_pass", counting)
        assert main(["cache", "--config", str(config)]) == EXIT_OK
        assert len(passes) == 1
        root = tmp_path / "r" / "caches"
        assert json.loads((root / "store.json").read_text())["layers"] == list(range(12))
        assert sorted(p.name for p in root.iterdir()) == sorted(
            ["store.json", "golden.bin", *(f"layer_{layer}.bin" for layer in range(12))])
        assert main(["campaign", "--config", str(config), "--budget", "65536"]) == EXIT_OK
        assert len(passes) == 1  # every layer was reused, at another budget too

    def test_campaign_after_cache_runs_no_pass_for_a_target_before_flatten(self, toy_dir, tmp_path, monkeypatch):
        import bitstorm.executor as executor_mod

        ds = load_dataset(toy_dir / "dataset")
        small = Dataset(samples=ds.samples[:12], labels=ds.labels[:12], class_count=ds.class_count)
        save_dataset(small, tmp_path / "ds12")
        config = _write_config(tmp_path / "config.json", toy_dir, dataset=str(tmp_path / "ds12"),
                               target=[3], probabilities=[1.0], trials=2, out_dir=str(tmp_path / "r"))
        assert main(["cache", "--config", str(config)]) == EXIT_OK
        real = executor_mod._golden_pass
        passes = []

        def counting(*args, **kwargs):
            passes.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_mod, "_golden_pass", counting)
        assert main(["campaign", "--config", str(config)]) == EXIT_OK
        assert passes == []  # the cone layers 4-7 were stored by `cache` with the target
