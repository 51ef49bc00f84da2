"""Serialization tests: round-trip stability and validation diagnostics."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import assert_bits_equal
from bitstorm.engine import Dense, Model
from bitstorm.errors import ValidationError
from bitstorm.model_io import (
    CampaignSpec,
    Dataset,
    RunConfig,
    load_config,
    load_dataset,
    load_model,
    save_config,
    save_dataset,
    save_model,
)
from bitstorm.toygen import _WeightSource, build_toy_cnn, build_toy_prelu_cnn

F = np.float32


def _config_doc(**overrides):
    doc = {
        "model": "model.json",
        "dataset": "dataset",
        "mode": "layer",
        "target": 0,
        "fault": "bit_flip_random",
        "probabilities": [0.0, 0.5, 1.0],
        "trials": 5,
        "metric": "golden_run",
        "seed": 1,
        "out_dir": "results",
    }
    doc.update(overrides)
    return doc


class TestModelRoundTrip:
    @pytest.mark.parametrize("builder", [build_toy_cnn, build_toy_prelu_cnn])
    def test_weights_and_manifest_stable(self, tmp_path, builder):
        model, _ = builder()
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        save_model(loaded, tmp_path / "again" / "model.json")
        assert (tmp_path / "weights.bin").read_bytes() == (tmp_path / "again" / "weights.bin").read_bytes()
        assert (tmp_path / "model.json").read_text() == (tmp_path / "again" / "model.json").read_text()

    def test_loaded_model_forward_is_bit_identical(self, tmp_path):
        from bitstorm.engine import forward_batch

        model, dataset = build_toy_cnn()
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        assert_bits_equal(
            forward_batch(model, dataset.samples[:8]), forward_batch(loaded, dataset.samples[:8])
        )

    def test_identity_dense_manifest(self, tmp_path):
        model = Model(
            input_shape=(2,),
            layers=[Dense(weights=np.eye(2, dtype=F), bias=np.zeros(2, dtype=F), name="id")],
        )
        save_model(model, tmp_path / "model.json")
        loaded = load_model(tmp_path / "model.json")
        out = np.asarray([4.0, 9.0], dtype=F)
        from bitstorm.engine import forward

        assert_bits_equal(forward(loaded, out), out)


class TestModelValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_model(tmp_path / "nope.json")

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{\n "input_shape": [2,\n}')
        with pytest.raises(ValidationError, match="line"):
            load_model(path)

    def test_shape_chain_mismatch_names_layer(self, tmp_path):
        model = Model(
            input_shape=(8,),
            layers=[
                Dense(weights=np.zeros((8, 8), dtype=F), bias=np.zeros(8, dtype=F), name="wide"),
                Dense(weights=np.zeros((8, 2), dtype=F), bias=np.zeros(2, dtype=F), name="narrow"),
            ],
        )
        save_model(model, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        doc["layers"][1]["weights_shape"] = [4, 2]  # now expects 4 inputs after a layer producing 8
        doc["layers"][1]["weights"]["length"] = 4 * 2 * 4
        (tmp_path / "model.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="(?s)narrow.*wide"):
            load_model(tmp_path / "model.json")

    def test_out_of_range_weight_reference(self, tmp_path):
        model = Model(
            input_shape=(4,),
            layers=[Dense(weights=np.zeros((4, 2), dtype=F), bias=np.zeros(2, dtype=F), name="d")],
        )
        save_model(model, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        doc["layers"][0]["weights"]["offset"] = 10_000
        (tmp_path / "model.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="outside"):
            load_model(tmp_path / "model.json")

    def test_unknown_layer_kind(self, tmp_path):
        model = Model(
            input_shape=(4,),
            layers=[Dense(weights=np.zeros((4, 2), dtype=F), bias=np.zeros(2, dtype=F))],
        )
        save_model(model, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        doc["layers"][0]["kind"] = "BatchNorm"
        (tmp_path / "model.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="BatchNorm"):
            load_model(tmp_path / "model.json")


class TestDataset:
    def _dataset(self, count=10, shape=(4, 4, 1), classes=10):
        source = _WeightSource(61)
        return Dataset(
            samples=source.uniform((count, *shape), -1, 1),
            labels=np.arange(count, dtype=np.uint32) % classes,
            class_count=classes,
        )

    def test_round_trip(self, tmp_path):
        ds = self._dataset()
        save_dataset(ds, tmp_path)
        loaded = load_dataset(tmp_path, class_count=10)
        assert_bits_equal(loaded.samples, ds.samples)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.class_count == 10

    def test_round_trip_files_stable(self, tmp_path):
        ds = self._dataset()
        save_dataset(ds, tmp_path / "a")
        save_dataset(load_dataset(tmp_path / "a"), tmp_path / "b")
        for name in ("samples.bin", "labels.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_truncated_labels_rejected(self, tmp_path):
        save_dataset(self._dataset(), tmp_path)
        raw = (tmp_path / "labels.bin").read_bytes()
        (tmp_path / "labels.bin").write_bytes(raw[:-4])  # one entry short
        with pytest.raises(ValidationError, match="labels"):
            load_dataset(tmp_path)

    def test_label_count_mismatch_rejected(self, tmp_path):
        import struct

        save_dataset(self._dataset(), tmp_path)
        raw = bytearray((tmp_path / "labels.bin").read_bytes())
        raw[4:8] = struct.pack("<I", 9)  # header promises fewer labels than samples
        (tmp_path / "labels.bin").write_bytes(bytes(raw[:8 + 9 * 4]))
        with pytest.raises(ValidationError, match="mismatch"):
            load_dataset(tmp_path)

    def test_label_out_of_class_range(self, tmp_path):
        save_dataset(self._dataset(), tmp_path)
        with pytest.raises(ValidationError, match="class_count"):
            load_dataset(tmp_path, class_count=5)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            Dataset(samples=np.zeros((0, 2, 2, 1), dtype=F), labels=np.zeros(0, dtype=np.uint32), class_count=2)

    def test_bad_magic(self, tmp_path):
        save_dataset(self._dataset(), tmp_path)
        raw = bytearray((tmp_path / "samples.bin").read_bytes())
        raw[:4] = b"XXXX"
        (tmp_path / "samples.bin").write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="magic"):
            load_dataset(tmp_path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ValidationError, match="samples.bin"):
            load_dataset(tmp_path)


class TestConfig:
    def test_valid_config(self, tmp_path):
        save_config(_config_doc(), tmp_path / "config.json")
        cfg = load_config(tmp_path / "config.json")
        assert cfg.spec.mode == "layer" and cfg.spec.targets == [0]
        assert cfg.spec.probabilities == [0.0, 0.5, 1.0]
        assert cfg.spec.out_dir == tmp_path / "results"

    def test_spec_equals_direct_construction(self, tmp_path):
        doc = _config_doc(target=[3, 1], probabilities=[1.0, 0.25, 1.0], fault="bit_flip_specific", bit=30,
                          metric="ground_truth", budget=4096, cma_window=5, cma_epsilon=1)
        save_config(doc, tmp_path / "config.json")
        cfg = load_config(tmp_path / "config.json")
        assert [f.name for f in dataclasses.fields(RunConfig)] == ["model", "dataset", "spec"]
        assert (cfg.model, cfg.dataset) == (tmp_path / "model.json", tmp_path / "dataset")
        assert cfg.spec == CampaignSpec(mode="layer", targets=[3, 1], probabilities=[1.0, 0.25, 1.0],
                                        fault="bit_flip_specific", bit=30, trials=5, metric="ground_truth", seed=1,
                                        out_dir=tmp_path / "results", budget=4096, cma_window=5, cma_epsilon=1)
        assert cfg.spec.probabilities == [0.25, 1.0] and isinstance(cfg.spec.cma_epsilon, float)

    def test_probability_out_of_range(self, tmp_path):
        save_config(_config_doc(probabilities=[0.5, 1.5]), tmp_path / "config.json")
        with pytest.raises(ValidationError, match="1.5"):
            load_config(tmp_path / "config.json")

    def test_specific_bit_31_valid(self, tmp_path):
        save_config(_config_doc(fault="bit_flip_specific", bit=31), tmp_path / "config.json")
        assert load_config(tmp_path / "config.json").spec.bit == 31

    def test_specific_bit_out_of_range(self, tmp_path):
        save_config(_config_doc(fault="bit_flip_specific", bit=32), tmp_path / "config.json")
        with pytest.raises(ValidationError, match="bit"):
            load_config(tmp_path / "config.json")

    def test_op_kind_target_list(self, tmp_path):
        save_config(_config_doc(mode="op", target=["Add", "Sub", "Mul"]), tmp_path / "config.json")
        cfg = load_config(tmp_path / "config.json")
        assert cfg.spec.targets == ["Add", "Sub", "Mul"]

    def test_unknown_fault_kind(self, tmp_path):
        save_config(_config_doc(fault="flip_all_the_bits"), tmp_path / "config.json")
        with pytest.raises(ValidationError, match="fault"):
            load_config(tmp_path / "config.json")

    def test_target_all(self, tmp_path):
        save_config(_config_doc(target="all"), tmp_path / "config.json")
        assert load_config(tmp_path / "config.json").spec.targets == "all"

    def test_trials_validation(self, tmp_path):
        save_config(_config_doc(trials=0), tmp_path / "config.json")
        with pytest.raises(ValidationError, match="trials"):
            load_config(tmp_path / "config.json")

    def test_unknown_key_named(self, tmp_path):
        save_config(_config_doc(trails=2, colour="red"), tmp_path / "config.json")
        with pytest.raises(ValidationError, match=r"unknown keys \['colour', 'trails'\]"):
            load_config(tmp_path / "config.json")

    def test_missing_key_named(self, tmp_path):
        doc = _config_doc()
        del doc["model"]
        save_config(doc, tmp_path / "config.json")
        with pytest.raises(ValidationError, match="model"):
            load_config(tmp_path / "config.json")
