"""Public names that callers and the benchmark (perfbench/) rely on keep resolving."""

import importlib

import pytest

import bitstorm
import bitstorm.campaign
import bitstorm.model_io

BENCHMARK_NAMES = [
    ("bitstorm.executor", "golden_run"),
    ("bitstorm.executor", "build_cache"),
    ("bitstorm.executor", "head_batch"),
    ("bitstorm.engine", "head_batch"),
    ("bitstorm.faults", "philox_block"),
    ("bitstorm.faults", "KEY_SALT"),
    ("bitstorm.toygen", "build_toy_cnn"),
    ("bitstorm.toygen", "build_toy_prelu_cnn"),
    ("bitstorm.toygen", "DEFAULT_SEED"),
    *(("bitstorm", name) for name in ("CampaignSpec", "run_stochastic", "emit_report", "expand_prelu", "Dataset",
                                      "save_model", "save_dataset", "load_model", "load_dataset")),
]


def test_every_exported_name_resolves():
    assert [name for name in bitstorm.__all__ if not hasattr(bitstorm, name)] == []


@pytest.mark.parametrize("module, name", BENCHMARK_NAMES, ids=[f"{m}.{n}" for m, n in BENCHMARK_NAMES])
def test_benchmark_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_campaign_spec_has_one_home():
    assert bitstorm.CampaignSpec is bitstorm.campaign.CampaignSpec is bitstorm.model_io.CampaignSpec
