"""Report bytes pinned across commits: the sha256 of every report file of two fixed campaigns.

The determinism tests compare runs of the same code at different worker
counts; these digests also catch a change that alters report bytes for
every worker count alike.  A digest may change only with a deliberate change
of the report format or of the fault streams.
"""

import hashlib

import pytest

from bitstorm.campaign import (
    ACCURACY_FILE,
    CMA_FILE,
    LAYERS_FILE,
    RECORDS_FILE,
    SUMMARY_FILE,
    CampaignSpec,
    emit_report,
    run_stochastic,
)
from bitstorm.executor import layer_caches
from bitstorm.model_io import Dataset

REPORT_FILES = (SUMMARY_FILE, ACCURACY_FILE, CMA_FILE, RECORDS_FILE, LAYERS_FILE)

#: 40 toy CNN samples; at 5 conv2 samples per chunk the layer-1 cache spills
#: into 8 chunks, while layers 6 and 9 fit in one.
LAYERWISE = dict(mode="layer", targets=[1, 6, 9], probabilities=[0.0, 0.3, 1.0], trials=4,
                 fault="bit_flip_random", metric="ground_truth", seed=2024, budget=5 * 8192)
OPWISE = dict(mode="op", targets="all", probabilities=[0.0, 0.3, 1.0], trials=4,
              fault="random_value", metric="golden_run", seed=2025)

DIGESTS = {
    "layerwise": {
        SUMMARY_FILE: "b7417457321dc7cf0033d7686c0632d028cc6e3821bc923d52c405cdb33bd27a",
        ACCURACY_FILE: "2e88ea8432bcf20573b907e180b4c23fc7126b088f2f0e0409d071aabf464646",
        CMA_FILE: "ad476a59eb53d0398e5249410bb12d7d30e6d0166f9e9aadb57b6105b1caeae8",
        RECORDS_FILE: "5d60ca2aef52a278431b0851e3a7d12707c747ef42cfb1934f1733fc5bc10923",
        LAYERS_FILE: "9791ae4f2ad3feeb39d54194ee2bd8304dc576e2421cb754c5f87d1d33c2fb03",
    },
    "opwise": {
        SUMMARY_FILE: "9d7d0810d8a19a36fc3fa0b2d1367cc26100e009046f9fbd962fce8f3b1b7c25",
        ACCURACY_FILE: "5327dbeeb705468a9c8c7f4c534e5f87e84100d7433bd6afda389a23b5775a93",
        CMA_FILE: "fd47bf55217540500316b9c42eeec62621c5382b0eac34fc7736dc46cbe8f043",
        RECORDS_FILE: "b7d7db4802d90e803bf47f2356cbb55d5671de3d9864bc1d4b3eda9a9c779132",
        LAYERS_FILE: "4aa729c46ffe1aa3ebe069f86045f00de8c71a406035f16fbf7f449ef80cb9a8",
    },
}


def _report_digests(spec, model, dataset, out):
    emit_report(run_stochastic(spec, model, dataset, workers=1, cache_root=out / "caches"), out)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in REPORT_FILES}


@pytest.mark.parametrize("name", ["layerwise", "opwise"])
def test_report_digests_pinned(toy, toy_prelu, tmp_path, name):
    if name == "layerwise":
        model, full = toy
        dataset = Dataset(samples=full.samples[:40], labels=full.labels[:40], class_count=full.class_count)
        spec = CampaignSpec(**LAYERWISE)
    else:
        model, dataset = toy_prelu
        spec = CampaignSpec(**OPWISE)
    assert _report_digests(spec, model, dataset, tmp_path) == DIGESTS[name]
    if name == "layerwise":
        chunks = {t: c.chunk_count for t, c in layer_caches(model, dataset, spec.targets, spec.budget,
                                                            tmp_path / "caches").items()}
        assert chunks == {1: 8, 6: 1, 9: 1}
