"""Self-tests of the benchmark: the oracle is right and every check can fail.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import checks
import run
import tracer

bs = run.import_bitstorm()


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_oracle_matches_program_philox(seed):
    top = 2**64 - 1
    counters = [
        (0, 0, 0, 0),  # block 0, trial 0: the decrement borrows through every word
        (0, 0, 5, 3),  # borrow from the sample word
        (0, 7, 0, 0),
        (3, 1, 2, 11),
        (top, top, top, top),
        (0, top, 0, top),
    ]
    want = bs.faults.philox_block(np.array(counters, dtype=np.uint64), np.uint64(seed), bs.faults.KEY_SALT)
    oracle = checks.PhiloxOracle(seed)
    for row, counter in zip(want, counters):
        assert np.array_equal(oracle.block(*counter), row), counter


def _campaign(tmp_path, mode, targets, probabilities, variant="cnn"):
    build = bs.toygen.build_toy_cnn if variant == "cnn" else bs.toygen.build_toy_prelu_cnn
    model, dataset = build(3)
    spec = bs.CampaignSpec(mode=mode, targets=targets, probabilities=probabilities,
                           fault="bit_flip_random", trials=3, seed=5)
    result = bs.run_stochastic(spec, model, dataset, workers=1, cache_root=tmp_path / "cache")
    bs.emit_report(result, tmp_path / "report")
    wl = {"mode": mode, "trials": 3, "fault": "bit_flip_random", "bit": None}
    expanded = bs.expand_prelu(model) if mode == "op" else None
    return result, wl, model, expanded


def _cell_errors(result, wl, model, expanded, cell):
    sites = run.cell_sites(cell, wl, model, expanded)
    return checks.check_cell(cell, checks.PhiloxOracle(result.spec.seed), sites, len(result.golden), wl["fault"], wl["bit"])


@pytest.fixture(scope="module")
def layer_campaign(tmp_path_factory):
    return _campaign(tmp_path_factory.mktemp("layer"), "layer", [9, 11], [0.0, 0.5, 1.0])


def test_clean_campaigns_pass(layer_campaign, tmp_path):
    op = _campaign(tmp_path, "op", "all", [0.0, 1.0], variant="prelu")
    for result, wl, model, expanded in (layer_campaign, op):
        for cell in result.cells:
            assert _cell_errors(result, wl, model, expanded, cell) == []
    assert op[0].cells[-1].records.size == 3 * 60 * 2  # trials x samples x two ConstMul sites


def _corrupt(records, field, index, value):
    records = records.copy()
    records[field][index] = value
    return records


@pytest.mark.parametrize("corruption", ["flipped record bit", "flipped bit index", "dropped record",
                                        "perturbed accuracy", "accuracy off the grid"])
def test_checks_reject_corrupted_cells(layer_campaign, corruption):
    result, wl, model, expanded = layer_campaign
    cell = result.cells[1]  # target 9 at p = 0.5
    recs = cell.records
    if corruption == "flipped record bit":
        bad = dataclasses.replace(cell, records=_corrupt(recs, "corrupted", 0, recs["corrupted"][0] ^ 1))
    elif corruption == "flipped bit index":
        bad = dataclasses.replace(cell, records=_corrupt(recs, "bit", 0, (recs["bit"][0] + 1) % 32))
    elif corruption == "dropped record":
        bad = dataclasses.replace(cell, records=recs[1:])
    else:
        step = 1 / len(result.golden) if corruption == "perturbed accuracy" else 1e-9
        bad = dataclasses.replace(cell, accuracies=[cell.accuracies[0] - step, *cell.accuracies[1:]])
    assert _cell_errors(result, wl, model, expanded, cell) == []
    assert _cell_errors(result, wl, model, expanded, bad) != []


def test_p1_count_and_p0_purity_are_checked(layer_campaign):
    result, wl, model, expanded = layer_campaign
    p0, p1 = result.cells[0], result.cells[2]
    # An injection at p = 0 and a missing one at p = 1 are both caught.
    extra = p1.records[:1].copy()
    assert _cell_errors(result, wl, model, expanded, dataclasses.replace(p0, records=extra)) != []
    assert any("p = 1" in e for e in _cell_errors(result, wl, model, expanded, dataclasses.replace(p1, records=p1.records[1:])))
    # Mispredictions in a trial with no injections are caught.
    assert _cell_errors(result, wl, model, expanded, dataclasses.replace(p0, accuracies=[0.5, 1.0, 1.0])) != []


def test_report_check_rejects_a_dropped_row(layer_campaign, tmp_path):
    result = layer_campaign[0]
    bs.emit_report(result, tmp_path)
    assert checks.check_report(result, tmp_path) == []
    path = tmp_path / "records.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert checks.check_report(result, tmp_path) != []


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    original = bs.engine.head_batch
    model, dataset = bs.toygen.build_toy_cnn(3)
    monkeypatch.delattr(bs.executor, "build_cache")
    t = tracer.Tracer()
    t.install(bs)
    try:
        assert bs.engine.head_batch is not original and bs.executor.head_batch is not original
        bs.golden_run(model, dataset)
    finally:
        t.uninstall()
    assert bs.engine.head_batch is original and bs.executor.head_batch is original
    values = t.summary()
    assert values["executor.build_cache_s"] is None and values["executor.cache_bytes_written"] is None
    assert values["executor.golden_run_calls"] == 1
    assert values["engine.layer.conv2_rows"] == len(dataset)
    assert t.spans[0][0] == "executor.golden_run" and t.spans[1][3] == 0  # layers nest under the pass


def test_benchmark_json_names_every_metric():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [m[:3] for m in tracer.METRICS]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)
    names = {layer.name for build in (bs.toygen.build_toy_cnn, bs.toygen.build_toy_prelu_cnn) for layer in build(3)[0].layers}
    assert names == set(tracer.LAYER_NAMES)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
