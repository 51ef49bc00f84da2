"""Op-wise trials that replay only hit samples from a golden layer boundary.

`run_injected_opwise` draws each site's words once, keeps the golden
prediction of every sample no fault hits, and replays the others from the
golden input of their first hit layer in budget-sized chunks.  These tests
hold it to the whole-batch pass in `reference_opwise.py` and to its memory
budget.
"""

import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bitstorm.executor as executor_mod
from bitstorm.campaign import CampaignSpec, emit_report, run_stochastic
from bitstorm.engine import Conv2D, Dense, Flatten, Model, PReLU, ReLU
from bitstorm.executor import boundary_layers, layer_caches, run_injected_opwise
from bitstorm.faults import FAULT_KINDS, RECORD_DTYPE, FaultSpec
from bitstorm.microops import INJECTABLE_KINDS, expand_prelu
from bitstorm.model_io import Dataset
from reference_opwise import run_opwise_whole_batch

F = np.float32


def _small_model(first: str):
    """PReLU or ReLU as layer 0, then a conv, a bare ReLU layer and a dense softmax."""
    rng = np.random.default_rng(5 if first == "prelu" else 6)
    head = PReLU(alpha=rng.uniform(0.1, 0.3, 2).astype(F)) if first == "prelu" else ReLU()
    conv = Conv2D(kernel=rng.uniform(-0.4, 0.4, (3, 3, 2, 3)).astype(F), bias=rng.uniform(-0.1, 0.1, 3).astype(F))
    dense = Dense(weights=rng.standard_normal((48, 4)).astype(F), bias=rng.standard_normal(4).astype(F),
                  activation="softmax")
    model = Model(input_shape=(6, 6, 2), layers=[head, conv, ReLU(), Flatten(), dense])
    dataset = Dataset(samples=rng.standard_normal((37, 6, 6, 2)).astype(F), labels=np.zeros(37, dtype=np.uint32),
                      class_count=4)
    return model, dataset


@pytest.fixture(scope="module")
def models(toy_prelu):
    return {"toy": toy_prelu, "prelu-first": _small_model("prelu"), "relu-first": _small_model("relu")}


def _one_row_budget(expanded, kinds) -> int:
    """The smallest budget a trial over `kinds` accepts: one sample in its widest layer."""
    sites = [op for op in expanded.all_ops() if op.kind in kinds]
    site_layers = {op.layer_index for op in sites}
    return max(executor_mod._sample_bytes(expanded, layer, site_layers)
               for layer in range(sites[0].layer_index, len(expanded.model.layers)))


class TestAgainstWholeBatch:
    @given(which=st.sampled_from(["toy", "prelu-first", "relu-first"]), seed=st.integers(0, 2**64 - 1),
           trial=st.integers(0, 10**6), kinds=st.sets(st.sampled_from(INJECTABLE_KINDS), min_size=1),
           fault=st.sampled_from(FAULT_KINDS), bit=st.integers(0, 31),
           probability=st.sampled_from([0.0, 0.3, 0.5, 1.0]), shape=st.sampled_from(["one-row", "spill", "fit"]))
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_equals_whole_batch_pass(self, models, which, seed, trial, kinds, fault, bit, probability, shape):
        model, dataset = models[which]
        expanded = expand_prelu(model)
        kinds &= expanded.kinds_present()
        if not kinds:
            kinds = {"ReLU"}
        one_row = _one_row_budget(expanded, kinds)
        budget = {"one-row": one_row, "spill": 3 * one_row, "fit": 1 << 26}[shape]
        spec = FaultSpec(mode="op", target=tuple(sorted(kinds)), fault=fault, probability=probability, seed=seed,
                         bit=bit if fault == "bit_flip_specific" else None)
        with tempfile.TemporaryDirectory() as root:
            caches = layer_caches(model, dataset, boundary_layers(expanded, kinds), budget, root)
            preds, records = run_injected_opwise(expanded, dataset, caches, spec, trial)
        want_preds, want_records = run_opwise_whole_batch(expanded, dataset, spec, trial)
        assert np.array_equal(preds, want_preds)
        assert records.dtype == RECORD_DTYPE and records.shape == want_records.shape
        for field in RECORD_DTYPE.names:
            assert np.array_equal(records[field], want_records[field]), field

    def test_budget_shapes(self, models, tmp_path):
        model, dataset = models["toy"]
        expanded = expand_prelu(model)
        one_row = _one_row_budget(expanded, {"Add"})
        assert one_row // executor_mod._sample_bytes(expanded, 1, {1, 4}) == 1  # prelu1 replays row by row
        for budget in (one_row, 3 * one_row):
            caches = layer_caches(model, dataset, boundary_layers(expanded, {"Add"}), budget, tmp_path / str(budget))
            assert caches[0].chunk_count > 1  # the store spills
        caches = layer_caches(model, dataset, [0, 3], 1 << 26, tmp_path / "fit")
        assert [c.chunk_count for c in caches.values()] == [1, 1]

    def test_models_cover_every_first_layer(self, models):
        firsts = {name: expand_prelu(m).ops_by_layer[0][0].kind for name, (m, _) in models.items()}
        assert firsts == {"toy": "Opaque", "prelu-first": "ReLU", "relu-first": "ReLU"}
        assert len(expand_prelu(models["prelu-first"][0]).ops_by_layer[0]) == 6
        # sites only in layer 0: the store holds the last layer for its golden predictions
        expanded = expand_prelu(models["prelu-first"][0])
        assert boundary_layers(expanded, {"Add"}) == [4]
        assert boundary_layers(expanded, {"ReLU"}) == [1]


#: 1920 jittered samples of the PReLU toy at a 1 MiB budget, the shape of the
#: benchmark's op-wise workload.
BUDGET = 1 << 20
COPIES, JITTER = 32, 0.05

#: Traced memory that grows with the dataset rather than the budget: per
#: sample the golden copy, the first-hit layer and the hit groups; per
#: (sample, site) the 32-byte word row, its uniform and hit mask, and a
#: record (40 bytes) before and after the sort, with the sort index.
SLACK_PER_SAMPLE = 64
SLACK_PER_SAMPLE_SITE = 160


def _opwise_dataset(dataset):
    rng = np.random.default_rng(101)
    parts = [dataset.samples + rng.uniform(-JITTER, JITTER, dataset.samples.shape) for _ in range(COPIES)]
    return Dataset(samples=np.concatenate(parts).astype(F), labels=np.tile(dataset.labels, COPIES),
                   class_count=dataset.class_count)


class TestMemoryBudget:
    @pytest.mark.parametrize("kinds", [("Add",), INJECTABLE_KINDS])
    @pytest.mark.parametrize("probability", [0.5, 1.0])
    def test_one_trial_stays_within_budget(self, toy_prelu, tmp_path, kinds, probability):
        """One store chunk plus one micro-op chunk, each within the budget, plus the stated slack."""
        model, small = toy_prelu
        dataset = _opwise_dataset(small)
        expanded = expand_prelu(model)
        caches = layer_caches(model, dataset, boundary_layers(expanded, kinds), BUDGET, tmp_path)
        assert caches[0].chunk_count > 1  # the store spills too
        spec = FaultSpec(mode="op", target=kinds, fault="bit_flip_random", probability=probability, seed=101)
        slack = len(dataset) * (SLACK_PER_SAMPLE + expanded.count_ops(set(kinds)) * SLACK_PER_SAMPLE_SITE)
        run_injected_opwise(expanded, dataset, caches, spec, trial=1)  # numpy's lazy imports are not the trial's
        tracemalloc.start()
        try:
            _, records = run_injected_opwise(expanded, dataset, caches, spec, trial=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records.size > 0
        assert peak <= 2 * BUDGET + slack, f"peak {peak / 2**20:.2f} MiB, bound {(2 * BUDGET + slack) / 2**20:.2f} MiB"


class TestWorkers:
    def test_reports_identical_at_one_and_four_workers(self, toy_prelu, tmp_path):
        """Concurrent trials read one spilled store; the report does not depend on the worker count."""
        model, dataset = toy_prelu
        spec = CampaignSpec(mode="op", targets="all", probabilities=[0.0, 0.3, 1.0], fault="random_value", trials=6,
                            seed=13, budget=16 << 10)
        reports = []
        for workers in (1, 4):
            result = run_stochastic(spec, model, dataset, workers=workers, cache_root=tmp_path / f"cache{workers}")
            assert result.cells and all(c.records.size for c in result.cells if c.probability > 0)
            emit_report(result, tmp_path / f"report{workers}")
            reports.append({p.name: p.read_bytes() for p in sorted((tmp_path / f"report{workers}").iterdir())})
        store = layer_caches(model, dataset, [0], spec.budget, tmp_path / "cache4")[0]
        assert store.chunk_count == 6
        assert reports[0] == reports[1]
