"""Op-wise calls over a trial range and a probability list, which replay only hit samples.

`run_injected_opwise` takes a contiguous range of trials and every
probability of a cell sweep.  It draws each site's words once per block of
trials, keys every hit (trial, sample) on its number of hit sites, replays
each distinct key once from the golden input of its first hit layer in
budget-sized batches, and gives each (trial, probability) its predictions
and records.  These tests hold every (trial, probability) to the
whole-batch pass in `reference_opwise.py`, count the rows it replays, the
chunks it reads and the words it draws, and hold it to its memory budget.
"""

import io
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import bitstorm.executor as executor_mod
from bitstorm.campaign import CampaignSpec, emit_report, run_stochastic
from bitstorm.engine import Conv2D, Dense, Flatten, Model, PReLU, ReLU
from bitstorm.errors import ValidationError
from bitstorm.executor import boundary_layers, layer_caches, run_injected_opwise
from bitstorm.faults import FAULT_KINDS, RECORD_DTYPE, FaultSpec
from bitstorm.microops import INJECTABLE_KINDS, expand_prelu
from bitstorm.model_io import Dataset
from reference_opwise import run_opwise_whole_batch
from strategies import random_models

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
    first = min(op.layer_index for op in expanded.all_ops() if op.kind in kinds)
    return max(executor_mod._sample_bytes(expanded, layer) for layer in range(first, len(expanded.model.layers)))


def _budget(expanded, kinds, shape: str) -> int:
    one_row = _one_row_budget(expanded, kinds)
    return {"one-row": one_row, "spill": 3 * one_row, "fit": 1 << 26}[shape]


def _assert_runs_equal_whole_batch(expanded, dataset, spec, trials, probabilities, runs):
    """Every (trial, p) of `runs` byte-equal to the whole-batch pass of that trial at that p."""
    assert len(runs) == len(trials)
    for trial, per_p in zip(trials, runs):
        assert len(per_p) == len(probabilities)
        for p, (preds, records) in zip(probabilities, per_p):
            want_preds, want_records = run_opwise_whole_batch(expanded, dataset, replace(spec, probability=p), trial)
            assert (preds.dtype, preds.tobytes()) == (want_preds.dtype, want_preds.tobytes()), (trial, p)
            assert (records.dtype, records.shape) == (RECORD_DTYPE, want_records.shape), (trial, p)
            for field in RECORD_DTYPE.names:
                assert np.array_equal(records[field], want_records[field]), (trial, p, field)


class TestAgainstWholeBatch:
    @given(which=st.sampled_from(["toy", "prelu-first", "relu-first"]), seed=st.integers(0, 2**64 - 1),
           trial=st.integers(0, 10**6), kinds=st.sets(st.sampled_from(INJECTABLE_KINDS), min_size=1),
           fault=st.sampled_from(FAULT_KINDS), bit=st.integers(0, 31),
           probability=st.sampled_from([0.0, 0.3, 0.5, 1.0]), shape=st.sampled_from(["one-row", "spill", "fit"]))
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    # two NaNs meet in x - |x| and in the conv after a NaN: their payloads follow the place in the batch
    @example(which="toy", seed=5, trial=6, kinds=set(INJECTABLE_KINDS), fault="bit_flip_specific", bit=30,
             probability=1.0, shape="one-row")
    @example(which="toy", seed=4398046511104, trial=98427, kinds={"ReLU", "Sub"}, fault="bit_flip_specific", bit=30,
             probability=1.0, shape="one-row")
    def test_equals_whole_batch_pass(self, models, which, seed, trial, kinds, fault, bit, probability, shape):
        model, dataset = models[which]
        expanded = expand_prelu(model)
        kinds &= expanded.kinds_present()
        if not kinds:
            kinds = {"ReLU"}
        spec = FaultSpec(mode="op", target=tuple(sorted(kinds)), fault=fault, probability=probability, seed=seed,
                         bit=bit if fault == "bit_flip_specific" else None)
        with tempfile.TemporaryDirectory() as root:
            caches = layer_caches(model, dataset, boundary_layers(expanded, kinds), _budget(expanded, kinds, shape),
                                  root)
            runs = run_injected_opwise(expanded, dataset, caches, spec, [trial], [probability])
        _assert_runs_equal_whole_batch(expanded, dataset, spec, [trial], [probability], runs)

    @given(data=st.data(), which=st.sampled_from(["random", "toy", "prelu-first", "relu-first"]),
           seed=st.integers(0, 2**64 - 1), first=st.integers(0, 10**6), count=st.integers(1, 5),
           kinds=st.sets(st.sampled_from(INJECTABLE_KINDS), min_size=1), fault=st.sampled_from(FAULT_KINDS),
           bit=st.integers(0, 31), shape=st.sampled_from(["one-row", "spill", "fit"]),
           block=st.sampled_from([None, 1, 2]),
           probabilities=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]), max_size=3).flatmap(
               lambda extra: st.permutations([0.0, 1.0, *extra])))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_trial_and_probability_equals_whole_batch(self, models, data, which, seed, first, count, kinds,
                                                            fault, bit, shape, block, probabilities):
        """One call over a trial range and a probability list equals a whole-batch pass per (trial, p).

        Models are random ones that hold at least one site, and the three fixed ones.  `block` sets the
        trials a block draws (None: as many as the budget holds), so ranges of 2-5 trials cross blocks.
        """
        if which == "random":
            model, xs = data.draw(random_models(max_samples=12))
            dataset = Dataset(samples=xs, labels=np.zeros(xs.shape[0], dtype=np.uint32),
                              class_count=model.class_count)
        else:
            model, dataset = models[which]
        expanded = expand_prelu(model)
        present = expanded.kinds_present() & set(INJECTABLE_KINDS)
        assume(present)
        kinds = (kinds & present) or {min(present)}
        spec = FaultSpec(mode="op", target=tuple(sorted(kinds)), fault=fault, probability=1.0, seed=seed,
                         bit=bit if fault == "bit_flip_specific" else None)
        trials = range(first, first + count)
        with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
            caches = layer_caches(model, dataset, boundary_layers(expanded, kinds), _budget(expanded, kinds, shape),
                                  root)
            if block is not None:
                patch.setattr(executor_mod, "_trial_block", lambda budget, sites, samples, levels: block)
            runs = run_injected_opwise(expanded, dataset, caches, spec, trials, probabilities)
        _assert_runs_equal_whole_batch(expanded, dataset, spec, trials, probabilities, runs)

    def test_budget_shapes(self, models, tmp_path):
        model, dataset = models["toy"]
        expanded = expand_prelu(model)
        one_row = _one_row_budget(expanded, {"Add"})
        assert one_row // executor_mod._sample_bytes(expanded, 1) == 1  # prelu1 replays row by row
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


def _distinct_keys(runs) -> set:
    """The (trial, sample, hit count) keys that a call's (trial, p) runs hold: one per sample a fault hits.

    Every hit site gives one record, so a sample's hit count at p is its records at p.
    """
    keys = set()
    for per_p in runs:
        for _, records in per_p:
            counts = Counter(zip(records["trial"].tolist(), records["sample"].tolist()))
            keys.update((trial, sample, k) for (trial, sample), k in counts.items())
    return keys


class TestReplayCounts:
    def test_each_key_replays_once_and_each_chunk_is_read_once_per_block(self, toy_prelu, tmp_path, monkeypatch):
        """Rows replayed equal the distinct (trial, sample, hit count) keys; chunks and words once per block.

        Blocks of 2 cut 5 trials in three.  At p = 1 every sample is hit in prelu1, whose input the spilled
        layer-0 store holds, so each block reads every chunk of it once.  Zeroing one element of 400 often
        leaves the same hit sites at two probabilities, so fewer rows replay than (trial, p) pairs hit.
        """
        model, dataset = toy_prelu
        expanded = expand_prelu(model)
        kinds = INJECTABLE_KINDS
        caches = layer_caches(model, dataset, boundary_layers(expanded, kinds), _budget(expanded, kinds, "spill"),
                              tmp_path)
        assert caches[0].chunk_count > 1
        rows, draws, reads = [], [], []
        real_batch, real_draw, real_block = (executor_mod.run_microops_batch, executor_mod.draw_words,
                                             executor_mod._opwise_block)
        real_chunks = executor_mod.ActivationCache.iter_chunks

        def replaying(expanded, x, hook=None, start=0):
            rows.append(x.shape[0])
            return real_batch(expanded, x, hook=hook, start=start)

        def drawing(seed, trial, sample_ids, site):
            draws.append((len(trial), len(sample_ids)))
            return real_draw(seed, trial, sample_ids, site)

        def blocking(*args):
            reads.append(Counter())
            return real_block(*args)

        def reading(self, indices=None):
            for start, acts in real_chunks(self, indices):
                reads[-1][self.layer, start] += 1
                yield start, acts

        monkeypatch.setattr(executor_mod, "run_microops_batch", replaying)
        monkeypatch.setattr(executor_mod, "draw_words", drawing)
        monkeypatch.setattr(executor_mod, "_opwise_block", blocking)
        monkeypatch.setattr(executor_mod.ActivationCache, "iter_chunks", reading)
        monkeypatch.setattr(executor_mod, "_trial_block", lambda budget, sites, samples, levels: 2)
        spec = FaultSpec(mode="op", target=kinds, fault="zero", probability=1.0, seed=7)
        probabilities = [0.0, 0.05, 0.1, 1.0]
        runs = run_injected_opwise(expanded, dataset, caches, spec, range(3, 8), probabilities)

        assert sum(rows) == len(_distinct_keys(runs))
        hit_pairs = sum(np.unique(records["sample"]).size for per_p in runs for _, records in per_p)
        assert sum(rows) < hit_pairs
        sites = expanded.count_ops(set(kinds))
        assert draws == [(2, len(dataset))] * sites * 2 + [(1, len(dataset))] * sites
        assert len(reads) == 3
        for block in reads:
            assert set(block.values()) == {1}
            assert {start for layer, start in block if layer == 0} == set(range(0, len(dataset),
                                                                                caches[0].samples_per_chunk))

    def test_zero_probabilities_run_no_pass_and_draw_no_words(self, toy_prelu, tmp_path, monkeypatch):
        model, dataset = toy_prelu
        expanded = expand_prelu(model)
        caches = layer_caches(model, dataset, boundary_layers(expanded, {"Mul"}), 1 << 20, tmp_path)
        monkeypatch.setattr(executor_mod, "run_microops_batch", None)
        monkeypatch.setattr(executor_mod, "draw_words", None)
        spec = FaultSpec(mode="op", target=("Mul",), fault="random_value", probability=0.0, seed=3)
        runs = run_injected_opwise(expanded, dataset, caches, spec, range(4, 7), [0.0, 0.0])
        assert len(runs) == 3
        for per_p in runs:
            assert len(per_p) == 2
            for preds, records in per_p:
                assert np.array_equal(preds, caches[3].golden)
                assert records.dtype == RECORD_DTYPE and records.size == 0

    def test_trial_block_follows_the_budget(self):
        """A block takes as many trials as the budget holds the words, draw scratch and keys of, and at least one."""
        assert executor_mod._trial_block(BUDGET, 2, 1920, 3) == 1  # one kind of the benchmark's op-wise workload
        assert executor_mod._trial_block(3 * BUDGET, 2, 1920, 3) == 2
        assert executor_mod._trial_block(64 << 20, 2, 1920, 3) == 47  # the default budget
        assert executor_mod._trial_block(1000, 1, 60, 1) == 1

    def test_rejects_a_range_with_gaps(self, toy_prelu, tmp_path):
        model, dataset = toy_prelu
        expanded = expand_prelu(model)
        caches = layer_caches(model, dataset, boundary_layers(expanded, {"Add"}), 1 << 20, tmp_path)
        spec = FaultSpec(mode="op", target=("Add",), fault="zero", probability=1.0, seed=1)
        with pytest.raises(ValidationError, match="contiguous"):
            run_injected_opwise(expanded, dataset, caches, spec, [0, 2], [1.0])
        assert run_injected_opwise(expanded, dataset, caches, spec, [], [1.0]) == []


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
        run_injected_opwise(expanded, dataset, caches, spec, [1], [probability])  # numpy's lazy imports
        tracemalloc.start()
        try:
            [[(_, records)]] = run_injected_opwise(expanded, dataset, caches, spec, [0], [probability])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records.size > 0
        assert peak <= 2 * BUDGET + slack, f"peak {peak / 2**20:.2f} MiB, bound {(2 * BUDGET + slack) / 2**20:.2f} MiB"


    @pytest.mark.parametrize("kinds, budget, trials", [(INJECTABLE_KINDS, BUDGET, range(1, 11)),
                                                       (("Add",), 3 * BUDGET, range(1, 8))])
    def test_trial_range_memory(self, toy_prelu, tmp_path, monkeypatch, kinds, budget, trials):
        """A call over many trials holds one chunk, one batch, one block's words and keys, and what it keeps.

        All six kinds put 12 sites in every inference, so a 1 MiB budget holds one trial a block and 10
        trials take 10 blocks.  One kind has 2 sites, and 3 MiB holds a block of 2 trials, so 7 trials take
        blocks of 2, 2, 2 and 1.  Bound, with n samples, s sites, P probabilities, b trials a block and r the
        records of a block's distinct keys:
          - one store chunk and the file reader's buffer;
          - one micro-op batch, which the budget bounds;
          - one block's words and keys, which `_trial_block` keeps within the budget, or one trial's where those
            exceed it: 32 bytes a (site, trial, sample) of words, one draw's Philox temporaries, 192 bytes a
            (trial, sample) (24 words a stream, as tests/test_executor.py's layer-wise bound has it), and 160
            bytes a (p, trial, sample) for the hit counts and their growth mask (13), the key columns (64) and
            their gathered uniforms (25), the first-layer groups (24) and the map from each (trial, sample, p)
            to its key (16);
          - the kept records: every (trial, p)'s predictions and records, and the block's buffer of r records,
            72 bytes each with their order, their owner keys before and after it is applied, and one p's
            selection;
          - 64 bytes a sample for the small arrays, as in the one-trial test above.
        Drawing every trial's words at once, whatever the block, exceeds it for all six kinds.  The block's
        record buffer is allocated by numpy here, not in a memory map, so that tracemalloc sees it.
        """
        model, small = toy_prelu
        dataset = _opwise_dataset(small)
        expanded = expand_prelu(model)
        probabilities = [0.0, 0.5, 1.0]
        caches = layer_caches(model, dataset, boundary_layers(expanded, kinds), budget, tmp_path)
        n, s = len(dataset), expanded.count_ops(set(kinds))
        b = executor_mod._trial_block(budget, s, n, len(probabilities))
        assert len(trials) > b and (b > 1 or caches[0].chunk_count > 1)  # the range crosses blocks
        block = max(budget, n * (32 * s + 192 + 160 * len(probabilities)))  # or one trial's, if above the budget
        spec = FaultSpec(mode="op", target=kinds, fault="bit_flip_random", probability=1.0, seed=101)
        monkeypatch.setattr(executor_mod, "_mapped", np.zeros)
        run_injected_opwise(expanded, dataset, caches, spec, [0], probabilities)  # numpy's lazy imports
        tracemalloc.start()
        try:
            runs = run_injected_opwise(expanded, dataset, caches, spec, trials, probabilities)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(preds.nbytes + records.nbytes for per_p in runs for preds, records in per_p)
        block_records = Counter()
        for trial, _, hits in _distinct_keys(runs):
            block_records[(trial - trials[0]) // b] += hits
        r = max(block_records.values())
        bound = (caches[0].chunk_bytes(0) + io.DEFAULT_BUFFER_SIZE + budget + block + kept + 72 * r
                 + SLACK_PER_SAMPLE * n)
        assert peak <= bound, f"peak {peak} bytes, bound {bound} bytes"


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
