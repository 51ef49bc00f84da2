"""Campaign tests: metrics, CMA, sweeps, reports, determinism."""

import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitstorm.campaign import (
    ACCURACY_FILE,
    CMA_FILE,
    CampaignSpec,
    LAYERS_FILE,
    RECORDS_FILE,
    SUMMARY_FILE,
    accuracy,
    check_convergence,
    cma,
    converged,
    emit_report,
    run_deterministic_100,
    run_stochastic,
)
from bitstorm.errors import ValidationError
from bitstorm.executor import golden_run
from bitstorm.model_io import Dataset

F = np.float32


def _preds(values):
    return np.asarray(values, dtype=np.int64)


def _small(dataset, count):
    return Dataset(samples=dataset.samples[:count], labels=dataset.labels[:count], class_count=dataset.class_count)


class TestAccuracy:
    def test_identical_is_one(self):
        assert accuracy(_preds([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_all_invalid_is_zero(self):
        assert accuracy(_preds([-1, -1]), np.array([-1, -1])) == 0.0  # invalid never matches

    def test_three_of_four(self):
        assert accuracy(_preds([0, 1, 2, 3]), np.array([0, 1, 2, 9])) == 0.75

    def test_prediction_set_reference(self):
        assert accuracy(_preds([5, 6]), _preds([5, 7])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="count"):
            accuracy(_preds([1]), np.array([1, 2]))


class TestCma:
    def test_constant_series(self):
        assert cma([0.5, 0.5, 0.5]) == [0.5, 0.5, 0.5]

    def test_two_values(self):
        assert cma([1.0, 0.0]) == [1.0, 0.5]

    def test_running_sum_oracle(self):
        series = [0.9, 0.8, 0.7, 0.6]
        oracle = [sum(series[: i + 1]) / (i + 1) for i in range(len(series))]
        out = cma(series)
        assert out == oracle
        np.testing.assert_allclose(out, [0.9, 0.85, 0.8, 0.75], rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            cma([])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=500))
    @settings(max_examples=100, deadline=None)
    def test_final_element_is_sequential_mean(self, series):
        # oracle: Python's builtin sum is the same left-to-right reduction
        final = cma(series)[-1]
        oracle = sum(series) / len(series)
        assert final == oracle or abs(final - oracle) <= math.ulp(oracle)


class TestConverged:
    def test_constant_series_converges(self):
        assert converged([0.7] * 30, window=10, epsilon=1e-12)

    def test_alternating_series_cma_converges(self):
        series = cma([1.0, 0.0] * 400)
        assert converged(series, window=10, epsilon=0.001)

    def test_short_series_notes_insufficient_trials(self):
        check = check_convergence([0.5] * 5, window=10, epsilon=0.1)
        assert not check.converged
        assert "insufficient trials" in check.note

    def test_drifting_series_fails(self):
        assert not converged(cma(list(np.linspace(1.0, 0.0, 50))), window=10, epsilon=0.001)


@pytest.fixture(scope="module")
def mini_campaign(toy, tmp_path_factory):
    """A small layer-wise sweep reused across report tests."""
    model, dataset = toy
    out = tmp_path_factory.mktemp("mini") / "results"
    spec = CampaignSpec(
        mode="layer",
        targets=[2, 11],
        probabilities=[0.0, 1.0],
        trials=12,
        metric="golden_run",
        seed=71,
        out_dir=out,
    )
    result = run_stochastic(spec, model, _small(dataset, 24), workers=1)
    emit_report(result, out)
    return spec, result, out


# conftest provides toy at session scope; redeclare for module fixture use
@pytest.fixture(scope="module")
def toy():
    from bitstorm.toygen import build_toy_cnn

    return build_toy_cnn()


class TestRunStochastic:
    def test_probability_zero_reproduces_reference(self, toy, tmp_path):
        model, dataset = toy
        small = _small(dataset, 16)
        for metric in ("golden_run", "ground_truth"):
            spec = CampaignSpec(mode="layer", targets=[0], probabilities=[0.0], trials=5,
                                metric=metric, seed=3, out_dir=None)
            result = run_stochastic(spec, model, small, workers=1, cache_root=tmp_path / metric)
            cell = result.cells[0]
            assert cell.mean == result.reference_accuracy
            assert cell.std == 0.0

    def test_golden_run_reference_is_exactly_one(self, toy, tmp_path):
        model, dataset = toy
        spec = CampaignSpec(mode="layer", targets=[1], probabilities=[0.0], trials=2,
                            metric="golden_run", seed=3)
        result = run_stochastic(spec, model, _small(dataset, 8), workers=1, cache_root=tmp_path)
        assert result.reference_accuracy == 1.0

    def test_ground_truth_reference_matches_golden_vs_labels(self, toy, tmp_path):
        model, dataset = toy
        small = _small(dataset, 16)
        spec = CampaignSpec(mode="layer", targets=[1], probabilities=[0.0], trials=2,
                            metric="ground_truth", seed=3)
        result = run_stochastic(spec, model, small, workers=1, cache_root=tmp_path)
        golden = golden_run(model, small)
        assert result.reference_accuracy == accuracy(golden, small.labels.astype(np.int64))

    def test_opwise_sweep(self, tmp_path):
        from bitstorm.toygen import build_toy_prelu_cnn

        model, dataset = build_toy_prelu_cnn()
        spec = CampaignSpec(mode="op", targets=["Add"], probabilities=[0.0, 1.0], trials=6,
                            metric="golden_run", seed=5)
        result = run_stochastic(spec, model, dataset, workers=1, cache_root=tmp_path)
        by_p = {c.probability: c for c in result.cells}
        assert by_p[0.0].mean == 1.0 and by_p[0.0].records.size == 0
        assert by_p[1.0].records.size > 0

    def test_opwise_accuracy_non_increasing_in_probability(self, tmp_path):
        from bitstorm.toygen import build_toy_prelu_cnn

        model, dataset = build_toy_prelu_cnn()
        spec = CampaignSpec(mode="op", targets=["Add"], probabilities=[0.0, 0.5, 1.0], trials=30,
                            metric="golden_run", seed=6)
        result = run_stochastic(spec, model, dataset, workers=1, cache_root=tmp_path)
        means = [c.mean for c in sorted(result.cells, key=lambda c: c.probability)]
        for lo, hi in zip(means[1:], means[:-1]):
            assert lo <= hi + 0.02, f"mean accuracy rose along the sweep: {means}"

    @pytest.mark.parametrize("fault,bit,expected_bit", [("bit_flip_specific", 31, 31), ("zero", None, -1),
                                                        ("random_value", None, -1)])
    def test_fault_kind_plumbs_through_campaign(self, toy, tmp_path, fault, bit, expected_bit):
        model, dataset = toy
        small = _small(dataset, 8)
        spec = CampaignSpec(mode="layer", targets=[5], probabilities=[1.0], trials=3,
                            metric="golden_run", seed=23, fault=fault, bit=bit)
        result = run_stochastic(spec, model, small, workers=1, cache_root=tmp_path)
        records = result.cells[0].records
        assert records.size == 3 * 8
        assert set(records["bit"].tolist()) == {expected_bit}
        if fault == "zero":
            assert set(records["corrupted"].tolist()) == {0}

    def test_worker_count_env_cap(self, monkeypatch):
        from bitstorm.campaign import _worker_count

        monkeypatch.setenv("BITSTORM_THREADS", "3")
        assert _worker_count(None) == 3
        monkeypatch.setenv("BITSTORM_THREADS", "0")
        assert _worker_count(None) == 1
        for bad in ("abc", "-3"):
            monkeypatch.setenv("BITSTORM_THREADS", bad)
            with pytest.raises(ValidationError, match="BITSTORM_THREADS"):
                _worker_count(None)
        monkeypatch.delenv("BITSTORM_THREADS")
        assert _worker_count(5) == 5

    def test_op_mode_picks_one_worker(self, toy_prelu, tmp_path, monkeypatch):
        """The picked worker count is 1 in either mode, whatever the CPU count; BITSTORM_THREADS or `workers=`
        still set it."""
        import bitstorm.campaign as camp

        monkeypatch.setattr(camp.os, "cpu_count", lambda: 4)
        monkeypatch.delenv("BITSTORM_THREADS", raising=False)
        assert (camp._worker_count(None), camp._worker_count(0)) == (1, 1)
        pools = []

        class Recording(camp.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(camp, "ThreadPoolExecutor", Recording)
        model, dataset = toy_prelu
        spec = CampaignSpec(mode="op", targets=["Add"], probabilities=[0.5], trials=4, metric="golden_run", seed=5)
        run_stochastic(spec, model, dataset, cache_root=tmp_path)
        assert pools == []
        monkeypatch.setenv("BITSTORM_THREADS", "2")
        run_stochastic(spec, model, dataset, cache_root=tmp_path)
        assert pools == [2]
        monkeypatch.delenv("BITSTORM_THREADS")
        run_stochastic(spec, model, dataset, workers=3, cache_root=tmp_path)
        assert pools == [2, 3]

    def test_deterministic_100_reports_most_critical_layer(self, toy, tmp_path, capsys):
        # which layer hurts most at 100% injection; reported rather than
        # hard-asserted (it is an empirical expectation, not a contract)
        model, dataset = toy
        small = _small(dataset, 32)
        spec = CampaignSpec(mode="layer", targets="all", probabilities=[1.0], trials=10,
                            metric="golden_run", seed=29)
        result = run_deterministic_100(spec, model, small, workers=1, cache_root=tmp_path)
        means = {c.target_label: c.mean for c in result.cells}
        most_critical = min(means, key=means.get)
        print(f"[report] per-layer mean accuracy at p=1: {means}")
        print(f"[report] most critical layer: {most_critical} ({model.layers[int(most_critical)].name})")
        assert len(means) == 12

    def test_probabilities_normalized_sorted_unique(self):
        spec = CampaignSpec(mode="layer", targets=[0], probabilities=[1.0, 0.5, 0.5, 0.0], trials=1)
        assert spec.probabilities == [0.0, 0.5, 1.0]

    def test_partial_results_flushed_on_error(self, toy, tmp_path, monkeypatch):
        """A failure at target 1 flushes every cell of target 0 and none of target 1.

        Cells are appended per target, once all of its trials are done.
        """
        model, dataset = toy
        small = _small(dataset, 8)

        import bitstorm.campaign as camp

        real = camp.run_injected_layerwise

        def flaky(model, caches, fault, trials):
            if fault.target == 1:
                raise RuntimeError("simulated executor failure")
            return real(model, caches, fault, trials)

        monkeypatch.setattr(camp, "run_injected_layerwise", flaky)
        for name, probabilities in (("one_p", [1.0]), ("three_p", [0.0, 0.5, 1.0])):
            out = tmp_path / name
            spec = CampaignSpec(mode="layer", targets=[0, 1], probabilities=probabilities, trials=3,
                                metric="golden_run", seed=9, out_dir=out)
            with pytest.raises(RuntimeError, match="simulated"):
                run_stochastic(spec, model, small, workers=1)
            summary = json.loads((out / SUMMARY_FILE).read_text())
            assert summary["partial"] is True
            assert [(c["target"], c["probability"]) for c in summary["cells"]] == [("0", p) for p in probabilities]

    def test_deterministic_across_workers(self, toy, tmp_path):
        """Reports at one worker equal those at several, also when the trials split unevenly (7 at 3)."""
        model, dataset = toy
        small = _small(dataset, 16)
        for trials, workers in ((8, 4), (7, 3)):
            outputs = []
            for count, name in ((1, "a"), (workers, "b")):
                out = tmp_path / f"{name}{trials}"
                spec = CampaignSpec(mode="layer", targets=[2], probabilities=[0.5, 1.0], trials=trials,
                                    metric="golden_run", seed=13, out_dir=out)
                result = run_stochastic(spec, model, small, workers=count)
                emit_report(result, out)
                outputs.append(out)
            for name in (SUMMARY_FILE, ACCURACY_FILE, RECORDS_FILE, CMA_FILE, LAYERS_FILE):
                assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), (trials, workers, name)


    def test_target_0_budget_between_its_row_and_the_next_layers(self, toy, tmp_path):
        """A budget that holds one row of layer 0 but not of layer 1 still runs, with the same report bytes.

        A replay of target 0 also reads the stored outputs of layers 1-7, by row range, so the budget must
        not have to hold one of their rows.
        """
        model, dataset = toy
        assert (4 * math.prod(model.output_shapes[0]), 4 * math.prod(model.output_shapes[1])) == (5184, 8192)
        small = _small(dataset, 40)
        outputs = []
        for budget in (6000, None):
            out = tmp_path / str(budget)
            spec = CampaignSpec(mode="layer", targets=[0], probabilities=[0.5, 1.0], trials=3, metric="golden_run",
                                seed=17, out_dir=out, **({"budget": budget} if budget else {}))
            emit_report(run_stochastic(spec, model, small, workers=1), out)
            outputs.append(out)
        for name in (SUMMARY_FILE, ACCURACY_FILE, RECORDS_FILE, CMA_FILE, LAYERS_FILE):
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name


class TestProbabilityCoupling:
    """Layer-wise cells derived from one replay per (target, trial) at the largest probability."""

    @pytest.fixture(scope="class")
    def sweep(self, toy, tmp_path_factory):
        """A 24-sample campaign over four probabilities; the caches of targets 0 and 5 spill, 11 fits."""
        model, dataset = toy
        small = _small(dataset, 24)
        spec = CampaignSpec(mode="layer", targets=[0, 5, 11], probabilities=[0.0, 0.2, 0.7, 1.0], trials=6,
                            fault="bit_flip_random", metric="ground_truth", seed=41, budget=4 * 5184)
        return model, small, spec, tmp_path_factory.mktemp("coupling_caches")

    def test_each_cell_equals_its_single_probability_campaign(self, sweep):
        model, small, spec, root = sweep
        cells = run_stochastic(spec, model, small, workers=1, cache_root=root).cells
        assert len(cells) == 12
        for cell in cells:
            single = replace(spec, targets=[int(cell.target_label)], probabilities=[cell.probability])
            (want,) = run_stochastic(single, model, small, workers=1, cache_root=root).cells
            assert cell.accuracies == want.accuracies, (cell.target_label, cell.probability)
            assert cell.records.dtype == want.records.dtype
            assert np.array_equal(cell.records, want.records), (cell.target_label, cell.probability)

    def test_reports_identical_at_one_and_three_workers(self, sweep, tmp_path):
        model, small, spec, root = sweep
        for workers in (1, 3):
            out = tmp_path / str(workers)
            emit_report(run_stochastic(spec, model, small, workers=workers, cache_root=root), out)
        for name in (SUMMARY_FILE, ACCURACY_FILE, RECORDS_FILE, CMA_FILE, LAYERS_FILE):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "3" / name).read_bytes(), name


class TestRunDeterministic100:
    def test_layers_ordered_and_probability_forced(self, toy, tmp_path):
        model, dataset = toy
        small = _small(dataset, 12)
        spec = CampaignSpec(mode="layer", targets="all", probabilities=[0.3], trials=1,
                            metric="ground_truth", seed=17)
        result = run_deterministic_100(spec, model, small, workers=1, cache_root=tmp_path)
        assert [c.target_label for c in result.cells] == [str(i) for i in range(12)]
        assert all(c.probability == 1.0 for c in result.cells)
        assert result.reference_accuracy == 1.0  # forced golden-run metric

    def test_one_record_per_sample_per_trial(self, toy, tmp_path):
        model, dataset = toy
        small = _small(dataset, 12)
        spec = CampaignSpec(mode="layer", targets=[4], probabilities=[1.0], trials=7,
                            metric="golden_run", seed=19)
        result = run_deterministic_100(spec, model, small, workers=1, cache_root=tmp_path)
        assert result.cells[0].records.size == 7 * 12

    def test_requires_layer_mode(self, toy):
        model, dataset = toy
        spec = CampaignSpec(mode="op", targets=["Add"], probabilities=[1.0], trials=1)
        with pytest.raises(ValidationError, match="layer-wise"):
            run_deterministic_100(spec, model, dataset)


class TestEmitReport:
    def test_rejects_empty_result(self, mini_campaign, tmp_path):
        spec, result, _ = mini_campaign
        from bitstorm.campaign import CampaignResult

        empty = CampaignResult(spec=spec, reference_accuracy=1.0, golden=result.golden, cells=[])
        with pytest.raises(ValidationError, match="no completed cells"):
            emit_report(empty, tmp_path)

    def test_accuracy_csv_row_count(self, mini_campaign):
        spec, result, out = mini_campaign
        lines = (out / ACCURACY_FILE).read_text().splitlines()
        assert lines[0].startswith("#") and "philox4x64-10" in lines[0] and f"seed={spec.seed}" in lines[0]
        assert lines[1] == "target,probability,trial,accuracy"
        assert len(lines) - 2 == 2 * 2 * 12  # targets x probabilities x trials

    def test_stats_recomputed_from_csv_match_summary_exactly(self, mini_campaign):
        _, _, out = mini_campaign
        summary = json.loads((out / SUMMARY_FILE).read_text())
        rows = [l.split(",") for l in (out / ACCURACY_FILE).read_text().splitlines()[2:]]
        for cell in summary["cells"]:
            accs = [float(r[3]) for r in rows if r[0] == cell["target"] and float(r[1]) == cell["probability"]]
            assert len(accs) == cell["trials"]
            total = 0.0
            for a in accs:
                total += a
            mean = total / len(accs)
            sq = 0.0
            for a in accs:
                sq += (a - mean) ** 2
            assert mean == cell["mean"]
            assert math.sqrt(sq / len(accs)) == cell["std"]
            assert min(accs) == cell["min"] and max(accs) == cell["max"]

    def test_cma_final_equals_mean_in_summary(self, mini_campaign):
        _, _, out = mini_campaign
        summary = json.loads((out / SUMMARY_FILE).read_text())
        for cell in summary["cells"]:
            assert cell["cma"][-1] == cell["mean"]
            assert cell["min"] <= cell["mean"] <= cell["max"]

    def test_re_emit_is_byte_identical(self, mini_campaign, tmp_path):
        _, result, out = mini_campaign
        again = tmp_path / "again"
        emit_report(result, again)
        for name in (SUMMARY_FILE, ACCURACY_FILE, CMA_FILE, RECORDS_FILE, LAYERS_FILE):
            assert (out / name).read_bytes() == (again / name).read_bytes(), name

    def test_write_failure_keeps_previous_report(self, mini_campaign, tmp_path, monkeypatch):
        import dataclasses

        import bitstorm.campaign as camp

        spec, result, out = mini_campaign
        names = (SUMMARY_FILE, ACCURACY_FILE, CMA_FILE, RECORDS_FILE, LAYERS_FILE)
        before = {name: (out / name).read_bytes() for name in names}
        # another seed changes the header of every file, so any file replaced would show
        other = dataclasses.replace(result, spec=dataclasses.replace(spec, seed=spec.seed + 1))
        real = camp.records_to_rows
        written = []

        def failing(records, prefix):
            for block in real(records, prefix):
                yield block
                written.append(block)  # emit_report asked for the next block, so this one is written
                raise OSError(28, "No space left on device")

        report = tmp_path / "report"
        emit_report(result, report)
        monkeypatch.setattr(camp, "records_to_rows", failing)
        with pytest.raises(OSError, match="No space"):
            emit_report(other, report)
        assert len(written) == 1 and written[0]  # it failed after the first block that carries records
        for name in names:
            assert (report / name).read_bytes() == before[name], name
        assert sorted(p.name for p in report.iterdir()) == sorted(names)

        monkeypatch.setattr(camp, "records_to_rows", real)
        emit_report(other, report)
        for name in names:
            assert (report / name).read_bytes() != before[name], name

    def test_records_are_written_a_block_at_a_time(self, mini_campaign, tmp_path):
        """emit_report of one cell of 200k records holds a few blocks' text beside the records, not the cell's.

        The records span every field's range, so each line is as long as
        records.csv lines get: at most 128 bytes with this cell's prefix.
        The bound is three copies of one block's text at that length (the
        formatter's byte matrix, its bytes and the text the file encodes)
        plus 64 KiB for the other files, file buffers and Python objects:
        about 0.8 MiB, where the cell's text is 24 MB.
        """
        import dataclasses
        import tracemalloc

        from bitstorm.faults import RECORD_DTYPE, _RECORD_BLOCK

        _, result, _ = mini_campaign
        rng = np.random.default_rng(3)
        records = np.empty(200_000, dtype=RECORD_DTYPE)
        for name in RECORD_DTYPE.names:
            kind = RECORD_DTYPE[name]
            records[name] = rng.integers(np.iinfo(kind).min, np.iinfo(kind).max, records.size, dtype=kind,
                                         endpoint=True)
        cell = dataclasses.replace(result.cells[0], records=records)
        one_cell = dataclasses.replace(result, cells=[cell])
        emit_report(one_cell, tmp_path / "warm")  # numpy's lazy imports are not the writer's
        tracemalloc.start()
        try:
            emit_report(one_cell, tmp_path / "report")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = (tmp_path / "report" / RECORDS_FILE).read_bytes().splitlines()[2:]
        assert len(lines) == records.size and max(map(len, lines)) < 128
        bound = 3 * _RECORD_BLOCK * 128 + (64 << 10)
        assert peak <= bound, f"peak {peak} bytes above the {records.nbytes}-byte records, bound {bound} bytes"

    def test_layers_csv_carries_kind_and_shape(self, mini_campaign):
        _, _, out = mini_campaign
        lines = (out / LAYERS_FILE).read_text().splitlines()
        assert lines[1] == "target,kind,output_shape,probability,mean,std,min,max"
        row = lines[2].split(",")
        assert row[0] == "2" and row[1] == "MaxPool2D" and row[2] == "8x8x8"

    def test_records_csv_hex_columns(self, mini_campaign):
        _, _, out = mini_campaign
        lines = (out / RECORDS_FILE).read_text().splitlines()
        assert lines[1] == "target,probability,trial,sample,site,element,bit,original_hex,corrupted_hex"
        data = [l for l in lines[2:] if l]
        assert data, "p=1 cells must produce records"
        for row in data[:20]:
            fields = row.split(",")
            assert len(fields) == 9
            int(fields[7], 16), int(fields[8], 16)


class TestCacheReuse:
    def test_cache_of_another_model_is_not_reused(self, tmp_path):
        # same shapes, other weights: the seed-8 run must not read the seed-7 caches
        from bitstorm.toygen import build_toy_cnn

        spec = CampaignSpec(mode="layer", targets=[5], probabilities=[0.0], trials=1,
                            metric="golden_run", seed=3)
        for toy_seed in (7, 8):
            model, dataset = build_toy_cnn(toy_seed)
            result = run_stochastic(spec, model, dataset, workers=1, cache_root=tmp_path)
            assert result.cells[0].mean == 1.0, f"toy seed {toy_seed}"

    def test_golden_comes_from_the_caches(self, toy, tmp_path, monkeypatch):
        model, dataset = toy
        small = _small(dataset, 24)
        spec = CampaignSpec(mode="layer", targets=[3, 9], probabilities=[0.5], trials=2,
                            metric="ground_truth", seed=4)
        want = golden_run(model, small)
        _forbid_golden_run(monkeypatch)  # layer mode never calls it
        for _ in range(2):  # built, then reused
            result = run_stochastic(spec, model, small, workers=1, cache_root=tmp_path)
            assert np.array_equal(result.golden, want)
            assert result.reference_accuracy == accuracy(want, small.labels.astype(np.int64))

    @pytest.mark.parametrize("targets", [["Add"], "all"])
    def test_opwise_golden_comes_from_the_store(self, toy_prelu, tmp_path, monkeypatch, targets):
        model, dataset = toy_prelu
        spec = CampaignSpec(mode="op", targets=targets, probabilities=[0.0, 0.5], trials=2,
                            metric="ground_truth", seed=4)
        want = golden_run(model, dataset)
        _forbid_golden_run(monkeypatch)  # op mode never calls it either
        for _ in range(2):  # built, then reused
            result = run_stochastic(spec, model, dataset, workers=1, cache_root=tmp_path)
            assert np.array_equal(result.golden, want)
            assert result.reference_accuracy == accuracy(want, dataset.labels.astype(np.int64))
            assert [c.mean for c in result.cells[:1]] == [result.reference_accuracy]  # p = 0


def _forbid_golden_run(monkeypatch):
    """Make golden_run uncallable through every bitstorm module that holds it."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bitstorm" and hasattr(module, "golden_run"):
            monkeypatch.setattr(module, "golden_run", None)
