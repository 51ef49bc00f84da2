"""Correctness checks for campaign results, computed apart from bitstorm.

The Philox words are redrawn with ``numpy.random.Philox``, which is the same
Philox4x64-10 as ``bitstorm.faults``: key (seed, salt) and the 256-bit
counter (block, trial, sample, site).  NumPy increments its counter before
it generates a block, so the counter it is given is the wanted one minus one,
with the borrow carried through all four words.

Every check returns a list of messages; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

#: Second key word of every fault stream ("BITSTORM" in ASCII).
KEY_SALT = 0x42495453544F524D

_U64 = (1 << 64) - 1


class PhiloxOracle:
    """Words 0-2 of block 0 of each (trial, sample, site) stream, memoised.

    The words do not depend on the probability or the fault kind, so the
    cells of one target share them.
    """

    def __init__(self, seed: int):
        self._gen = np.random.Philox(key=int(seed) | (KEY_SALT << 64))
        self._state = self._gen.state
        self._memo: dict[tuple[int, int, int], np.ndarray] = {}

    def block(self, block: int, trial: int, sample: int, site: int) -> np.ndarray:
        """All four words of one counter block."""
        counter = (block | (trial << 64) | (sample << 128) | (site << 192)) - 1
        counter %= 1 << 256
        state = self._state
        state["state"]["counter"] = np.array([(counter >> (64 * i)) & _U64 for i in range(4)], dtype=np.uint64)
        state["buffer_pos"] = 4  # empty buffer: the next draw generates a block
        self._gen.state = state
        return self._gen.random_raw(4)

    def words(self, trial: int, samples: int, site: int) -> np.ndarray:
        """(samples, 3) array: words 0-2 for samples 0..samples-1."""
        key = (trial, samples, site)
        if key not in self._memo:
            self._memo[key] = np.array([self.block(0, trial, s, site)[:3] for s in range(samples)], dtype=np.uint64)
        return self._memo[key]


def expected_records(oracle: PhiloxOracle, trials: int, samples: int, sites, probability: float,
                     fault: str, bit: int | None) -> dict[str, np.ndarray]:
    """Fields (trial, sample, site, element, bit) of every injection the seed implies.

    `sites` is a list of (site id, element count).  A stream injects exactly
    when word 0, read as a 53-bit uniform, is below the probability; word 1
    picks the element and word 2 the bit.
    """
    parts = []
    for t in range(trials):
        for site, elements in sites:
            w = oracle.words(t, samples, site)
            u = (w[:, 0] >> np.uint64(11)).astype(np.float64) * 2.0**-53
            hit = np.nonzero(u < probability)[0]
            n = hit.size
            bits = (w[hit, 2] % np.uint64(32)).astype(np.int64) if fault == "bit_flip_random" else np.full(n, bit)
            parts.append(np.stack([np.full(n, t), hit, np.full(n, site), (w[hit, 1] % np.uint64(elements)).astype(np.int64), bits], axis=1))
    rows = np.concatenate(parts) if parts else np.empty((0, 5), dtype=np.int64)
    return _sorted_fields(rows.astype(np.int64))


def _sorted_fields(rows: np.ndarray) -> dict[str, np.ndarray]:
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    rows = rows[order]
    return {name: rows[:, i] for i, name in enumerate(("trial", "sample", "site", "element", "bit"))}


def record_fields(records: np.ndarray) -> dict[str, np.ndarray]:
    rows = np.stack([records[f].astype(np.int64) for f in ("trial", "sample", "site", "element", "bit")], axis=1)
    return _sorted_fields(rows.reshape(-1, 5))


def check_records(records: np.ndarray, expected: dict[str, np.ndarray]) -> list[str]:
    got = record_fields(records)
    if got["trial"].size != expected["trial"].size:
        return [f"{got['trial'].size} records, the seed implies {expected['trial'].size}"]
    return [f"record field {name} differs from the redrawn stream"
            for name in expected if not np.array_equal(got[name], expected[name])]


def check_bit_flips(records: np.ndarray) -> list[str]:
    """corrupted == original ^ (1 << bit) for every bit-flip record."""
    flips = records[records["bit"] >= 0]
    want = flips["original"].astype(np.uint64) ^ (np.uint64(1) << flips["bit"].astype(np.uint64))
    bad = int(np.count_nonzero(want != flips["corrupted"].astype(np.uint64)))
    return [f"{bad} records where corrupted != original ^ (1 << bit)"] if bad else []


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def check_statistics(cell) -> list[str]:
    """Mean, population std, min, max and CMA recomputed with math.fsum."""
    acc = [float(a) for a in cell.accuracies]
    n = len(acc)
    mean = math.fsum(acc) / n
    std = math.sqrt(math.fsum((a - mean) ** 2 for a in acc) / n)
    errors = [f"{name} {got!r} != {want!r}" for name, got, want in
              (("mean", cell.mean, mean), ("std", cell.std, std)) if not _close(got, want)]
    if cell.min != min(acc) or cell.max != max(acc):
        errors.append("min or max does not match the accuracies")
    cma = [math.fsum(acc[: k + 1]) / (k + 1) for k in range(n)]
    if len(cell.cma) != n or not all(_close(g, w) for g, w in zip(cell.cma, cma)):
        errors.append("CMA does not match the running mean of the accuracies")
    return errors


def check_accuracies(cell, records: np.ndarray, samples: int) -> list[str]:
    """Each accuracy is k / samples, and misses never exceed the samples hit.

    Under the golden_run metric a sample that took no injection in a trial
    keeps its golden prediction, so at p = 0 every accuracy is exactly 1.0.
    """
    errors = []
    for t, a in enumerate(cell.accuracies):
        correct = round(float(a) * samples)
        if float(a) != correct / samples:
            errors.append(f"trial {t}: accuracy {a!r} is not a multiple of 1/{samples}")
            continue
        hit = np.unique(records["sample"][records["trial"] == t]).size
        if samples - correct > hit:
            errors.append(f"trial {t}: {samples - correct} mispredictions but only {hit} samples were hit")
    return errors


def check_cell(cell, oracle: PhiloxOracle, sites, samples: int, fault: str, bit: int | None) -> list[str]:
    trials = len(cell.accuracies)
    records = cell.records
    errors = check_records(records, expected_records(oracle, trials, samples, sites, cell.probability, fault, bit))
    if fault.startswith("bit_flip"):
        errors += check_bit_flips(records)
    if cell.probability == 1.0 and records.size != trials * samples * len(sites):
        errors.append(f"p = 1 gave {records.size} records, want {trials * samples * len(sites)}")
    return errors + check_statistics(cell) + check_accuracies(cell, records, samples)


def check_report(result, report_dir: Path) -> list[str]:
    """summary.json mirrors the result; records.csv has one row per record."""
    summary = json.loads((report_dir / "summary.json").read_text(encoding="utf-8"))
    cells = summary["cells"]
    if len(cells) != len(result.cells):
        return [f"summary.json has {len(cells)} cells, the result {len(result.cells)}"]
    errors = [f"summary cell {i} differs from the result" for i, (doc, cell) in enumerate(zip(cells, result.cells))
              if doc["mean"] != cell.mean or doc["injections"] != cell.records.size or doc["accuracies"] != list(cell.accuracies)]
    with open(report_dir / "records.csv", "rb") as fh:
        rows = sum(1 for _ in fh) - 2  # comment line and header
    total = sum(cell.records.size for cell in result.cells)
    if rows != total:
        errors.append(f"records.csv has {rows} rows for {total} records")
    return errors
