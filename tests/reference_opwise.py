"""Whole-batch operation-wise trial, the oracle of executor.run_injected_opwise.

Every sample goes through every micro-op of the expanded model as one
batch, and each targeted op's output is corrupted as the pass produces it.
This is how op-wise trials ran before they replayed only hit samples from a
golden layer boundary; it needs no store and has no memory bound.
"""

import numpy as np

from bitstorm.engine import predict_batch
from bitstorm.faults import RECORD_DTYPE, draw_words, inject_batch
from bitstorm.microops import run_microops_batch
from reference_faults import corrupted_rows


def run_opwise_whole_batch(expanded, dataset, spec, trial):
    """(preds, records) of one op-wise trial; records come in op order, then sample order."""
    target = set(spec.target)
    expanded.require_kinds(target)
    sample_ids = np.arange(len(dataset), dtype=np.uint64)
    parts = []

    def hook(op, out):
        if op.kind not in target:
            return out
        words = draw_words(spec.seed, trial, sample_ids, op.op_id)
        rows, records, _ = inject_batch(out, spec, words, trial, sample_ids, op.op_id)
        if records.size:
            parts.append(records)
            out[rows] = corrupted_rows(out, rows, records)
        return out

    scores = run_microops_batch(expanded, dataset.samples, hook=hook)
    records = np.concatenate(parts) if parts else np.empty(0, dtype=RECORD_DTYPE)
    return predict_batch(scores), records
