"""Oracle for layer-wise trials: one trial at a time, every chunk read per trial.

`run_trial` is the per-trial replay that `executor.run_injected_layerwise`
batches over trials.  It draws the trial's words once for all samples,
injects chunk by chunk, and replays each chunk's changed rows in one tail
call.  The tests hold the trial-batched replay to it byte for byte.
"""

import numpy as np

from bitstorm.engine import predict_batch, tail_scores_batch
from bitstorm.faults import RECORD_DTYPE, draw_words, inject_batch
from reference_faults import corrupted_rows


def run_trial(model, cache, spec, trial: int):
    """(preds, records, u) of one trial; u[i] is the Bernoulli uniform of records[i]."""
    sample_ids = np.arange(cache.sample_count, dtype=np.uint64)
    words = draw_words(spec.seed, trial, sample_ids, cache.layer)
    preds = cache.golden.copy()
    all_records, all_u = [], []
    for start, acts in cache.iter_chunks():
        stop = start + acts.shape[0]
        rows, records, u = inject_batch(acts, spec, words[start:stop], trial, sample_ids[start:stop], cache.layer)
        if records.size:
            all_records.append(records)
            all_u.append(u)
            changed = records["original"] != records["corrupted"]
            if changed.any():
                preds[records["sample"][changed].astype(np.int64)] = predict_batch(
                    tail_scores_batch(model, cache.layer, corrupted_rows(acts, rows[changed], records[changed])))
    if not all_records:
        return preds, np.empty(0, dtype=RECORD_DTYPE), np.empty(0)
    return preds, np.concatenate(all_records), np.concatenate(all_u)
