"""Fault injector tests: bit algebra, stream derivation, injection semantics.

Both injectors are checked against `reference_faults`, which shares no code
with `bitstorm.faults`.
"""

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_faults as ref
from conftest import assert_bits_equal
from bitstorm.errors import ValidationError
from bitstorm.faults import (
    FAULT_KINDS,
    FaultSpec,
    NO_BIT,
    PhiloxStream,
    RECORD_DTYPE,
    _RECORD_BLOCK,
    concat_records,
    corrupt_element,
    derive_stream,
    draw_words,
    flip_bit,
    inject_batch,
    maybe_inject,
    philox_block,
    records_to_rows,
)

F = np.float32
U64_MAX = 2**64 - 1


class TestFlipBit:
    def test_sign_bit(self):
        assert flip_bit(1.0, 31) == F(-1.0)

    def test_lowest_exponent_bit(self):
        assert flip_bit(1.0, 23) == F(0.5)

    def test_zero_to_two(self):
        assert flip_bit(0.0, 30) == F(2.0)

    def test_rejects_bad_bit(self):
        with pytest.raises(ValidationError):
            flip_bit(1.0, 32)
        with pytest.raises(ValidationError):
            flip_bit(1.0, -1)

    @given(st.floats(width=32, allow_nan=False), st.integers(0, 31))
    @settings(max_examples=300, deadline=None)
    def test_involution(self, value, bit):
        once = flip_bit(F(value), bit)
        twice = flip_bit(once, bit)
        assert np.asarray(twice, F).view(np.uint32) == np.asarray(F(value), F).view(np.uint32)

    def test_vectorized_involution(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 2**32, size=10_000, dtype=np.uint32).view(F)
        bits = rng.integers(0, 32, size=10_000)
        assert_bits_equal(flip_bit(flip_bit(values, bits), bits), values)


class TestStreams:
    def test_same_tuple_same_draws(self):
        a = derive_stream(1, 2, 3, 4)
        b = derive_stream(1, 2, 3, 4)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_distinct_samples_distinct_streams(self):
        # empirical check across many tuple pairs differing only in sample id
        diverged = 0
        for sample in range(10_000):
            a = derive_stream(9, 0, sample, 5)
            b = derive_stream(9, 0, sample + 1, 5)
            if any(a.next_u64() != b.next_u64() for _ in range(10)):
                diverged += 1
        assert diverged == 10_000

    def test_philox_against_numpy_oracle(self):
        # numpy's Philox is the same philox4x64-10 with a pre-incremented counter
        rng = np.random.default_rng(17)
        for _ in range(25):
            ctr = rng.integers(1, 2**63, size=4, dtype=np.uint64)
            key = rng.integers(0, 2**63, size=2, dtype=np.uint64)
            mine = philox_block(ctr[None, :], key[0], key[1])[0]
            np_ctr = ctr.copy()
            np_ctr[0] -= 1
            theirs = np.random.Philox(counter=np_ctr.tolist(), key=key.tolist()).random_raw(4)
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("key", [(1, 2, 3, 4), (0, 0, 0, 0), (U64_MAX, U64_MAX, U64_MAX, U64_MAX),
                                     (5, U64_MAX, 0, U64_MAX)])
    def test_stream_words_match_reference(self, key):
        # 100 words span the stream's first two buffer refills (8 and 16 blocks)
        stream = derive_stream(*key)
        assert [stream.next_u64() for _ in range(100)] == ref.stream_words(*key, count=100)
        stream = derive_stream(*key)
        assert stream.uniform() == ref.uniform(ref.stream_words(*key, count=1)[0])

    def test_uniform_range(self):
        stream = derive_stream(11, 0, 0, 0)
        draws = [stream.uniform() for _ in range(10_000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(ValidationError):
            derive_stream(-1, 0, 0, 0)
        with pytest.raises(ValidationError):
            derive_stream(0, 2**64, 0, 0)


class TestFaultSpec:
    def test_specific_requires_bit(self):
        with pytest.raises(ValidationError, match="bit"):
            FaultSpec(mode="layer", target=0, fault="bit_flip_specific", probability=1.0, seed=0)

    def test_bit_only_for_specific(self):
        with pytest.raises(ValidationError, match="bit"):
            FaultSpec(mode="layer", target=0, fault="zero", probability=1.0, seed=0, bit=3)

    def test_probability_range(self):
        with pytest.raises(ValidationError, match="probability"):
            FaultSpec(mode="layer", target=0, fault="zero", probability=1.5, seed=0)

    def test_op_target_must_be_known(self):
        with pytest.raises(ValidationError, match="op kinds"):
            FaultSpec(mode="op", target=("Conv",), fault="zero", probability=0.5, seed=0)

    def test_op_target_non_empty(self):
        with pytest.raises(ValidationError, match="at least one"):
            FaultSpec(mode="op", target=(), fault="zero", probability=0.5, seed=0)


class TestCorruptElement:
    def test_zero_fault(self):
        t = np.array([1.0, -3.5, 2.0], dtype=F)
        out, rec = corrupt_element(t, 1, "zero", derive_stream(0, 0, 0, 0))
        assert out[1] == 0.0 and np.signbit(out[1]) == False  # noqa: E712 - +0.0 exactly
        assert rec.bit == NO_BIT and rec.corrupted == 0
        assert_bits_equal(t, [1.0, -3.5, 2.0], "input must not be modified")

    def test_zero_on_zero_is_recorded_no_change(self):
        t = np.array([0.0], dtype=F)
        _, rec = corrupt_element(t, 0, "zero", derive_stream(0, 0, 0, 0))
        assert rec.original == rec.corrupted == 0

    def test_specific_sign_flip(self):
        t = np.array([2.0], dtype=F)
        out, rec = corrupt_element(t, 0, "bit_flip_specific", derive_stream(0, 0, 0, 0), specific_bit=31)
        assert out[0] == F(-2.0)
        assert rec.bit == 31

    def test_random_value_deterministic_per_stream(self):
        t = np.arange(16, dtype=F)
        a, rec_a = corrupt_element(t, 5, "random_value", derive_stream(42, 1, 2, 3))
        b, rec_b = corrupt_element(t, 5, "random_value", derive_stream(42, 1, 2, 3))
        assert rec_a.corrupted == rec_b.corrupted
        assert_bits_equal(a, b)
        want, (bit, original, corrupted) = ref.corrupt(t, 5, "random_value", None, ref.stream_words(42, 1, 2, 3)[0])
        assert_bits_equal(a, want)
        assert (rec_a.bit, rec_a.original, rec_a.corrupted) == (bit, original, corrupted)

    @pytest.mark.parametrize("kind,bit", [("bogus", None), ("bit_flip_specific", None),
                                          ("bit_flip_specific", 40), ("zero", 3)])
    def test_rejects_invalid_fault(self, kind, bit):
        stream = derive_stream(0, 0, 0, 0)
        with pytest.raises(ValidationError):
            corrupt_element(np.zeros(3, dtype=F), 0, kind, stream, specific_bit=bit)
        assert stream.next_u64() == ref.stream_words(0, 0, 0, 0, count=1)[0], "a rejected fault drew a word"

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            corrupt_element(np.zeros(3, dtype=F), 3, "zero", derive_stream(0, 0, 0, 0))


class TestMaybeInject:
    @pytest.mark.parametrize("fault,bit", [("zero", None), ("random_value", None),
                                           ("bit_flip_random", None), ("bit_flip_specific", 7)])
    def test_probability_zero_is_pure_and_advances_stream(self, fault, bit):
        spec = FaultSpec(mode="layer", target=0, fault=fault, probability=0.0, seed=5, bit=bit)
        t = np.arange(10, dtype=F)
        stream = derive_stream(5, 0, 0, 0)
        out, records = maybe_inject(t, spec, stream)
        assert out is t and records == []
        # exactly three words consumed: the next draw equals word 3 of a fresh stream
        fresh = derive_stream(5, 0, 0, 0)
        for _ in range(3):
            fresh.next_u64()
        assert stream.next_u64() == fresh.next_u64()

    def test_probability_one_always_injects_once(self):
        spec = FaultSpec(mode="layer", target=0, fault="bit_flip_random", probability=1.0, seed=5)
        t = np.zeros(64, dtype=F)
        for trial in range(50):
            out, records = maybe_inject(t, spec, derive_stream(5, trial, 0, 0))
            assert len(records) == 1
            assert (out.view(np.uint32) != 0).sum() == 1

    def test_draw_counts_constant_across_outcomes(self):
        spec = FaultSpec(mode="layer", target=0, fault="zero", probability=0.5, seed=6)
        t = np.ones(8, dtype=F)
        for trial in range(20):
            stream = derive_stream(6, trial, 0, 0)
            maybe_inject(t, spec, stream)
            fresh = derive_stream(6, trial, 0, 0)
            for _ in range(3):
                fresh.next_u64()
            assert stream.next_u64() == fresh.next_u64()

    def test_binomial_count_within_three_sigma(self):
        spec = FaultSpec(mode="layer", target=0, fault="bit_flip_random", probability=0.5, seed=7)
        t = np.zeros(32, dtype=F)
        stream = derive_stream(7, 0, 0, 0)
        hits = 0
        n = 10_000
        for _ in range(n):
            _, records = maybe_inject(t, spec, stream)
            hits += len(records)
        sigma = (n * 0.25) ** 0.5
        assert abs(hits - n * 0.5) <= 3 * sigma, hits

    def test_single_site_guarantee(self):
        spec = FaultSpec(mode="layer", target=0, fault="random_value", probability=1.0, seed=8)
        t = np.full(128, 7.0, dtype=F)
        for trial in range(30):
            out, _ = maybe_inject(t, spec, derive_stream(8, trial, 0, 0))
            assert (out.view(np.uint32) != np.asarray(t, F).view(np.uint32)).sum() <= 1


class TestInjectBatch:
    @pytest.mark.parametrize("fault,bit", [("zero", None), ("random_value", None),
                                           ("bit_flip_random", None), ("bit_flip_specific", 23)])
    def test_matches_per_sample_maybe_inject(self, fault, bit):
        spec = FaultSpec(mode="layer", target=4, fault=fault, probability=0.7, seed=31, bit=bit)
        rng = np.random.default_rng(9)
        acts = rng.normal(size=(33, 5, 2)).astype(F)
        rows, batch_recs, u = inject_batch(acts, spec, draw_words(31, 3, np.arange(33), 4), trial=3,
                                          sample_ids=np.arange(33), site=4)
        want = [ref.inject(acts[s], fault, bit, 0.7, 31, 3, s, 4) for s in range(33)]
        hits = [w for w in want if w[2] is not None]
        assert 0 < len(hits) < 33
        assert rows.shape == batch_recs.shape == (len(hits),)
        assert rows.tolist() == [s for s in range(33) if want[s][2] is not None]
        assert_bits_equal(ref.corrupted_rows(acts, rows, batch_recs), np.stack([out for _, out, _ in hits]))
        assert u.tolist() == [w_u for w_u, _, _ in hits]
        assert [tuple(int(r[name]) for name in RECORD_DTYPE.names) for r in batch_recs] == [rec for _, _, rec in hits]
        for s in range(33):
            _, want_out, want_rec = want[s]
            out, recs = maybe_inject(acts[s], spec, derive_stream(31, 3, s, 4))
            assert_bits_equal(out, want_out)
            assert [dataclasses.astuple(r) for r in recs] == ([want_rec] if want_rec else [])

    def test_draw_words_are_each_streams_first_words(self):
        ids = np.array([0, 5, 6, 1000, 2**40], dtype=np.uint64)
        words = draw_words(77, 9, ids, 12)
        assert words.shape == (5, 4)
        for row, sample in zip(words, ids):
            assert row.tolist() == ref.stream_words(77, 9, int(sample), 12, count=4)
        # one draw over all samples, sliced, equals a draw per chunk
        assert np.array_equal(draw_words(77, 9, ids, 12)[1:3], draw_words(77, 9, ids[1:3], 12))

    def test_input_array_never_mutated(self):
        spec = FaultSpec(mode="layer", target=0, fault="bit_flip_random", probability=1.0, seed=12)
        acts = np.ones((8, 16), dtype=F)
        before = acts.copy()
        acts.flags.writeable = False  # cache chunks are read-only buffers
        inject_batch(acts, spec, draw_words(12, 0, np.arange(8), 0), trial=0, sample_ids=np.arange(8), site=0)
        assert_bits_equal(acts, before)

    def test_strided_input_gives_the_records_of_its_copy(self):
        """Patterns are read through an index per axis, so a view of any strides is read as it is."""
        spec = FaultSpec(mode="layer", target=0, fault="bit_flip_random", probability=0.8, seed=21)
        view = np.random.default_rng(4).normal(size=(6, 7, 5)).astype(F).transpose(0, 2, 1)[:, ::2]
        assert not view.flags.c_contiguous
        words = draw_words(21, 2, np.arange(6), 0)
        got = inject_batch(view, spec, words, 2, np.arange(6), 0)
        want = inject_batch(np.ascontiguousarray(view), spec, words, 2, np.arange(6), 0)
        assert got[1].size > 0
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_csv_rows(self):
        spec = FaultSpec(mode="layer", target=0, fault="bit_flip_specific", probability=1.0, seed=13, bit=31)
        acts = np.ones((2, 4), dtype=F)
        _, recs, _ = inject_batch(acts, spec, draw_words(13, 1, np.arange(2), 0), trial=1,
                                  sample_ids=np.arange(2), site=0)
        blocks = list(records_to_rows(recs, "0,1.0,"))
        assert len(blocks) == 1  # two records fill one block
        rows = blocks[0].split("\n")
        assert len(rows) == 3 and rows[2] == ""  # every line ends in a newline
        assert rows[0].split(",")[:3] == ["0", "1.0", "1"]
        assert rows[0].split(",")[6] == "31"
        assert rows[0].split(",")[7] == "3f800000"  # 1.0f
        assert rows[0].split(",")[8] == "bf800000"  # -1.0f

    @pytest.mark.parametrize("prefix", ["11,0.25,", "ConstMul,1.0,"])
    @pytest.mark.parametrize("size", [0, 1, _RECORD_BLOCK - 1, _RECORD_BLOCK, _RECORD_BLOCK + 1,
                                      3 * _RECORD_BLOCK + 5])
    def test_csv_rows_equal_field_by_field_formatting(self, size, prefix):
        """Blocks formatted from whole columns equal one record at a time, byte for byte.

        Fields are drawn over their whole range, so a block's widest value
        has 20 digits; `bit` also takes NO_BIT, 0..31 and the i4 extremes,
        and the last record is the largest of every field.
        """
        rng = np.random.default_rng(size)
        records = np.empty(size, dtype=RECORD_DTYPE)
        for name in RECORD_DTYPE.names:
            kind = RECORD_DTYPE[name]
            records[name] = rng.integers(np.iinfo(kind).min, np.iinfo(kind).max, size, dtype=kind, endpoint=True)
        bits = np.array([NO_BIT, *range(32), np.iinfo(np.int32).min, np.iinfo(np.int32).max])
        records["bit"] = np.where(rng.random(size) < 0.5, rng.choice(bits, size), records["bit"])
        if size:
            records[-1] = (U64_MAX, U64_MAX, U64_MAX, U64_MAX, np.iinfo(np.int32).max, 2**32 - 1, 2**32 - 1)
        blocks = records_to_rows(records, prefix)
        assert inspect.isgenerator(blocks)  # emit_report writes each block as it comes
        blocks = list(blocks)
        assert len(blocks) == -(-size // _RECORD_BLOCK)
        assert "".join(blocks) == "".join(prefix + ref.csv_row(rec) + "\n" for rec in records)

    def test_csv_block_width_follows_its_largest_value(self):
        """Each block is as wide as its own largest values: 1-digit, 20-digit and all-zero blocks side by side."""
        size = 3 * _RECORD_BLOCK
        rng = np.random.default_rng(7)
        records = np.zeros(size, dtype=RECORD_DTYPE)
        small = slice(0, _RECORD_BLOCK)
        wide = slice(_RECORD_BLOCK, 2 * _RECORD_BLOCK)
        for name in ("trial", "sample", "site", "element"):
            records[name][small] = rng.integers(0, 10, _RECORD_BLOCK)
            records[name][wide] = rng.integers(0, 10, _RECORD_BLOCK)
            records[name][wide][::97] = U64_MAX - rng.integers(0, 10**6, records[name][wide][::97].size,
                                                               dtype=np.uint64)
        records["bit"][small] = rng.integers(-1, 10, _RECORD_BLOCK)
        records["bit"][wide] = rng.integers(np.iinfo(np.int32).min, np.iinfo(np.int32).max, _RECORD_BLOCK)
        records["original"][wide] = rng.integers(0, 2**32, _RECORD_BLOCK)
        blocks = list(records_to_rows(records, "3,0.5,"))
        for block, start in zip(blocks, range(0, size, _RECORD_BLOCK)):
            part = records[start : start + _RECORD_BLOCK]
            assert block == "".join("3,0.5," + ref.csv_row(rec) + "\n" for rec in part)
        assert blocks[2] == "3,0.5,0,0,0,0,0,00000000,00000000\n" * _RECORD_BLOCK

    @given(sizes=st.lists(st.integers(0, 5), max_size=6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_concat_records_equals_np_concatenate(self, sizes, seed):
        """Joining records as raw bytes gives the bytes and dtype of np.concatenate; no part gives no record."""
        rng = np.random.default_rng(seed)
        parts = []
        for size in sizes:
            part = np.empty(size, dtype=RECORD_DTYPE)
            part.view(np.uint8)[:] = rng.integers(0, 256, part.nbytes, dtype=np.uint8)
            parts.append(part[::-1])  # a strided view joins like a copy
        got = concat_records(parts)
        want = np.concatenate(parts) if parts else np.empty(0, dtype=RECORD_DTYPE)
        assert (got.dtype, got.shape) == (RECORD_DTYPE, want.shape)
        assert got.tobytes() == want.tobytes()


class TestUniformity:
    def test_element_and_bit_selection_roughly_uniform(self):
        # smaller companion to the acceptance chi-square: frequency sanity
        spec = FaultSpec(mode="layer", target=0, fault="bit_flip_random", probability=1.0, seed=99)
        t = np.zeros(50, dtype=F)
        stream = derive_stream(99, 0, 0, 0)
        elements = np.zeros(50, dtype=int)
        bits = np.zeros(32, dtype=int)
        n = 20_000
        for _ in range(n):
            _, records = maybe_inject(t, spec, stream)
            elements[records[0].element] += 1
            bits[records[0].bit] += 1
        assert elements.min() > (n / 50) * 0.7 and elements.max() < (n / 50) * 1.3
        assert bits.min() > (n / 32) * 0.7 and bits.max() < (n / 32) * 1.3


U64 = st.one_of(st.just(U64_MAX), st.just(0), st.integers(0, U64_MAX))


class TestAgainstReference:
    """Both injectors equal the independent reference on random inputs."""

    @given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           samples=st.lists(U64, min_size=1, max_size=6, unique=True),
           fault=st.sampled_from(FAULT_KINDS), bit=st.integers(0, 31),
           probability=st.sampled_from([0.0, 0.3, 1.0]),
           seed=U64, trial=U64, site=U64, values=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_injectors_equal_reference(self, shape, samples, fault, bit, probability, seed, trial, site, values):
        bit = bit if fault == "bit_flip_specific" else None
        spec = FaultSpec(mode="layer", target=0, fault=fault, probability=probability, seed=seed, bit=bit)
        # any bit pattern, NaNs and infinities included
        acts = np.random.default_rng(values).integers(0, 2**32, size=(len(samples), *shape), dtype=np.uint32).view(F)
        ids = np.array(samples, dtype=np.uint64)
        want = [ref.inject(acts[i], fault, bit, probability, seed, trial, s, site) for i, s in enumerate(samples)]

        rows, records, u = inject_batch(acts, spec, draw_words(seed, trial, ids, site), trial, ids, site)
        hits = [w for w in want if w[2] is not None]
        assert rows.shape == records.shape == u.shape == (len(hits),)
        assert rows.tolist() == [i for i, w in enumerate(want) if w[2] is not None]
        for row, record, u_i, (want_u, want_out, want_rec) in zip(ref.corrupted_rows(acts, rows, records), records,
                                                                   u, hits):
            assert_bits_equal(row, want_out)
            assert tuple(int(record[name]) for name in RECORD_DTYPE.names) == want_rec
            assert float(u_i) == want_u

        for i, s in enumerate(samples):
            _, want_out, want_rec = want[i]
            out, recs = maybe_inject(acts[i], spec, derive_stream(seed, trial, s, site))
            assert_bits_equal(out, want_out)
            assert [dataclasses.astuple(r) for r in recs] == ([want_rec] if want_rec else [])
            # corrupt_element on a fresh stream takes word 0 as its material
            w0, w1, _ = ref.stream_words(seed, trial, s, site)
            index = ref.element(w1, acts[i].size)
            out, rec = corrupt_element(acts[i], index, fault, derive_stream(seed, trial, s, site), bit)
            want_out, applied = ref.corrupt(acts[i], index, fault, bit, w0)
            assert_bits_equal(out, want_out)
            assert dataclasses.astuple(rec) == (trial, s, site, index, *applied)

    @given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           samples=st.lists(U64, min_size=1, max_size=6, unique=True),
           trials=st.lists(U64, min_size=1, max_size=4, unique=True),
           fault=st.sampled_from(FAULT_KINDS), bit=st.integers(0, 31),
           probability=st.sampled_from([0.0, 0.3, 1.0]), seed=U64, site=U64, values=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_trial_axis_equals_one_call_per_trial(self, shape, samples, trials, fault, bit, probability, seed,
                                                   site, values):
        """Several trials' words in one draw, injected in one call, equal one draw and one call per trial."""
        bit = bit if fault == "bit_flip_specific" else None
        spec = FaultSpec(mode="layer", target=0, fault=fault, probability=probability, seed=seed, bit=bit)
        acts = np.random.default_rng(values).integers(0, 2**32, size=(len(samples), *shape), dtype=np.uint32).view(F)
        ids = np.array(samples, dtype=np.uint64)
        words = draw_words(seed, trials, ids, site)
        assert words.shape == (len(trials), len(samples), 4)
        per_trial = [inject_batch(acts, spec, draw_words(seed, t, ids, site), t, ids, site) for t in trials]
        for k, t in enumerate(trials):
            assert np.array_equal(words[k], draw_words(seed, t, ids, site))
        rows, records, u = inject_batch(acts, spec, words, trials, ids, site)
        assert rows.tobytes() == np.concatenate([r for r, _, _ in per_trial]).tobytes()
        assert records.tobytes() == np.concatenate([r for _, r, _ in per_trial]).tobytes()
        assert u.tobytes() == np.concatenate([x for _, _, x in per_trial]).tobytes()
        with pytest.raises(ValidationError, match="trial"):
            draw_words(seed, [*trials, -1], ids, site)

    @given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           streams=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 2**20),
                                      st.sampled_from([0.0, 0.3, 0.6, 1.0])), min_size=1, max_size=8),
           fault=st.sampled_from(FAULT_KINDS), bit=st.integers(0, 31), seed=U64, site=U64,
           values=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_a_trial_and_probability_per_row_equal_one_call_per_row(self, shape, streams, fault, bit, seed, site,
                                                                     values):
        """(rows, 4) words with a trial and a probability for each row equal one call per row at its probability."""
        bit = bit if fault == "bit_flip_specific" else None
        spec = FaultSpec(mode="op", target=("Add",), fault=fault, probability=1.0, seed=seed, bit=bit)
        acts = np.random.default_rng(values).integers(0, 2**32, size=(len(streams), *shape), dtype=np.uint32).view(F)
        trials, samples, probabilities = (np.array(column) for column in zip(*streams))
        words = np.stack([draw_words(seed, t, [s], site)[0] for t, s, _ in streams])
        rows, records, u = inject_batch(acts, spec, words, trials, samples, site, probabilities)
        want = [inject_batch(acts[i : i + 1], dataclasses.replace(spec, probability=p), words[i : i + 1], t, [s], site)
                for i, (t, s, p) in enumerate(streams)]
        assert rows.tolist() == [i for i, (r, _, _) in enumerate(want) if r.size]
        assert records.tobytes() == np.concatenate([r for _, r, _ in want]).tobytes()
        assert u.tobytes() == np.concatenate([x for _, _, x in want]).tobytes()
