"""Fault models and deterministic random selection of sites, elements, bits.

Random streams come from Philox4x64-10, a counter-based generator with
platform-independent output.  Stream keying is collision-free by
construction: the 256-bit counter is laid out as

    (block_index, trial, sample, site)

with the 64-bit master seed as the key, so distinct (trial, sample, site)
tuples own disjoint counter ranges for any realistic number of draws.

Draw discipline per `maybe_inject` call (fixed, outcome-independent):

    word 0 -> Bernoulli uniform        (inject or not)
    word 1 -> flat element index       (modulo the element count)
    word 2 -> fault material           (bit index or replacement pattern)

All three words are consumed on every call, so per-call draw counts are
constant and later records never depend on earlier Bernoulli outcomes.

Campaigns inject through `inject_batch`, which applies the words of many
samples at once.  It copies no row: it returns the row index and the
record of each hit, and a caller writes `records["corrupted"]` where it
needs the corrupted tensor (in place into a fresh op output, or into
copies of only the distinct corrupted rows of a layer-wise window).  The
fault rule itself (the pattern each fault kind writes and the bit it
records) lives in `fault_patterns` alone, which both `inject_batch` and
the scalar `corrupt_element` call, and `uniforms` alone turns word 0 into
the Bernoulli uniform.  The tests check both injectors against an
independent oracle, `tests/reference_faults.py`, built on
`numpy.random.Philox` and Python integers.

`records_to_rows` turns records into the lines of records.csv a block of
`_RECORD_BLOCK` records at a time: each block is one string of whole lines,
formatted from the record columns by numpy with no Python code per record.
Narrower values leave NUL bytes in a block's byte matrix, and dropping them
is safe because no byte of a CSV line can be NUL: the fields are decimal
digits, a minus sign and hex digits, and the prefix is a target label and a
probability.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .microops import INJECTABLE_KINDS

RNG_ALGORITHM = "philox4x64-10"

FAULT_KINDS = ("zero", "random_value", "bit_flip_random", "bit_flip_specific")

#: Bit column value for faults that do not flip a bit (zero, random_value).
NO_BIT = -1

RECORD_DTYPE = np.dtype(
    [
        ("trial", "<u8"),
        ("sample", "<u8"),
        ("site", "<u8"),
        ("element", "<u8"),
        ("bit", "<i4"),
        ("original", "<u4"),
        ("corrupted", "<u4"),
    ]
)


# ---------------------------------------------------------------------------
# Parameter rules: the one check of each fault parameter, wherever it enters
# ---------------------------------------------------------------------------


def check_int(value, what: str, lo: int, hi: int | None = None) -> int:
    """`value` as an int if it is an integer (not a bool) in lo..hi, else ValidationError."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < lo or (hi is not None and value > hi)):
        bound = f"at least {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValidationError(f"{what} must be an integer {bound}, got {value!r}")
    return int(value)


def check_u64(value, what: str) -> int:
    return check_int(value, what, 0, 2**64 - 1)


def check_mode(mode) -> None:
    if mode not in ("op", "layer"):
        raise ValidationError(f"mode must be 'op' or 'layer', got {mode!r}")


def check_fault(fault, bit) -> int | None:
    """Checks the fault kind and returns its bit: an index in 0..31 for bit_flip_specific, else None."""
    if fault not in FAULT_KINDS:
        raise ValidationError(f"unknown fault kind {fault!r}; expected one of {FAULT_KINDS}")
    if fault == "bit_flip_specific":
        return check_int(bit, "the bit of bit_flip_specific", 0, 31)
    if bit is not None:
        raise ValidationError(f"fault kind {fault!r} does not take a bit index")
    return None


def check_probability(p) -> float:
    if not isinstance(p, numbers.Real) or isinstance(p, bool) or not 0.0 <= p <= 1.0:
        raise ValidationError(f"probability {p!r} outside [0, 1]")
    return float(p)


def check_op_kinds(kinds) -> tuple:
    kinds = tuple(kinds)
    if not kinds:
        raise ValidationError("operation-wise target must name at least one op kind")
    unknown = [k for k in kinds if k not in INJECTABLE_KINDS]
    if unknown:
        raise ValidationError(f"unknown op kinds {unknown}; expected among {list(INJECTABLE_KINDS)}")
    return kinds


# ---------------------------------------------------------------------------
# Philox4x64-10
# ---------------------------------------------------------------------------

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Second key word; the first is the user's master seed.
KEY_SALT = np.uint64(0x42495453544F524D)


def _mulhilo(a: np.uint64, b: np.ndarray):
    """64x64 -> 128 bit multiply via 32-bit limbs; returns (hi, lo)."""
    lo = a * b  # wraps mod 2**64
    al = a & _MASK32
    ah = a >> _SHIFT32
    bl = b & _MASK32
    bh = b >> _SHIFT32
    t = al * bh + ((al * bl) >> _SHIFT32)
    t2 = ah * bl + (t & _MASK32)
    hi = ah * bh + (t >> _SHIFT32) + (t2 >> _SHIFT32)
    return hi, lo


def philox_block(counters: np.ndarray, key0: np.uint64, key1: np.uint64) -> np.ndarray:
    """Run Philox4x64-10 on an (n, 4) array of counters; returns (n, 4) words."""
    counters = np.ascontiguousarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x0 = counters[:, 0].copy()
        x1 = counters[:, 1].copy()
        x2 = counters[:, 2].copy()
        x3 = counters[:, 3].copy()
        k0 = np.uint64(key0)
        k1 = np.uint64(key1)
        for r in range(10):
            if r:
                k0 = k0 + _W0
                k1 = k1 + _W1
            hi0, lo0 = _mulhilo(_M0, x0)
            hi1, lo1 = _mulhilo(_M1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack([x0, x1, x2, x3], axis=1)


class PhiloxStream:
    """A buffered, value-like stream of 64-bit words for one (trial, sample, site).

    Not thread-safe; each stream is confined to one trial worker.
    """

    __slots__ = ("seed", "trial", "sample", "site", "_next_block", "_buffer", "_pos", "_chunk")

    def __init__(self, seed: int, trial: int, sample: int, site: int):
        self.seed = check_u64(seed, "seed")
        self.trial = check_u64(trial, "trial")
        self.sample = check_u64(sample, "sample")
        self.site = check_u64(site, "site")
        self._next_block = 0
        self._buffer = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self._chunk = 8

    def _refill(self):
        n = self._chunk
        self._chunk = min(self._chunk * 2, 1 << 14)
        counters = np.empty((n, 4), dtype=np.uint64)
        counters[:, 0] = np.arange(self._next_block, self._next_block + n, dtype=np.uint64)
        counters[:, 1] = self.trial
        counters[:, 2] = self.sample
        counters[:, 3] = self.site
        self._next_block += n
        self._buffer = philox_block(counters, np.uint64(self.seed), KEY_SALT).reshape(-1)
        self._pos = 0

    def next_u64(self) -> int:
        if self._pos >= self._buffer.size:
            self._refill()
        word = int(self._buffer[self._pos])
        self._pos += 1
        return word

    def uniform(self) -> float:
        """Uniform float64 in [0, 1) from the top 53 bits of one word."""
        return uniforms(self.next_u64())

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by 64-bit modulo (bias < n * 2**-64)."""
        return self.next_u64() % n


def derive_stream(seed: int, trial: int, sample: int, site: int) -> PhiloxStream:
    """Deterministic stream for one (seed, trial, sample, site) tuple."""
    return PhiloxStream(seed, trial, sample, site)


# ---------------------------------------------------------------------------
# Fault specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """What to corrupt, how, with what probability, under which seed."""

    mode: str  # "op" (operation-wise) or "layer" (layer-wise)
    target: object  # tuple of micro-op kinds for "op", layer index for "layer"
    fault: str  # one of FAULT_KINDS
    probability: float
    seed: int
    bit: int | None = None  # required iff fault == "bit_flip_specific"

    def __post_init__(self):
        check_mode(self.mode)
        check_fault(self.fault, self.bit)
        check_probability(self.probability)
        check_u64(self.seed, "seed")
        if self.mode == "op":
            object.__setattr__(self, "target", check_op_kinds(self.target))
        else:
            object.__setattr__(self, "target", check_int(self.target, "layer index", 0))


@dataclass(frozen=True)
class InjectionRecord:
    trial: int
    sample: int
    site: int
    element: int
    bit: int  # NO_BIT for zero / random_value faults
    original: int  # u32 bit pattern before corruption
    corrupted: int  # u32 bit pattern after corruption


# ---------------------------------------------------------------------------
# Fault application
# ---------------------------------------------------------------------------


def flip_bit(value, bit):
    """Flip one bit of a binary32 value (or elementwise over arrays).

    Involution: flip_bit(flip_bit(v, k), k) is bit-identical to v.
    """
    bits = np.atleast_1d(np.asarray(bit))
    if bits.min() < 0 or bits.max() > 31:
        raise ValidationError(f"bit index must be in 0..31, got {bit}")
    arr = np.atleast_1d(np.asarray(value, dtype=np.float32))
    flipped = (arr.view(np.uint32) ^ (np.uint32(1) << bits.astype(np.uint32))).view(np.float32)
    if np.ndim(value) == 0 and np.ndim(bit) == 0:
        return np.float32(flipped[0])
    return flipped


def fault_patterns(fault: str, bit: int | None, original, material):
    """The fault rule: the corrupted u32 pattern and the bit column of a hit.

    `original` is the hit element's u32 pattern and `material` its word 2,
    both Python ints or both numpy integer arrays (one entry per hit); the
    same operators serve either.  `bit` is the bit of bit_flip_specific.
    Returns (corrupted, bit): zero writes +0.0, random_value the low 32 bits
    of the material, bit_flip_random flips bit material % 32 and
    bit_flip_specific flips `bit`.  The bit is NO_BIT for the faults that
    flip none.
    """
    if fault == "zero":
        return original & 0, NO_BIT
    if fault == "random_value":
        return material & 0xFFFFFFFF, NO_BIT
    if fault == "bit_flip_random":
        bit = material % 32
    return original ^ (1 << bit), bit


def corrupt_element(tensor: np.ndarray, index: int, kind: str, stream: PhiloxStream, specific_bit: int | None = None):
    """Corrupt one flat element of a copy of `tensor`.

    Always consumes exactly one word of fault material from the stream,
    whether or not the fault kind uses it.  Zero applied to a zero element
    and random_value drawing the original pattern are recorded as
    no-change (original == corrupted).
    """
    specific_bit = check_fault(kind, specific_bit)
    tensor = np.asarray(tensor, dtype=np.float32)
    index = int(index)
    if not 0 <= index < tensor.size:
        raise ValidationError(f"element index {index} out of range for {tensor.size} elements")
    material = stream.next_u64()
    out = tensor.copy()
    flat = out.reshape(-1).view(np.uint32)
    original = int(flat[index])
    corrupted, bit = fault_patterns(kind, specific_bit, original, material)
    flat[index] = corrupted
    record = InjectionRecord(
        trial=stream.trial,
        sample=stream.sample,
        site=stream.site,
        element=index,
        bit=bit,
        original=original,
        corrupted=corrupted,
    )
    return out, record


def maybe_inject(tensor: np.ndarray, spec: FaultSpec, stream: PhiloxStream):
    """One Bernoulli draw, then at most one corrupted element.

    Returns the (possibly replaced) tensor and the list of injection
    records.  The stream advances by exactly three words regardless of the
    outcome; with probability 0 the input tensor is returned bit-identical.
    """
    u = stream.uniform()
    element = stream.below(np.asarray(tensor).size)
    if u < spec.probability:
        out, record = corrupt_element(tensor, element, spec.fault, stream, spec.bit)
        return out, [record]
    stream.next_u64()  # keep per-call draw counts constant
    return tensor, []


def draw_words(seed: int, trial, sample_ids: np.ndarray, site: int) -> np.ndarray:
    """Block 0 of the (trial, sample, site) stream of every sample in `sample_ids`.

    `trial` is one trial id, or a 1-D sequence of them.  Returns a
    (len(sample_ids), 4) uint64 array for one trial and a (len(trial),
    len(sample_ids), 4) one for a sequence, from one Philox call either way.
    Words 0-2 are the draws of `maybe_inject` (uniform, element, material);
    callers draw each site's words once and slice them per chunk.
    """
    trials = [check_u64(t, "trial") for t in ([trial] if np.ndim(trial) == 0 else trial)]
    counters = np.zeros((len(trials), len(sample_ids), 4), dtype=np.uint64)
    counters[..., 1] = np.array(trials, dtype=np.uint64)[:, None]
    counters[..., 2] = np.asarray(sample_ids, dtype=np.uint64)
    counters[..., 3] = np.uint64(check_u64(site, "site"))
    words = philox_block(counters.reshape(-1, 4), np.uint64(check_u64(seed, "seed")), KEY_SALT)
    return words.reshape(counters.shape if np.ndim(trial) else counters.shape[1:])


def uniforms(word0):
    """The Bernoulli uniform in [0, 1) of word 0: its top 53 bits.

    `word0` is a Python int or a uint64 array; the result is a float or a
    float64 array, exact either way since 53 bits fit a float64.
    """
    return (word0 >> 11) * 2.0**-53


def inject_batch(acts: np.ndarray, spec: FaultSpec, words: np.ndarray, trial, sample_ids: np.ndarray, site: int):
    """Vectorized maybe_inject over a batch of per-sample tensors, for one trial or several.

    `acts` has shape (samples, *tensor shape) and is only read; `words` is
    draw_words(spec.seed, trial, sample_ids, site), or a slice of it that
    keeps one row of words per row of `acts`: words[..., i, :] is the stream
    of the sample in row i.  For several trials `trial` is their ids and the
    words' leading axis runs over them, so every trial injects into the same
    stored rows.  Bit-for-bit equivalent to calling maybe_inject with
    derive_stream(spec.seed, trial, sample, site) per (trial, sample).
    Returns (rows, records, u), one entry per (trial, sample) the fault hit,
    trial-major and in row order within a trial: rows[i] is the index in
    `acts` of the row that records[i] corrupts, and u[i] is the Bernoulli
    uniform that decided the hit.  The corrupted tensor is acts[rows[i]]
    with records[i]["corrupted"] written at its flat element; no row is
    copied here.  A sample is hit iff its u is below spec.probability, and
    its element and material do not depend on the probability: at any lower
    probability the faults are the records whose u is below it.
    """
    n_rows = acts.shape[0]
    n_elements = int(np.prod(acts.shape[1:]))
    words = words.reshape(-1, 4)
    u = uniforms(words[:, 0])
    hit = np.nonzero(u < spec.probability)[0]
    which, row = np.divmod(hit, n_rows)
    elements = words[hit, 1] % np.uint64(n_elements)
    material = words[hit, 2]

    # a same-size view and an index per axis read any strides without copying acts
    original = acts.view(np.uint32)[(row, *np.unravel_index(elements, acts.shape[1:]))]
    corrupted, bits = fault_patterns(spec.fault, spec.bit, original, material)

    records = np.empty(hit.size, dtype=RECORD_DTYPE)
    records["trial"] = np.asarray(trial, dtype=np.uint64).reshape(-1)[which]
    records["sample"] = np.asarray(sample_ids, dtype=np.uint64)[row]
    records["site"] = site
    records["element"] = elements
    records["bit"] = bits
    records["original"] = original
    records["corrupted"] = corrupted
    return row, records, u[hit]


def concat_records(parts) -> np.ndarray:
    """The RECORD_DTYPE arrays of `parts` end to end, as one array (empty for no parts).

    They are joined as unstructured bytes, which spares numpy a promotion of
    the record fields for every part; the bytes are those np.concatenate gives.
    """
    raw = np.dtype((np.void, RECORD_DTYPE.itemsize))
    return np.concatenate([np.empty(0, dtype=raw), *(p.view(raw) for p in parts)]).view(RECORD_DTYPE)


#: Records that `records_to_rows` formats as one block of lines: enough to
#: pay for its numpy calls, few enough that a block's scratch stays a few
#: hundred KiB however large the cell.
_RECORD_BLOCK = 2048

_TEN = np.uint64(10)
_POWERS_OF_TEN = 10 ** np.arange(19, 0, -1, dtype=np.uint64)  # 10**19 ... 10: a u64 has up to 20 digits
_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_NIBBLE_SHIFTS = np.arange(28, -1, -4, dtype=np.uint32)[:, None]
_ZERO, _COMMA, _MINUS, _NEWLINE = b"0,-\n"


def _decimal(values: np.ndarray) -> np.ndarray:
    """The decimal digits of uint64 `values` as a (width, n) byte matrix, one row per digit, leading zeros NUL.

    width is the digit count of the largest value; the units row is always
    a digit, so 0 is "0".
    """
    width = len(str(int(values.max())))
    digits = np.empty((width, values.size), dtype=np.uint8)
    rest = values
    for k in range(width - 1, -1, -1):
        quotient = rest // _TEN
        digits[k] = rest - quotient * _TEN
        rest = quotient
    digits += np.uint8(_ZERO)
    # a digit is a leading zero where the value is below its row's power of ten
    digits[:-1] *= values >= _POWERS_OF_TEN[_POWERS_OF_TEN.size - width + 1 :, None]
    return digits


def _hex8(values: np.ndarray) -> np.ndarray:
    """The eight lowercase hex digits of uint32 `values` as an (8, n) byte matrix."""
    return _HEX_DIGITS[(values >> _NIBBLE_SHIFTS) & np.uint32(0xF)]


def _line_matrix(block: np.ndarray, prefix: bytes) -> np.ndarray:
    """The injector CSV lines of a block of records, each `prefix` + row + newline, as a byte matrix.

    Column i holds line i, one row per character position, with NUL where a
    field is narrower than its rows.
    """
    bits = block["bit"].astype(np.int64)
    fields = [
        _decimal(block["trial"]),
        _decimal(block["sample"]),
        _decimal(block["site"]),
        _decimal(block["element"]),
        np.concatenate((np.where(bits < 0, np.uint8(_MINUS), np.uint8(0))[None],
                        _decimal(np.abs(bits).astype(np.uint64)))),
        _hex8(block["original"]),
        _hex8(block["corrupted"]),
    ]
    mat = np.empty((len(prefix) + sum(len(f) + 1 for f in fields), block.size), dtype=np.uint8)
    mat[: len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)[:, None]
    at = len(prefix)
    for field in fields:
        end = at + len(field)
        mat[at:end] = field
        mat[end] = _COMMA
        at = end + 1
    mat[-1] = _NEWLINE  # in place of the last field's comma
    return mat


def records_to_rows(records: np.ndarray, prefix: str):
    """Yield the injector CSV lines of a structured record array, one string per block of records.

    Each line is `prefix` + trial,sample,site,element,bit,original_hex,corrupted_hex
    + newline; a string holds the lines of `_RECORD_BLOCK` records (fewer in
    the last), so the lines of a large cell never all exist at once and no
    Python code runs per record.  Each block is one uint8 matrix built from
    whole record columns: a decimal field takes as many characters in every
    line as its largest value in the block has digits, right-aligned with
    its leading zeros NUL, and the NUL bytes are dropped at the end.  No
    CSV byte is NUL, the prefix's included, so dropping them leaves exactly
    the row text.
    """
    raw = prefix.encode("ascii")
    for start in range(0, records.size, _RECORD_BLOCK):
        # one expression holds no copy of the block past the text it yields
        yield (_line_matrix(records[start : start + _RECORD_BLOCK], raw)
               .T.tobytes().translate(None, b"\0").decode("ascii"))
