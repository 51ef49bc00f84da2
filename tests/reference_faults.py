"""Independent reference of the fault injectors, for the tests only.

It shares no code with `bitstorm.faults`.  The Philox4x64-10 words come from
`numpy.random.Philox`, and the uniform, element and fault rules are written
out on Python ints.  Both injectors, the batch `inject_batch` and the scalar
`maybe_inject` / `corrupt_element`, must match it bit for bit.

The stream of (seed, trial, sample, site) is keyed (seed, KEY_SALT); its
block b has the 256-bit counter b + trial * 2**64 + sample * 2**128 +
site * 2**192.  Its words 0, 1 and 2 are the Bernoulli uniform, the element
and the fault material of the sample's one possible injection.
"""

import math

import numpy as np

KEY_SALT = 0x42495453544F524D  # "BITSTORM" in ASCII
NO_BIT = -1
_WORD = 2**64


def stream_words(seed, trial, sample, site, count=3):
    """The first `count` words of the (trial, sample, site) stream, as Python ints."""
    counter = trial * _WORD + sample * _WORD**2 + site * _WORD**3
    # numpy's Philox increments its 256-bit counter before it makes a block
    before = (counter - 1) % _WORD**4
    limbs = np.array([(before >> (64 * i)) % _WORD for i in range(4)], dtype=np.uint64)
    generator = np.random.Philox(counter=limbs, key=np.array([seed, KEY_SALT], dtype=np.uint64))
    return [int(w) for w in generator.random_raw(count)]


def uniform(word):
    """The Bernoulli uniform in [0, 1): the top 53 bits of a word."""
    return math.ldexp(word >> 11, -53)


def element(word, size):
    """The flat element a word selects among `size`."""
    return word % size


def fault(kind, bit, original, material):
    """(corrupted u32 pattern, bit column) of one hit element."""
    if kind == "zero":
        return 0, NO_BIT
    if kind == "random_value":
        return material % 2**32, NO_BIT
    if kind == "bit_flip_random":
        bit = material & 31
    elif kind != "bit_flip_specific":
        raise ValueError(f"unknown fault kind {kind!r}")
    return original ^ (1 << bit), bit


def corrupt(tensor, index, kind, bit, material):
    """A float32 copy of `tensor` with flat element `index` corrupted, and (bit, original, corrupted)."""
    out = np.array(tensor, dtype=np.float32)
    flat = out.reshape(-1).view(np.uint32)
    original = int(flat[index])
    corrupted, bit = fault(kind, bit, original, material)
    flat[index] = corrupted
    return out, (bit, original, corrupted)


def corrupted_rows(acts, rows, records):
    """Float32 copies of acts[rows[i]], each with records[i]'s corrupted pattern at its flat element.

    `inject_batch` returns the row index and the record of each hit, not a
    corrupted copy; the tests rebuild the copies here.
    """
    out = np.array(np.asarray(acts, dtype=np.float32)[np.asarray(rows, dtype=np.intp)])
    flat = out.reshape(out.shape[0], math.prod(out.shape[1:])).view(np.uint32)
    flat[np.arange(out.shape[0]), records["element"].astype(np.intp)] = records["corrupted"]
    return out


def inject(tensor, kind, bit, probability, seed, trial, sample, site):
    """One sample's injection: (u, out, record).

    u is the sample's Bernoulli uniform; out is a float32 copy of `tensor`,
    corrupted iff u < probability; record is then the (trial, sample, site,
    element, bit, original, corrupted) tuple, else None.
    """
    w0, w1, w2 = stream_words(seed, trial, sample, site)
    u = uniform(w0)
    if not u < probability:
        return u, np.array(tensor, dtype=np.float32), None
    index = element(w1, np.asarray(tensor).size)
    out, applied = corrupt(tensor, index, kind, bit, w2)
    return u, out, (trial, sample, site, index, *applied)


def csv_row(record):
    """The injector CSV row of one (trial, sample, site, element, bit, original, corrupted) record."""
    trial, sample, site, index, bit, original, corrupted = (int(v) for v in record)
    return f"{trial},{sample},{site},{index},{bit},{original:08x},{corrupted:08x}"
