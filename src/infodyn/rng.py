"""Counter-based random streams with splittable sub-streams.

Streams are numpy Generators backed by Philox, a counter-based bit
generator.  Sub-streams are derived by mixing the base seed with a
structured index through a SplitMix64-style finalizer, so any (seed,
index...) pair names the same stream regardless of the order in which
streams are created or consumed.  Indices fold in one at a time, so
derive_key(seed, r, k) == derive_key(derive_key(seed, r), k), and index
arrays broadcast into tables of keys.  ``sample_block`` draws one row per
key, each equal to a draw from a fresh stream with that key: any row can be
reproduced alone, and slices of the keys give slices of the block.

Multinomial counts come from numpy's ``Generator.multinomial``, which draws
them by sequential conditional binomials.  ``tests/test_rng.py`` keeps that
algorithm as a Python reference loop and checks the counts, and the stream
state after each draw, against it bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

_MASK64 = (1 << 64) - 1
# SplitMix64 constants (golden-ratio increment, one, the two multipliers, the
# three shifts, the mask), as Python ints for scalar keys and as uint64 for
# key arrays, so that no operation converts one kind into the other.
_INT_CONSTANTS = (0x9E3779B97F4A7C15, 1, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
                  30, 27, 31, _MASK64)
_UINT64_CONSTANTS = tuple(np.uint64(c) for c in _INT_CONSTANTS)


def _mix64(x, constants):
    """SplitMix64 finalizer: avalanche a 64-bit word.

    Works on a Python int below 2**64 with ``_INT_CONSTANTS`` and, element by
    element, on a uint64 array with ``_UINT64_CONSTANTS``, whose arithmetic
    wraps modulo 2**64 like the masked int arithmetic.

    Scalar keys keep the int path rather than going through numpy uint64
    scalars: numpy's scalar multiply wraps too, but warns "overflow
    encountered in scalar multiply" on the wrap-around the finalizer relies
    on (numpy 2.4), which the tests' ``filterwarnings = error`` turns into a
    failure.  Array arithmetic wraps without a warning.
    """
    _, _, mul1, mul2, shift1, shift2, shift3, mask = constants
    x = ((x ^ (x >> shift1)) * mul1) & mask
    x = ((x ^ (x >> shift2)) * mul2) & mask
    return x ^ (x >> shift3)


def derive_key(seed: int, *indices):
    """64-bit sub-stream key: seed xor-folded with each mixed index.

    An index may be a uint64 array; the result is then the array of the
    keys of its elements.  Keys of scalar indices are Python ints.
    """
    key = seed & _MASK64
    for idx in indices:
        c = _UINT64_CONSTANTS if isinstance(idx, np.ndarray) else _INT_CONSTANTS
        golden, one, mask = c[0], c[1], c[-1]
        key = _mix64(key ^ _mix64(((idx + one) * golden) & mask, c), c)
    return key


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Generator for the sub-stream named by (seed, indices...)."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *indices)))


def sample_block(p: np.ndarray, n: int, keys) -> np.ndarray:
    """Multinomial counts of size n, one row per key: shape keys.shape + (M,).

    For a (K, M) p, keys has shape (..., K) and row [..., k] equals
    ``stream(key).multinomial(n, p[k])`` for key = keys[..., k].  A 1-D p is
    drawn under every key.  A sample size below 1, or of 2**63 or more,
    which numpy cannot draw, raises ValueError before anything is drawn,
    even for no keys; a negative, NaN or > 1 probability raises ValueError.

    Building a Philox costs several times a small draw, so one is re-keyed
    before each row instead: key, counter 0, empty buffer, exactly the state
    a fresh stream starts in.  The Generator keeps no other state that
    affects a draw.  The state dict holds lists of Python ints, not uint64
    arrays, because numpy's state setter reads ints faster: about 0.8-1.0 us
    per re-keying against 1.8-2.4 us for arrays, where the 10-category draw
    itself costs about 2.9 us (numpy 2.4.6, one core of a 2-core x86-64
    host).  Rows are written into one preallocated array: collecting them in a
    list and stacking once is about 0.1 us per row faster at M = 10, but
    holds a chunk of 2**14 counts twice (490 KB peak allocation against 200
    KB at M = 10, 254 against 135 KB at M = 1000).
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    if n >= 1 << 63:
        raise ValueError(f"sample size must be < 2**63, got {n}")
    keys = np.asarray(keys, dtype=np.uint64)
    rows = p.reshape(-1, p.shape[-1])
    if p.ndim != 1 and keys.shape[-1:] != p.shape[:1]:
        raise ValueError(f"keys of shape {keys.shape} do not match {len(p)} rows of p")
    key = [0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    gen = stream(0)
    bit_generator = gen.bit_generator
    counts = np.empty((keys.size, rows.shape[1]), dtype=np.int64)
    for i, (row_key, row) in enumerate(zip(keys.reshape(-1).tolist(), itertools.cycle(rows))):
        key[0] = row_key
        bit_generator.state = state
        counts[i] = gen.multinomial(n, row)
    return counts.reshape(keys.shape + rows.shape[1:])
