"""Counter-based random streams with splittable sub-streams.

Streams are numpy Generators backed by Philox, a counter-based bit
generator.  Sub-streams are derived by mixing the base seed with a
structured index through a SplitMix64-style finalizer, so any (seed,
index...) pair names the same stream regardless of the order in which
streams are created or consumed.  ``sample_rows`` draws a whole matrix of
sub-streams (seed, k) from one Philox that it re-keys before each row.

Multinomial counts come from numpy's ``Generator.multinomial``, which draws
them by sequential conditional binomials.  ``tests/test_rng.py`` keeps that
algorithm as a Python reference loop and checks the counts, and the stream
state after each draw, against it bit for bit.
"""

from __future__ import annotations

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


def sample_rows(p: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Row k is ``sample_counts(p[k], n, stream(seed, k))``, for every row of p.

    Building a Philox costs several times a small draw, so the Philox of
    ``stream(seed)`` is re-keyed before each row instead, row 0 included:
    key derive_key(seed, k), counter 0, empty buffer, exactly the state
    ``stream(seed, k)`` starts in.  The Generator keeps no other state that
    affects a draw.
    """
    keys = derive_key(seed, np.arange(len(p), dtype=np.uint64))
    key = np.zeros(2, dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    gen = stream(seed)
    counts = np.empty(p.shape, dtype=np.int64)
    for k, row in enumerate(p):
        key[0] = keys[k]
        gen.bit_generator.state = state
        counts[k] = sample_counts(row, n, gen)
    return counts


def sample_counts(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """One multinomial draw of size n from p: ``rng.multinomial(n, p)``.

    numpy draws category mu as a binomial of the remaining trials with the
    renormalized probability p[mu] / (mass not yet drawn): the exact
    sequential conditional-binomial algorithm, O(M) per draw, pinned by the
    reference loop in the tests.  A negative, NaN or > 1 probability raises
    ValueError.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    return rng.multinomial(n, p)
