"""Counter-based random streams with splittable sub-streams.

Streams are numpy Generators backed by Philox, a counter-based bit
generator.  Sub-streams are derived by mixing the base seed with a
structured index through a SplitMix64-style finalizer, so any (seed,
index...) pair names the same stream regardless of the order in which
streams are created or consumed.

Multinomial counts come from numpy's ``Generator.multinomial``, which draws
them by sequential conditional binomials.  ``tests/test_rng.py`` keeps that
algorithm as a Python reference loop and checks the counts, and the stream
state after each draw, against it bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_key(seed: int, *indices: int) -> int:
    """64-bit sub-stream key: seed xor-folded with each mixed index."""
    key = seed & _MASK64
    for idx in indices:
        key = _mix64(key ^ _mix64((idx + 1) * _GOLDEN))
    return key


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Generator for the sub-stream named by (seed, indices...)."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *indices)))


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
