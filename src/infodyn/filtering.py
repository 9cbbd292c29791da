"""Gaussian pre-filtering of sampled frequency series.

Smoothing the empirical frequencies over neighbouring instants before
estimating information rates trades a small smoothing bias for a large
noise reduction.  Interior instants get the exact kernel; at the series
edges the kernel is truncated to the available offsets and renormalised,
which keeps every filtered row a valid distribution.
"""

from __future__ import annotations

import numpy as np

DEFAULT_HALF_WIDTH = 3
DEFAULT_SHAPE = 4.0 / 9.0


def gaussian_kernel() -> np.ndarray:
    """Normalised weights exp(-DEFAULT_SHAPE * k^2) for |k| <= DEFAULT_HALF_WIDTH."""
    k = np.arange(-DEFAULT_HALF_WIDTH, DEFAULT_HALF_WIDTH + 1)
    w = np.exp(-DEFAULT_SHAPE * k.astype(float) ** 2)
    return w / w.sum()


def filter_probs(series: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Convolve a (instants x variants) frequency series with the kernel."""
    series = np.atleast_2d(np.asarray(series, dtype=float))
    n_t = series.shape[0]
    if n_t < 1:
        raise ValueError("series must contain at least one instant")
    kernel = np.asarray(kernel, dtype=float)
    hw = (kernel.size - 1) // 2
    if kernel.size != 2 * hw + 1:
        raise ValueError("kernel length must be odd")
    out = np.empty_like(series)
    for t in range(n_t):
        lo = max(t - hw, 0)
        hi = min(t + hw, n_t - 1)
        w = kernel[lo - t + hw: hi - t + hw + 1]
        out[t] = w @ series[lo: hi + 1] / w.sum()
    return out

