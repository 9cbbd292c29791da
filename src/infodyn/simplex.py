"""Probability distributions on the simplex and their information geometry.

A distribution is a point of the (N+1)-simplex; a statistical model moves
such a point in time, and the squared Shahshahani norm of its velocity is
the Fisher information.  The geometry functions take float arrays of shape
(..., M) and reduce along the last axis, so one call evaluates a single
point or every row of a (T, M) table; each row gives, bit for bit, what it
gives alone.
"""

from __future__ import annotations

import numpy as np


def require_interior(p) -> np.ndarray:
    """p as a float array, every entry of which must be positive (the open
    simplex); raises ValueError naming the first entry that is not."""
    p = np.asarray(p, dtype=float)
    inside = p > 0.0
    if not inside.all():
        idx = np.unravel_index(np.argmin(inside), p.shape)
        where = int(idx[0]) if p.ndim == 1 else tuple(map(int, idx))
        raise ValueError(f"distribution is not interior: entry {p[idx]} at index {where}")
    return p


def _at(p, v) -> tuple[np.ndarray, np.ndarray]:
    """An interior p and a float array v over the same variants."""
    p = require_interior(p)
    v = np.asarray(v, dtype=float)
    if p.shape[-1:] != v.shape[-1:]:
        raise ValueError(f"size mismatch: {p.shape[-1]} vs {v.shape[-1]} variants")
    return p, v


def shahshahani_distance_sq(reference, point) -> np.ndarray:
    """Squared simplex distance sum((point - reference)^2 / reference).

    The metric is evaluated at ``reference``, which must be interior; the
    result is therefore not symmetric in its arguments away from
    coinciding points.  The two broadcast against each other, so one
    reference serves a (C, M) block of points.
    """
    reference, point = _at(reference, point)
    diff = point - reference
    return np.sum(diff * diff / reference, axis=-1)


def fisher_information(p, pdot) -> np.ndarray:
    """Squared Shahshahani norm of pdot at p: sum(pdot^2 / p)."""
    p, pdot = _at(p, pdot)
    return np.sum(pdot * pdot / p, axis=-1)


def self_information_rate(p, pdot) -> np.ndarray:
    """Logarithmic growth rate pdot/p per degree of freedom."""
    p, pdot = _at(p, pdot)
    return pdot / p
