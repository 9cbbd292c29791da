"""Multinomial sampling of a trajectory and estimators on the sampled model.

At each grid instant the continuous distribution is observed through n
independent categorical draws; the empirical frequencies at two adjacent
instants feed a discretised Fisher information

    ghat = sum_mu s_mu * ((phat_hi - phat_lo) / dt)^2,
    s_mu = 2 / (phat_hi + phat_lo)   (term contributes 0 when both vanish)

and the per-variant information rates s_mu * (phat_hi - phat_lo) / dt.
The estimators take a frequency series phat of shape (..., K, M), such as
counts / n or a filtered series, and return one value (or one row of
rates) per interval k = 0..K-2 between instants k and k+1.  Clustered
estimates are these estimators on the cluster sums aggregate(counts, f) / n,
whose counts are summed as integers, exactly.

``monte_carlo_components`` is the Monte Carlo driver.  Replication r has
the seed derive_key(seed, r) and draws a 1-D p under that key, or row k of
a (K, M) p under derive_key(seed, r, k).  It draws chunks of about
CHUNK_COUNTS counts, at least one replication, and passes each whole chunk
to the estimator.  Rows are pure functions of their keys, so results do not
depend on the chunk size; the chunks only bound memory.  It returns a
``MonteCarloEstimate``, the four statistics that end every Monte Carlo table
(mean, SE of the mean, sample variance, SE of the variance); the tables add
only the closed-form mean and variance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import rng
from .clustering import aggregate  # noqa: F401  perfbench tests pin sampling.aggregate

# Counts drawn per chunk of replications.  On the mc-timegrid benchmark
# workload (2-core machine, numpy 2.4.6), one unchunked block raised peak
# RSS from 40.2 to 46.7 MB; chunks of 2**14 counts ran at the same speed.
CHUNK_COUNTS = 1 << 14


class MonteCarloError(RuntimeError):
    pass


class MonteCarloEstimate(NamedTuple):
    """Mean, its standard error, sample variance and the variance's standard
    error of an estimator over replications: scalars for a scalar estimator,
    arrays for a vector one."""

    mean: np.ndarray
    se: np.ndarray
    var: np.ndarray
    var_se: np.ndarray


def _rate_weights(p_lo: np.ndarray, p_hi: np.ndarray) -> np.ndarray:
    total = p_lo + p_hi
    return np.divide(2.0, total, out=np.zeros_like(total), where=total > 0)


def fisher_hat(phat: np.ndarray, dt: float) -> np.ndarray:
    """Sampled Fisher information of every interval, shape (..., K-1)."""
    phat = np.asarray(phat, dtype=float)  # the in-place steps need floats
    p_lo, p_hi = phat[..., :-1, :], phat[..., 1:, :]
    s = _rate_weights(p_lo, p_hi)
    diff = p_hi - p_lo
    diff /= dt
    s *= diff
    s *= diff
    return np.sum(s, axis=-1)


def info_rate_hat(phat: np.ndarray, dt: float) -> np.ndarray:
    """Sampled per-variant information rates, shape (..., K-1, variants)."""
    phat = np.asarray(phat, dtype=float)  # the in-place steps need floats
    p_lo, p_hi = phat[..., :-1, :], phat[..., 1:, :]
    rates = _rate_weights(p_lo, p_hi)
    rates *= p_hi - p_lo
    rates /= dt
    return rates


def _values(estimator, p: np.ndarray, n: int, seed: int, reps: np.ndarray) -> np.ndarray:
    """Estimator values of replications `reps`, drawn as one block; raises
    ValueError for a value that is not finite."""
    if p.ndim == 1:
        keys = rng.derive_key(seed, reps)
    else:
        keys = rng.derive_key(seed, reps[:, None], np.arange(len(p), dtype=np.uint64))
    values = np.asarray(estimator(rng.sample_block(p, n, keys)), dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"non-finite value {values[~finite][0]}")
    return values


def monte_carlo_components(estimator, replications: int, seed: int, p, n: int) -> MonteCarloEstimate:
    """Monte Carlo summary, component by component, of a vectorised estimator.

    Replication r = 0..R-1 draws n-sample multinomial counts from p (see the
    module docstring for its keys).  ``estimator`` maps a chunk of counts of
    shape (C, M) for a 1-D p, or (C, K, M) for a (K, M) p, to C values or C
    rows of values.  The summary reduces the (R,) or (R, J) values along the
    replications, each component on its own, so that component j equals the
    summary of the same estimator reduced to column j; it depends only on
    (estimator, replications, seed, p, n).

    With s the sample std of the R values, the variance is s * s, the
    correctly rounded square, and its SE is sqrt((m4 - s^4 (R-3)/(R-1)) / R),
    with m4 the fourth central moment (the mean of (value - mean)^4): the
    estimate of Var(s^2) = (mu4 - sigma^4 (R-3)/(R-1)) / R, which holds for
    any distribution with a fourth moment, not only for normal data.
    The first replication whose draw or estimator raises, or whose value is
    not finite, raises MonteCarloError naming it and its seed.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications")
    p = np.asarray(p, dtype=float)
    size = max(1, CHUNK_COUNTS // p.size)
    chunks = []
    for start in range(0, replications, size):
        reps = np.arange(start, min(start + size, replications), dtype=np.uint64)
        try:
            chunks.append(_values(estimator, p, n, seed, reps))
        except Exception:
            # replay the chunk one replication at a time, so that the one named
            # does not depend on the chunk size
            for r in reps.tolist():
                try:
                    _values(estimator, p, n, seed, np.array([r], dtype=np.uint64))
                except Exception as exc:
                    raise MonteCarloError(f"replication {r} (seed {rng.derive_key(seed, r)}) "
                                          f"failed: {exc}") from exc
            raise
    # one contiguous row per component, reduced as that component alone
    values = np.ascontiguousarray(np.moveaxis(np.concatenate(chunks), 0, -1))
    mean, std = values.mean(axis=-1), values.std(axis=-1, ddof=1)
    values -= mean[..., None]
    values *= values
    values *= values
    m4 = values.mean(axis=-1)
    var = std * std
    var_se = np.sqrt((m4 - var * var * (replications - 3) / (replications - 1)) / replications)
    return MonteCarloEstimate(mean, std / np.sqrt(replications), var, var_se)
