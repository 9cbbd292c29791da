"""Closed-form predictions for the sampled estimators.

The large-n laws of the paper, and the exact finite-n moments where they
are known (``distance_moments``, ``fisher_null_mean``).  Pure formula
evaluators, used as oracles by the test suite and the experiment runner.
Values are returned raw, without clamping or smoothing; callers pick their
own comparison tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .simplex import require_interior, require_probabilities


def distance_moments(p, n: int):
    """Exact mean and variance of the squared sampling distance
    D = sum((x/n - p)^2 / p) of n multinomial draws x from an interior p of
    shape (..., N+1): one mean and one variance per row, two arrays of shape
    p.shape[:-1], elementwise like fisher_prediction and info_rate_moments.

    D is Pearson's statistic X^2 divided by n, whose first two moments are
    known for every n >= 1, so

        E[D] = N/n,
        Var[D] = 2N/n^2 + (sum(1/p) - (N+1)^2 - 2(N+1) + 2)/n^3.

    The n^-3 term is what the large-n variance 2N/n^2 leaves out.
    """
    p = require_interior(p)
    if p.shape[-1] < 2 or n < 1:
        raise ValueError(f"need at least 2 categories and n >= 1, got {p.shape[-1]} and {n}")
    N = p.shape[-1] - 1
    correction = np.sum(1.0 / p, axis=-1) - (N + 1) ** 2 - 2 * (N + 1) + 2
    var = 2.0 * N / n**2 + correction / n**3
    return np.full_like(var, N / n), var


def fisher_bias(N: int, n: int, dt: float) -> float:
    """Universal leading bias 2N/(n dt^2) of the sampled Fisher information."""
    return 2.0 * N / (n * dt**2)


def fisher_prediction(g_tt, N: int, n: int, dt: float):
    """Leading mean and variance of the sampled Fisher information,
    elementwise in g_tt.

    The clustered estimator into ell clusters follows the same law with the
    clustered information g_f in place of g_tt and N = ell - 1.  A negative
    g_tt, the one input that can make the variance negative, raises
    ValueError.
    """
    g_tt = np.asarray(g_tt, dtype=float)
    if np.any(g_tt < 0):
        raise ValueError(f"Fisher information g_tt must be >= 0, got {g_tt.min()}")
    return g_tt + fisher_bias(N, n, dt), 8.0 * g_tt / (n * dt**2) + 8.0 * N / (n**2 * dt**4)


def fisher_null_mean(p, n: int, dt: float) -> np.ndarray:
    """Exact mean of the sampled Fisher information of a constant model,

        E[ghat] = 4 (N - sum_mu (1 - p_mu)^(2n)) / ((2n - 1) dt^2),

    at every n >= 1, one value per row of a p of shape (..., N+1) whose
    entries lie in [0, 1] and whose rows are distributions.

    Derivation.  Both instants draw n counts, X and Y, from the same p.  Let
    c_mu = X_mu + Y_mu be the count of variant mu pooled over the two
    instants.  Given the pooled counts, Y_mu is hypergeometric (n draws
    from 2n), so E[(Y_mu - X_mu)^2 | c] = c_mu (2n - c_mu)/(2n - 1), and the
    estimator term 2 (Y_mu - X_mu)^2 / (n c_mu dt^2) has the conditional
    mean 2 (2n - c_mu)/(n (2n - 1) dt^2) for c_mu > 0, and 0 for c_mu = 0.
    The pooled counts sum to 2n, so over mu

        E[ghat | c] = 4 (M' - 1)/((2n - 1) dt^2),   M' = #{mu : c_mu > 0},

    and E[M'] = sum_mu (1 - (1 - p_mu)^(2n)) gives the result.  Here
    ghat n dt^2 / 2 is Pearson's chi^2 statistic of homogeneity of the 2 x M
    table of the two instants' counts, whose conditional moments given the
    margins are Haldane's (1940, Biometrika 31, 346).

    Where every n p_mu >> 1 the (1 - p_mu)^(2n) terms vanish and
    4N/(2n - 1) = 2N/n + N/n^2 + ..., the large-n bias ``fisher_bias`` and
    its n^-2 term.  Where many variants go unseen the mean falls far below
    2N/(n dt^2): the unseen ones add nothing.  A component with p_mu = 0 adds
    1 to N and 1 to the sum, so it changes nothing; a point mass gives 0.

    Each 1 - (1 - p_mu)^(2n) is evaluated as -expm1(2n log1p(-p_mu)), so that
    tiny p_mu keep their precision at large n.  Raises ValueError for n < 1,
    a dt that is not positive and finite, or an entry of p outside [0, 1],
    naming its index.
    """
    if n < 1:
        raise ValueError(f"sample size n must be >= 1, got {n}")
    if not dt > 0:
        raise ValueError(f"time step dt must be > 0, got {dt}")
    if not math.isfinite(dt):
        raise ValueError(f"time step dt must be finite, got {dt}")
    p = require_probabilities(p)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: p_mu = 1 is always seen
        seen = -np.expm1(2 * n * np.log1p(-p))
    return 4.0 * (np.sum(seen, axis=-1) - 1.0) / ((2 * n - 1) * dt**2)


def info_rate_moments(i_rate, p_mu, n: int, dt: float):
    """Leading mean and variance of a sampled information rate, elementwise.

    mean = rate * (1 + 1/(2n)), var = ((2/dt^2) * (1-p)/p - rate^2) / n.
    """
    i_rate = np.asarray(i_rate, dtype=float)
    p_mu = np.asarray(p_mu, dtype=float)
    return i_rate * (1.0 + 0.5 / n), ((2.0 / dt**2) * (1.0 - p_mu) / p_mu - i_rate**2) / n
