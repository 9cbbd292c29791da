"""Closed-form large-n predictions for the sampled estimators.

Pure formula evaluators, used as oracles by the test suite and the
experiment runner.  Values are returned raw, without clamping or
smoothing; callers pick their own comparison tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from .simplex import require_interior


def distance_moments(p, n: int):
    """Exact mean and variance of the squared sampling distance
    D = sum((x/n - p)^2 / p) of n multinomial draws x from an interior p of
    shape (..., N+1), one variance per row.

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
    return N / n, 2.0 * N / n**2 + correction / n**3


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


def fisher_bias_second_order(p, n: int, dt: float) -> np.ndarray:
    """Bias of a constant model through order n^-2: 2N/(n dt^2) + N/(n^2 dt^2),
    one value per row of an interior p of shape (..., N+1).

    Derivation.  Per component write the two sampled frequencies as
    x = p + a and y = p + b, with a and b independent, mean zero and
    variance p(1-p)/n.  Expanding the estimator term 2(b-a)^2/(2p+a+b) in
    a and b to fourth order and taking expectations with the binomial
    second, third and fourth moments gives

        2(1-p)/n + (1-p)/n^2 + O(n^-3),

    where the n^-2 coefficient collects -(1-p)(1-2p)/p from the third
    moment and (1-p)^2/p from the fourth.  Summing over the N+1
    components and dividing by dt^2 gives the result, whose n^-2 term
    N/(n^2 dt^2) does not depend on p.

    Scope.  This is the complete n^-2 term only when g_tt = 0 (a constant
    distribution across the two sampled instants).  For a time-varying
    model the n^-2 term has a further g_tt-dependent part, which is not
    derived and not included here.  ``exact_static_fisher_mean`` gives the
    exact expectation to check against.

    Range of validity.  The expansion needs n * min(p) >> 1.  For
    p = (0.946, 0.006 x 9) the ratio of the exact residual (exact mean
    minus 2N/(n dt^2)) to N/(n^2 dt^2) is -23.7 at n = 250, -1.44 at
    n = 500, 0.989 at n = 1000 and 1.00013 at n = 4000.
    """
    p = require_interior(p)
    N = p.shape[-1] - 1
    return np.zeros(p.shape[:-1]) + (fisher_bias(N, n, dt) + N / (n**2 * dt**2))


def exact_static_fisher_mean(p, n: int, dt: float) -> np.ndarray:
    """Exact expectation of the sampled Fisher information for a constant model.

    Both instants draw n counts from the same distribution p; a p of shape
    (..., N+1) gives one value per row.  Each component of the estimator
    depends only on that component's count pair, whose exact law is a
    product of two Binomial(n, p_mu) laws, so the expectation is a sum of
    per-component double sums, added in component order.  Counts whose
    binomial probability is below 1e-30 are left out; since each term is
    at most 2/dt^2, that changes a component's sum by less than
    4 (n + 1) 1e-30 / dt^2.  Components with p_mu = 0 or 1 contribute
    exactly zero.  Cost is the square of the kept support per component,
    roughly (25 sqrt(n p_mu (1 - p_mu)))^2.
    """
    if n < 1:
        raise ValueError(f"sample size n must be >= 1, got {n}")
    if not dt > 0:
        raise ValueError(f"time step dt must be > 0, got {dt}")
    ks = np.arange(n + 1)
    log_binom = np.array([math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                          for k in range(n + 1)])
    p = np.asarray(p, dtype=float)
    total = np.zeros(p.shape[:-1])
    for idx, p_mu in np.ndenumerate(p):
        if p_mu == 0.0 or p_mu == 1.0:
            continue
        w = np.exp(log_binom + ks * math.log(p_mu) + (n - ks) * math.log1p(-p_mu))
        keep = w >= 1e-30
        x = ks[keep] / n
        w = w[keep]
        tot = x[:, None] + x[None, :]
        vals = 2.0 * (x[:, None] - x[None, :]) ** 2 / np.where(tot > 0, tot, 1.0)
        total[idx[:-1]] += w @ vals @ w
    return total / dt**2


def info_rate_moments(i_rate, p_mu, n: int, dt: float):
    """Leading mean and variance of a sampled information rate, elementwise.

    mean = rate * (1 + 1/(2n)), var = ((2/dt^2) * (1-p)/p - rate^2) / n.
    """
    i_rate = np.asarray(i_rate, dtype=float)
    p_mu = np.asarray(p_mu, dtype=float)
    return i_rate * (1.0 + 0.5 / n), ((2.0 / dt**2) * (1.0 - p_mu) / p_mu - i_rate**2) / n
