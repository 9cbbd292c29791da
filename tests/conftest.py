import math

import numpy as np

from infodyn import clustering as cl
from infodyn.simplex import require_interior


def grid(t_end: float, step: float) -> np.ndarray:
    """The times 0, step, 2 step, ..., k step, up to the last not after t_end."""
    return np.arange(int(round(t_end / step)) + 1) * step


def infected(traj, rows=slice(None)) -> np.ndarray:
    """The infected fractions I = i0 exp(gamma X - epsilon t) at the rows of a
    trajectory, the closed form of each infected equation given X, the
    integral of S."""
    x = np.asarray(traj.cumulative_susceptible[rows])[..., None]
    t = np.asarray(traj.times[rows])[..., None]
    return traj.params.i0 * np.exp(traj.params.gamma * x - traj.params.epsilon * t)


def couplings(traj, rows=slice(None)) -> np.ndarray:
    """The per-variant growth rates d = gamma S - epsilon at the rows of a
    trajectory, each infected equation's I'/I."""
    s = np.asarray(traj.susceptible[rows])[..., None]
    return traj.params.gamma * s - traj.params.epsilon


def delta_g_coupling_form(p, d, f: cl.Clustering) -> np.ndarray:
    """Information loss as the cluster-averaged variance of the couplings:
    the coupling form of `cl.delta_g_prob_form`, its reference."""
    p = require_interior(p)
    d = np.asarray(d, dtype=float)
    f.check_size(d.shape[-1])
    q, r = cl._shares(p, f)
    dev = d - cl.aggregate(r * d, f)[..., f.labels]
    return np.sum(q * cl.aggregate(r * dev * dev, f), axis=-1)


def sufficiency_residuals(traj, f: cl.Clustering) -> float:
    """Max |d/dt (p_mu / q_{f(mu)})| over the rows of a trajectory.

    Vanishing residuals characterise a sufficient clustering: the shares
    inside every cluster are frozen in time.  The derivative is exact: with
    the replicator velocity pdot = p (d - <d>_p), the share r_mu =
    p_mu / q_a of variant mu in its cluster a moves as

        dr_mu/dt = r_mu (d_mu - sum_{nu in a} r_nu d_nu).
    """
    d = couplings(traj)
    _, r = cl._shares(traj.p(), f)
    return float(np.max(np.abs(r * (d - cl.aggregate(r * d, f)[:, f.labels]))))


def exact_static_fisher_mean(p, n: int, dt: float) -> np.ndarray:
    """Exact expectation of the sampled Fisher information for a constant model,
    by enumeration: the brute-force oracle of ``theory.fisher_null_mean``.

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
