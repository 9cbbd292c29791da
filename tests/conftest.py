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
