"""Compartmental generator of continuous statistical models.

Integrates the susceptible / N+1 infected variants / recovered system

    dS/dt  = -S * sum(gamma * I)
    dI/dt  =  I * (gamma * S - epsilon)
    dR/dt  =  sum(epsilon * I)

with classical fixed-step RK4 and turns the infected fractions into a
time-parametrized probability distribution p = I / sum(I).  The velocity
of p is computed analytically from the replicator identity

    pdot = p * (d - <d>_p),    d = gamma * S - epsilon,

which keeps derivative checks free of finite-difference bias.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .simplex import Distribution, TangentVector

CONSERVATION_TOL = 1e-6


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SirParams:
    """Rates and initial conditions for N+1 variants."""

    gamma: np.ndarray
    epsilon: np.ndarray
    s0: float
    i0: np.ndarray
    r0: float

    def __init__(self, gamma, epsilon, s0, i0, r0=0.0):
        gamma = np.asarray(gamma, dtype=float)
        epsilon = np.asarray(epsilon, dtype=float)
        i0 = np.asarray(i0, dtype=float)
        if not (gamma.shape == epsilon.shape == i0.shape) or gamma.ndim != 1:
            raise ValueError("gamma, epsilon, i0 must be 1-d and equally sized")
        if gamma.size < 2:
            raise ValueError("need at least 2 variants")
        if np.any(gamma < 0) or np.any(epsilon < 0):
            raise ValueError("rates must be nonnegative")
        if np.any(i0 <= 0):
            idx = int(np.argmin(i0))
            raise ValueError(f"initial infected fraction at index {idx} is not > 0")
        total = s0 + i0.sum() + r0
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"initial fractions sum to {total!r}, not 1")
        for name, val in (("gamma", gamma), ("epsilon", epsilon), ("i0", i0)):
            arr = val.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "s0", float(s0))
        object.__setattr__(self, "r0", float(r0))

    @property
    def n_variants(self) -> int:
        return self.gamma.size


def default_sir_params(
    n_variants: int = 10,
    s0: float = 0.9445,
    r0: float = 0.0,
    gamma_range: tuple[float, float] = (1.5, 2.5),
    epsilon_range: tuple[float, float] = (0.9, 1.1),
) -> SirParams:
    """Deterministic desk-scale parameter set: evenly spaced rates, uniform i0."""
    gamma = np.linspace(*gamma_range, n_variants)
    epsilon = np.linspace(*epsilon_range, n_variants)
    i0 = np.full(n_variants, (1.0 - s0 - r0) / n_variants)
    return SirParams(gamma, epsilon, s0, i0, r0)


def grouped_sir_params(
    group_sizes,
    s0: float = 0.9445,
    r0: float = 0.0,
    gamma_range: tuple[float, float] = (1.5, 2.5),
    epsilon_range: tuple[float, float] = (0.9, 1.1),
) -> SirParams:
    """Variants in blocks with identical rates inside each block.

    Within a block the couplings coincide for all times, so the block
    clustering is a sufficient statistic of the induced model.
    """
    group_sizes = [int(s) for s in group_sizes]
    if any(s < 1 for s in group_sizes):
        raise ValueError("group sizes must be >= 1")
    k = len(group_sizes)
    gam_g = np.linspace(*gamma_range, k)
    eps_g = np.linspace(*epsilon_range, k)
    gamma = np.repeat(gam_g, group_sizes)
    epsilon = np.repeat(eps_g, group_sizes)
    n = gamma.size
    i0 = np.full(n, (1.0 - s0 - r0) / n)
    return SirParams(gamma, epsilon, s0, i0, r0)


def couplings_at(params: SirParams, susceptible: float) -> np.ndarray:
    """Per-variant growth rates gamma*S - epsilon at a susceptible level."""
    if not 0.0 <= susceptible <= 1.0:
        raise ValueError(f"susceptible fraction {susceptible} outside [0, 1]")
    return params.gamma * susceptible - params.epsilon


def mean_coupling(p, d) -> float:
    """Probability-weighted average of the couplings."""
    probs = p.probs if isinstance(p, Distribution) else np.asarray(p, dtype=float)
    d = np.asarray(d, dtype=float)
    if probs.shape != d.shape:
        raise ValueError(f"size mismatch: {probs.size} probabilities vs {d.size} couplings")
    return float(np.dot(probs, d))


@dataclass(frozen=True)
class Trajectory:
    """Continuous model on a uniform fine grid.

    Arrays are laid out time-major: ``p[k]`` is the distribution at
    ``times[k]``.  All arrays are read-only.
    """

    times: np.ndarray
    p: np.ndarray
    pdot: np.ndarray
    susceptible: np.ndarray
    couplings: np.ndarray
    mean_coupling: np.ndarray
    infected: np.ndarray
    recovered: np.ndarray
    params: SirParams

    def __post_init__(self):
        for arr in (self.times, self.p, self.pdot, self.susceptible,
                    self.couplings, self.mean_coupling, self.infected,
                    self.recovered):
            arr.flags.writeable = False

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def n_variants(self) -> int:
        return self.p.shape[1]

    def index_at(self, t):
        """Nearest fine-grid index, or an array of them for an array of
        times; raises for a time outside [0, t_end]."""
        times = np.asarray(t, dtype=float)
        inside = (times >= 0.0) & (times <= self.t_end + 1e-12)
        if not np.all(inside):
            bad = float(np.extract(~inside, times)[0])
            raise ValueError(f"time {bad} outside trajectory domain [0, {self.t_end}]")
        idx = np.minimum(np.rint(times / self.step), self.times.size - 1).astype(np.intp)
        return int(idx) if idx.ndim == 0 else idx

    def fisher_curve(self, rows=slice(None)) -> np.ndarray:
        """g_tt(t) = sum(pdot^2 / p) at the given fine-grid rows (all by default)."""
        return np.sum(self.pdot[rows] ** 2 / self.p[rows], axis=-1)

    def info_rate_curve(self, rows=slice(None)) -> np.ndarray:
        """Self-information rates pdot/p at the given fine-grid rows, one row
        of variants per fine-grid row."""
        return self.pdot[rows] / self.p[rows]


def integrate_sir(params: SirParams, t_end: float, step: float) -> Trajectory:
    """Classical RK4 solution on the uniform grid 0, step, ..., t_end.

    The step loop writes into preallocated buffers; the per-step checks
    (positive infected fractions, conservation) run after it on all rows at
    once and report the first failing step.  A model that fails therefore
    runs every remaining step (on inf/NaN values) before the error is raised.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end < step:
        raise ValueError("t_end must be at least one step")
    n_steps = int(round(t_end / step))
    times = np.arange(n_steps + 1) * step

    gamma, epsilon = params.gamma, params.epsilon
    rates = np.empty_like(gamma)

    def deriv(s, infected, out, out_infected):
        """Write (dS, dI, dR) at (s, infected) into out; out_infected is out[1:-1]."""
        out[0] = -s * np.dot(gamma, infected)
        np.multiply(gamma, s, out=rates)
        np.subtract(rates, epsilon, out=rates)
        np.multiply(infected, rates, out=out_infected)
        out[-1] = np.dot(epsilon, infected)

    states = np.empty((n_steps + 1, gamma.size + 2))
    states[0, 0], states[0, 1:-1], states[0, -1] = params.s0, params.i0, params.r0
    infected = states[:, 1:-1]
    buffers = np.empty((5, states.shape[1]))
    k1, k2, k3, k4, stage = buffers
    k1_i, k2_i, k3_i, k4_i, stage_i = buffers[:, 1:-1]
    half, sixth = 0.5 * step, step / 6.0
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            state = states[k]
            deriv(state[0], infected[k], k1, k1_i)
            np.add(state, np.multiply(half, k1, out=stage), out=stage)
            deriv(stage[0], stage_i, k2, k2_i)
            np.add(state, np.multiply(half, k2, out=stage), out=stage)
            deriv(stage[0], stage_i, k3, k3_i)
            np.add(state, np.multiply(step, k3, out=stage), out=stage)
            deriv(stage[0], stage_i, k4, k4_i)
            # state + (step/6) * (((k1 + 2 k2) + 2 k3) + k4)
            np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
            np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
            np.add(k1, k4, out=k1)
            np.add(state, np.multiply(sixth, k1, out=k1), out=states[k + 1])
        # fmin skips NaN, so low <= 0 exactly when some entry is <= 0
        low = np.fmin.reduce(infected[1:], axis=1)
        drift = np.abs(states[1:].sum(axis=1) - 1.0)
    bad = np.flatnonzero((low <= 0) | (drift > CONSERVATION_TOL))
    if bad.size:
        k = int(bad[0]) + 1
        if low[k - 1] <= 0:
            idx = int(np.argmin(infected[k]))
            raise IntegrationError(
                f"infected fraction of variant {idx} reached "
                f"{infected[k, idx]} at t={times[k]:g}"
            )
        raise IntegrationError(
            f"conservation drift {drift[k - 1]:.3e} at t={times[k]:g}; "
            f"use a smaller step"
        )

    susceptible = states[:, 0]
    recovered = states[:, -1]
    p = infected / infected.sum(axis=1, keepdims=True)
    # in place: the same operations with fewer (T, M) temporaries
    couplings = susceptible[:, None] * gamma[None, :]
    np.subtract(couplings, epsilon[None, :], out=couplings)
    mean_d = np.sum(p * couplings, axis=1)
    pdot = couplings - mean_d[:, None]
    np.multiply(p, pdot, out=pdot)
    return Trajectory(times, p, pdot, susceptible, couplings, mean_d,
                      infected, recovered, params)


def trajectory_at(traj: Trajectory, t: float):
    """Model state at the fine-grid point nearest to t.

    Returns (distribution, velocity, susceptible fraction, couplings).
    """
    k = traj.index_at(t)
    return (
        Distribution(traj.p[k]),
        TangentVector(traj.pdot[k]),
        float(traj.susceptible[k]),
        traj.couplings[k].copy(),
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write `t, S, p_*, pdot_*, d_*, mean_d` rows with a header line."""
    m = traj.n_variants
    header = (
        ["t", "S"]
        + [f"p_{i}" for i in range(1, m + 1)]
        + [f"pdot_{i}" for i in range(1, m + 1)]
        + [f"d_{i}" for i in range(1, m + 1)]
        + ["mean_d"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.times.size):
            row = (
                [traj.times[k], traj.susceptible[k]]
                + list(traj.p[k])
                + list(traj.pdot[k])
                + list(traj.couplings[k])
                + [traj.mean_coupling[k]]
            )
            writer.writerow(f"{x:.17g}" for x in row)
