"""Compartmental generator of continuous statistical models.

The susceptible / N+1 infected variants / recovered system

    dS/dt  = -S * sum(gamma * I)
    dI/dt  =  I * (gamma * S - epsilon)
    dR/dt  =  sum(epsilon * I)

reduces exactly to three scalar states.  Each infected equation is linear
in its own variable, with a rate that depends on time only through S, so
with the cumulative susceptible fraction X(t) = integral of S over [0, t]

    I(t) = i0 * exp(gamma * X(t) - epsilon * t).

The system is therefore the ODE in (S, X, R) with X' = S, where the sums
over variants are taken over that closed form: no approximation is made
before the time discretisation, which is classical fixed-step RK4 on the
three scalars.  R stays an integrated state rather than 1 - S - sum(I), so
conservation remains a check of the integration.

The distribution p = I / sum(I) = softmax(log i0 + gamma * X - epsilon * t)
is positive by construction, and its velocity is computed analytically from
the replicator identity

    pdot = p * (d - <d>_p),    d = gamma * S - epsilon,

which keeps derivative checks free of finite-difference bias.
"""

from __future__ import annotations

import math
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

    Stores one value per grid point of S, X (the integral of S), R and the
    total infected fraction sum(I); all arrays are read-only.  The
    per-variant quantities are evaluated from them for the fine-grid
    ``rows`` a caller asks for: an index, an index array or a slice, all
    rows by default.  The result has one row of variants per requested
    row, or is a single row for an integer index.
    """

    times: np.ndarray
    susceptible: np.ndarray
    cumulative_susceptible: np.ndarray
    recovered: np.ndarray
    total_infected: np.ndarray
    params: SirParams

    def __post_init__(self):
        for arr in (self.times, self.susceptible, self.cumulative_susceptible,
                    self.recovered, self.total_infected):
            arr.flags.writeable = False

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def n_variants(self) -> int:
        return self.params.n_variants

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

    def _exponents(self, rows) -> np.ndarray:
        """log I = log i0 + gamma * X - epsilon * t at the rows."""
        x = np.asarray(self.cumulative_susceptible[rows])[..., None]
        t = np.asarray(self.times[rows])[..., None]
        return np.log(self.params.i0) + self.params.gamma * x - self.params.epsilon * t

    def infected(self, rows=slice(None)) -> np.ndarray:
        """Infected fractions I = i0 * exp(gamma * X - epsilon * t)."""
        return np.exp(self._exponents(rows))

    def p(self, rows=slice(None)) -> np.ndarray:
        """Distribution p = I / sum(I), as a softmax of the exponents."""
        a = self._exponents(rows)
        a -= a.max(axis=-1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=-1, keepdims=True)
        return a

    def couplings(self, rows=slice(None)) -> np.ndarray:
        """Per-variant growth rates d = gamma * S - epsilon."""
        s = np.asarray(self.susceptible[rows])[..., None]
        return self.params.gamma * s - self.params.epsilon

    def mean_coupling(self, rows=slice(None)) -> np.ndarray:
        """<d>_p, the probability-weighted mean coupling."""
        return np.sum(self.p(rows) * self.couplings(rows), axis=-1)

    def info_rate_curve(self, rows=slice(None)) -> np.ndarray:
        """Self-information rates pdot/p = d - <d>_p."""
        return self.couplings(rows) - self.mean_coupling(rows)[..., None]

    def pdot(self, rows=slice(None)) -> np.ndarray:
        """Velocity pdot = p * (d - <d>_p)."""
        return self.p(rows) * self.info_rate_curve(rows)

    def fisher_curve(self, rows=slice(None)) -> np.ndarray:
        """g_tt(t) = sum(pdot^2 / p) = sum(p * (d - <d>_p)^2)."""
        rate = self.info_rate_curve(rows)
        return np.sum(self.p(rows) * rate * rate, axis=-1)


def _failure(k: int, t: float, s: float, x: float, r: float, total: float) -> IntegrationError:
    """The error for grid point k, whose state failed a check."""
    where = f"at step {k}, t={t:g}"
    if not all(math.isfinite(v) for v in (s, x, r, total)):
        return IntegrationError(
            f"non-finite state (S={s}, X={x}, R={r}, infected {total}) {where}")
    if not 0.0 <= s <= 1.0:
        return IntegrationError(f"susceptible fraction {s} left [0, 1] {where}")
    return IntegrationError(
        f"conservation drift {abs(s + total + r - 1.0):.3e} {where}; use a smaller step")


def integrate_sir(params: SirParams, t_end: float, step: float) -> Trajectory:
    """Classical RK4 solution of the reduced (S, X, R) system on the uniform
    grid 0, step, ..., t_end.

    Each stage takes the exponents log i0 + gamma * X - epsilon * t as one
    matrix-vector product, exponentiates them to I, and takes the sums
    gamma . I, epsilon . I and sum(I) as a second one; the state itself is
    three Python floats.  Every grid point is checked as it is reached: the
    first with a non-finite state, S outside [0, 1], or S + sum(I) + R off
    1 by more than CONSERVATION_TOL raises IntegrationError naming its step
    and t.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end < step:
        raise ValueError("t_end must be at least one step")
    n_steps = int(round(t_end / step))
    times = np.arange(n_steps + 1) * step

    exponents = np.column_stack((np.log(params.i0), params.gamma, -params.epsilon))
    weights = np.stack((params.gamma, params.epsilon, np.ones_like(params.gamma)))
    point = np.ones(3)  # (1, X, t)
    infected = np.empty(params.n_variants)
    sums = np.empty(3)

    def rates(x, t):
        """(gamma . I, epsilon . I, sum(I)) at (X, t), as Python floats."""
        point[1] = x
        point[2] = t
        np.exp(np.dot(exponents, point, out=infected), out=infected)
        return np.dot(weights, infected, out=sums).tolist()

    s, x, r = params.s0, 0.0, params.r0
    half, sixth = 0.5 * step, step / 6.0
    states = []  # (S, X, R, sum(I)) at each grid point
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the checks
        for k, t in enumerate(times.tolist()):
            g1, e1, total = rates(x, t)
            if not (0.0 <= s <= 1.0 and abs(s + total + r - 1.0) <= CONSERVATION_TOL
                    and math.isfinite(x)):
                raise _failure(k, t, s, x, r, total)
            states.append((s, x, r, total))
            if k == n_steps:
                break
            ds1 = -s * g1
            s2, x2 = s + half * ds1, x + half * s
            g2, e2, _ = rates(x2, t + half)
            ds2 = -s2 * g2
            s3, x3 = s + half * ds2, x + half * s2
            g3, e3, _ = rates(x3, t + half)
            ds3 = -s3 * g3
            s4, x4 = s + step * ds3, x + step * s3
            g4, e4, _ = rates(x4, t + step)
            ds4 = -s4 * g4
            s, x, r = (s + sixth * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4),
                       x + sixth * (s + 2.0 * s2 + 2.0 * s3 + s4),
                       r + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4))
    return Trajectory(times, *np.array(states).T, params)


def trajectory_at(traj: Trajectory, t: float):
    """Model state at the fine-grid point nearest to t.

    Returns (distribution, velocity, susceptible fraction, couplings).
    """
    k = traj.index_at(t)
    return (
        Distribution(traj.p(k)),
        TangentVector(traj.pdot(k)),
        float(traj.susceptible[k]),
        traj.couplings(k),
    )


def trajectory_to_csv(traj: Trajectory, path, rows=slice(None)) -> None:
    """Write `t, S, p_*, pdot_*, d_*, mean_d` at the given fine-grid rows
    (all by default) after a header line, with CRLF line ends."""
    m = traj.n_variants
    header = (
        ["t", "S"]
        + [f"p_{i}" for i in range(1, m + 1)]
        + [f"pdot_{i}" for i in range(1, m + 1)]
        + [f"d_{i}" for i in range(1, m + 1)]
        + ["mean_d"]
    )
    table = np.column_stack((traj.times[rows], traj.susceptible[rows], traj.p(rows),
                             traj.pdot(rows), traj.couplings(rows), traj.mean_coupling(rows)))
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % tuple(row.tolist()) for row in table)
