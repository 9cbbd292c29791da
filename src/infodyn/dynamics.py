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
three scalars.  Variants with equal rates share one exponential, so the
sums run over the distinct rate pairs (gamma, epsilon), each with the
summed i0 of its variants.  R stays an integrated state rather than 1 - S - sum(I), so
conservation remains a check of the integration.

The distribution p = I / sum(I) = softmax(log i0 + gamma * X - epsilon * t)
is positive by construction, and its velocity is computed analytically from
the replicator identity

    pdot = p * (d - <d>_p),    d = gamma * S - epsilon,

which keeps derivative checks free of finite-difference bias.

`solve_sir` is the integrator the experiments use.  It runs RK4 at two
internal steps, h and h/2, and stores their Richardson combination
y_{h/2} + (y_{h/2} - y_h)/15 on the grid 0, step, 2 step, ...: a
fifth-order solution.  The difference of the two runs is the classical
step-doubling error estimate; while it is above STEP_TOL, both internal
steps are halved and the stored grid stays the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONSERVATION_TOL = 1e-6
# bound on the step-doubling estimate of solve_sir (see there), and how many
# times it may halve its internal steps to meet it
STEP_TOL = 1e-9
MAX_HALVINGS = 4
# initial susceptible fraction of the default and grouped parameter sets
DEFAULT_S0 = 0.9445


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
        for name, arr in (("gamma", gamma), ("epsilon", epsilon), ("i0", i0)):
            if not np.all(np.isfinite(arr)):
                idx = int(np.argmin(np.isfinite(arr)))
                raise ValueError(f"{name}[{idx}] = {arr[idx]} is not finite")
        if np.any(gamma < 0) or np.any(epsilon < 0):
            raise ValueError("rates must be nonnegative")
        for name, value in (("s0", s0), ("r0", r0)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"initial fraction {name} = {value} outside [0, 1]")
        if np.any(i0 <= 0):
            idx = int(np.argmin(i0))
            raise ValueError(f"initial infected fraction at index {idx} is not > 0")
        total = float(s0 + i0.sum() + r0)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"initial fractions sum to {total}, not 1")
        for name, val in (("gamma", gamma), ("epsilon", epsilon), ("i0", i0)):
            arr = val.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "s0", float(s0))
        object.__setattr__(self, "r0", float(r0))

    @property
    def n_variants(self) -> int:
        return self.gamma.size


def default_sir_params(n_variants: int = 10) -> SirParams:
    """Deterministic desk-scale parameter set: the grouped set with one
    variant per group, so evenly spaced rates and uniform i0."""
    return grouped_sir_params([1] * n_variants)


def grouped_sir_params(group_sizes) -> SirParams:
    """Variants in blocks with identical rates inside each block; the block
    rates are evenly spaced, gamma over [1.5, 2.5] and epsilon over
    [0.9, 1.1], and the model starts at s0 = DEFAULT_S0, r0 = 0, uniform i0.

    Within a block the couplings coincide for all times, so the block
    clustering is a sufficient statistic of the induced model.
    """
    group_sizes = [int(s) for s in group_sizes]
    if any(s < 1 for s in group_sizes):
        raise ValueError("group sizes must be >= 1")
    k = len(group_sizes)
    gamma = np.repeat(np.linspace(1.5, 2.5, k), group_sizes)
    epsilon = np.repeat(np.linspace(0.9, 1.1, k), group_sizes)
    n = gamma.size
    i0 = np.full(n, (1.0 - DEFAULT_S0) / n)
    return SirParams(gamma, epsilon, DEFAULT_S0, i0)


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

    def index_at(self, t: float) -> int:
        """Grid index of a grid time, by the rule of ``grid_index``."""
        return grid_index(t, self.step, self.times.size - 1)

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

    def replicator(self, rows=slice(None)) -> tuple:
        """(p, pdot, d, <d>_p, g_tt) at the rows, from one evaluation of p and
        of the couplings d: the velocity pdot = p * (d - <d>_p) and the Fisher
        information g_tt = sum(pdot^2 / p) = sum(pdot * (d - <d>_p))."""
        p, d = self.p(rows), self.couplings(rows)
        mean_d = np.sum(p * d, axis=-1)
        rate = d - mean_d[..., None]
        pdot = p * rate
        return p, pdot, d, mean_d, np.sum(pdot * rate, axis=-1)

    def info_rate_curve(self, rows=slice(None)) -> np.ndarray:
        """Self-information rates pdot/p = d - <d>_p."""
        p, d = self.p(rows), self.couplings(rows)
        d -= np.sum(np.multiply(p, d, out=p), axis=-1)[..., None]
        return d

    def pdot(self, rows=slice(None)) -> np.ndarray:
        """Velocity pdot = p * (d - <d>_p)."""
        return self.replicator(rows)[1]

    def fisher_curve(self, rows=slice(None)) -> np.ndarray:
        """g_tt(t) = sum(pdot^2 / p) = sum(p * (d - <d>_p)^2)."""
        return self.replicator(rows)[4]


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


def grid_steps(t_end: float, step: float) -> int:
    """Steps of the grid 0, step, 2 step, ... up to its last point not after
    t_end (within a relative 1e-9, so that rounding in t_end / step does not
    drop a point)."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if not 0.0 <= t_end < math.inf:
        raise ValueError(f"t_end must be nonnegative and finite, got {t_end}")
    n_steps = math.floor(t_end / step * (1.0 + 1e-9))
    if n_steps < 1:
        raise ValueError(f"t_end = {t_end:g} is shorter than one step of {step:g}")
    return n_steps


def grid_index(t: float, step: float, n_steps: int) -> int:
    """Index of the time t on the grid 0, step, ..., n_steps * step, known
    before it is integrated; raises for a time outside the grid or more than
    1e-9 steps from a grid point."""
    t, steps = float(t), float(t) / step
    if not 0.0 <= steps <= n_steps + 1e-9:
        raise ValueError(f"time {t} outside trajectory domain [0, {n_steps * step}]")
    idx = round(steps)
    if abs(steps - idx) > 1e-9:
        raise ValueError(f"time {t} is not a point of the grid of step {step:g}")
    return idx


def integrate_sir(params: SirParams, t_end: float, step: float) -> Trajectory:
    """Classical RK4 solution of the reduced (S, X, R) system on the uniform
    grid 0, step, 2 step, ..., up to the last point not after t_end.

    The sums run over one row per distinct rate pair (gamma, epsilon), in
    the order of first occurrence, carrying the sum of its variants' i0:
    variants with equal rates have I = i0 * exp(gamma * X - epsilon * t)
    with one exponential, so this is exact up to rounding, and a model of
    a few rate groups costs a few rows however many variants it has.  With
    every pair distinct the rows are the variants themselves, bit for bit.

    Each stage takes the exponents log i0 + gamma * X - epsilon * t as one
    matrix-vector product, exponentiates them to I, and takes the sums
    gamma . I, epsilon . I and sum(I) as a second one; the state itself is
    three Python floats.  Every grid point is checked as it is reached: the
    first with a non-finite state, S outside [0, 1], or S + sum(I) + R off
    1 by more than CONSERVATION_TOL raises IntegrationError naming its step
    and t.
    """
    n_steps = grid_steps(t_end, step)
    times = np.arange(n_steps + 1) * step

    _, first, pair = np.unique(np.column_stack((params.gamma, params.epsilon)), axis=0,
                               return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct pairs in order of first occurrence
    row = np.argsort(order)[pair.ravel()]  # the row of each variant
    gamma, epsilon = params.gamma[first[order]], params.epsilon[first[order]]
    i0 = np.bincount(row, weights=params.i0)
    exponents = np.column_stack((np.log(i0), gamma, -epsilon))
    weights = np.stack((gamma, epsilon, np.ones_like(gamma)))
    point = np.ones(3)  # (1, X, t)
    infected = np.empty(gamma.size)
    sums = np.empty(3)
    # bound ndarray.dot skips np.dot's array-function dispatch; same BLAS call
    exponents_dot, weights_dot = exponents.dot, weights.dot

    def rates(x, t):
        """(gamma . I, epsilon . I, sum(I)) at (X, t), as Python floats."""
        point[1] = x
        point[2] = t
        np.exp(exponents_dot(point, out=infected), out=infected)
        return weights_dot(infected, out=sums).tolist()

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


def solve_sir(params: SirParams, t_end: float, step: float) -> Trajectory:
    """Richardson-extrapolated RK4 solution on the grid 0, step, 2 step, ...,
    up to the last point not after t_end.

    Runs integrate_sir at the internal steps h = step and h/2, both to the
    grid's last point, and stores y = y_{h/2} + (y_{h/2} - y_h)/15 of S, X,
    R and sum(I) at the grid points.  The runs' difference Delta estimates
    the error of the coarser one; to first order

        est = max_k ptp(gamma) |Delta X_k| + max(gamma) |Delta S_k|

    bounds the change it makes in log p and in the couplings.  While
    est > STEP_TOL, or while a run fails its checks, h is halved and the
    finer run becomes the coarser one; the stored grid does not change.  An
    estimate or a failure that persists after MAX_HALVINGS halvings raises
    IntegrationError naming it and the step.
    """
    n_steps = grid_steps(t_end, step)
    spread, top = float(np.ptp(params.gamma)), float(np.max(params.gamma))

    def grid_states(div):
        """(S, X, R, sum(I)) at the grid points from RK4 at step / div."""
        traj = integrate_sir(params, n_steps * step, step / div)
        return [state[::div] for state in (traj.susceptible, traj.cumulative_susceptible,
                                           traj.recovered, traj.total_infected)]

    coarse, div = None, 1
    for _ in range(MAX_HALVINGS + 1):
        try:
            if coarse is None:
                coarse = grid_states(div)
            fine = grid_states(2 * div)
        except IntegrationError as exc:
            coarse, failure = None, str(exc)
        else:
            est = float(np.max(spread * np.abs(fine[1] - coarse[1])
                               + top * np.abs(fine[0] - coarse[0])))
            if est <= STEP_TOL:
                return Trajectory(np.arange(n_steps + 1) * step,
                                  *(f + (f - c) / 15.0 for f, c in zip(fine, coarse)), params)
            coarse, failure = fine, f"step-doubling error estimate {est:.3e} > {STEP_TOL:g}"
        last = step / div
        div *= 2
    raise IntegrationError(
        f"step check failed after {MAX_HALVINGS} halvings of step {step:g}, at RK4 steps "
        f"{last:g} and {last / 2.0:g}: {failure}; use a smaller step")
