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
over variants are taken over that closed form.  Variants with equal rates
share one exponential, so the sums run over the distinct rate pairs
(gamma, epsilon), each with the summed i0 of its variants.  R stays an
integrated state rather than 1 - S - sum(I), so conservation remains a
check of the integration.

The distribution p = I / sum(I) = softmax(log i0 + gamma * X - epsilon * t)
is positive by construction, and its velocity is computed analytically from
the replicator identity

    pdot = p * (d - <d>_p),    d = gamma * S - epsilon,

which keeps derivative checks free of finite-difference bias.

`solve_sir` is the integrator the experiments use: the Taylor method with
automatic differentiation (Jorba and Zou 2005, Exp. Math. 14, 99).  Along
the curve the exponents log I are affine in X, so one exponential per
series step gives I at its start, and the recurrences of I' = I * (gamma *
S - epsilon) every further Taylor coefficient of I, S, X and R.  The series
steps do not depend on the times a caller asks for: the state at a time is
a function of the rates and that time alone, and a model whose rates need
more than MAX_HALVINGS halvings of the series step fails whatever times
are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import distinct_rows

CONSERVATION_TOL = 1e-6
# solve_sir's Taylor series (see there): the number of coefficients, the
# series step, the bound on the truncation estimate, a few units in the last
# place of an O(1) state, and how many times the series step may be halved
# to meet it
SERIES_ORDER = 30
SERIES_STEP = 0.5
STEP_TOL = 1e-15
MAX_HALVINGS = 4
# the most series steps of SERIES_STEP a call may need, so times up to 2048.
# A step holds SERIES_ORDER x 4 coefficients (about 1 KB) and takes 0.3-0.6
# ms at 10-1000 rate rows, so a call stays within about 4 MB and 2.5 s; the
# epidemics of the shipped models are over by t = 20.
MAX_SERIES_STEPS = 4096
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
    """Continuous model at the times a caller asked for.

    Stores one value per time of S, X (the integral of S), R and the total
    infected fraction sum(I); all arrays are read-only.  The per-variant
    quantities are evaluated from them for the ``rows`` a caller asks for:
    an index, an index array or a slice, all rows by default.  The result
    has one row of variants per requested row, or is a single row for an
    integer index.
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
    def n_variants(self) -> int:
        return self.params.n_variants

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
        """(p, pdot, g_tt) at the rows, from one evaluation of p and of the
        couplings d: the velocity pdot = p * (d - <d>_p) and the Fisher
        information g_tt = sum(pdot^2 / p) = sum(pdot * (d - <d>_p))."""
        p, d = self.p(rows), self.couplings(rows)
        rate = d - np.sum(p * d, axis=-1)[..., None]
        pdot = p * rate
        return p, pdot, np.sum(pdot * rate, axis=-1)

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
        return self.replicator(rows)[2]


def _valid(states) -> np.ndarray:
    """Whether each row (S, X, R, sum(I)) is finite, has S in [0, 1] and
    S + sum(I) + R within CONSERVATION_TOL of 1."""
    s, x, r, total = np.asarray(states).T
    return ((0.0 <= s) & (s <= 1.0) & np.isfinite(x)
            & (np.abs(s + total + r - 1.0) <= CONSERVATION_TOL))


def _failure(t: float, s: float, x: float, r: float, total: float) -> IntegrationError:
    """The error for the time t, whose state failed a check of _valid."""
    where = f"at t={t:g}"
    if not all(math.isfinite(v) for v in (s, x, r, total)):
        return IntegrationError(
            f"non-finite state (S={s}, X={x}, R={r}, infected {total}) {where}")
    if not 0.0 <= s <= 1.0:
        return IntegrationError(f"susceptible fraction {s} left [0, 1] {where}")
    return IntegrationError(f"conservation drift {abs(s + total + r - 1.0):.3e} {where}")


def _states(times, starts, polys) -> np.ndarray:
    """The (S, X, R, sum(I)) rows at `times`: each time in the first series
    step [starts[j], starts[j + 1]] that holds it, the last step ending at
    or after max(times), by Horner's rule on the step's polynomials polys[j]
    at t - starts[j].  Every operation is elementwise, so a row rounds as it
    would alone.  The earliest time whose state fails a check of _valid
    raises IntegrationError naming it."""
    step = np.searchsorted(starts[1:], times)
    offset = (times - starts[step])[:, None]
    states = polys[step, -1]
    for k in range(SERIES_ORDER - 2, -1, -1):
        states *= offset
        states += polys[step, k]
    ok = _valid(states)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        first = bad[np.argmin(times[bad])]
        raise _failure(times[first], *states[first].tolist())
    return states


def rate_rows(params: SirParams) -> tuple:
    """(log i0, gamma, epsilon) of one row per distinct rate pair, in the
    order of first occurrence, each carrying the summed i0 of its variants:
    variants with equal rates share I = i0 * exp(gamma * X - epsilon * t), so
    sums over variants are sums over these rows, exact up to rounding.  With
    every pair distinct the rows are the variants, bit for bit."""
    pairs, _, row = distinct_rows(np.column_stack((params.gamma, params.epsilon)))
    gamma, epsilon = np.ascontiguousarray(pairs.T)
    return np.log(np.bincount(row, weights=params.i0)), gamma, epsilon


def solve_sir(params: SirParams, times) -> Trajectory:
    """Taylor-series solution of the reduced (S, X, R) system at `times`, a
    1-d array of finite times >= 0 in any order: row i of the trajectory is
    the state at times[i], which depends on params and times[i] alone, bit
    for bit.

    The sums over variants run over the rows of rate_rows.  Series steps of
    length h run from t = 0 until one reaches max(times).  At the start t0 of
    each, one exponential gives the rows' I[0] = exp(log i0 + gamma X -
    epsilon t0), and I' = I (gamma S - epsilon) the further coefficients of
    (t - t0)^k, P = SERIES_ORDER of each:

        J[k] = sum_i S[i] I[k-i]          I[k+1] = (gamma J[k] - epsilon I[k]) / (k+1)
        S[k+1] = -gamma . J[k] / (k+1)    X[k+1] = S[k] / (k+1)
        R[k+1] = epsilon . I[k] / (k+1)

    The polynomials give the state at t0 + h, where the next step starts, and
    at every time asked for in [t0, t0 + h] (_states).  Their last terms
    estimate the truncation error; to first order

        est = (ptp(gamma) |X[P-1]| + max(gamma) |S[P-1]| + |sum I[P-1]|) h^(P-1)

    bounds the change it makes in log p, in the couplings and in sum(I), the
    last term being all there is when gamma is 0.  While est > STEP_TOL, h is
    halved, for this step and the later ones; an estimate still above it
    after MAX_HALVINGS halvings raises IntegrationError naming it, h and t0.
    A time with a non-finite state, S outside [0, 1], or S + sum(I) + R off 1
    by more than CONSERVATION_TOL raises IntegrationError naming it; the
    earliest such time asked for, or else the end of the first series step
    that fails a check before max(times).

    A time past MAX_SERIES_STEPS steps of SERIES_STEP raises ValueError
    naming it, before the first step: the steps run one after another from
    t = 0, so such a time costs its length in work and memory whatever else
    is asked for (and from t0 = 2**52 on, t0 + h rounds to t0 and the loop
    would never end).  A model that halves its step takes up to 2**MAX_HALVINGS
    times as many steps.
    """
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"times must be a non-empty 1-d array, got shape {times.shape}")
    finite = (0.0 <= times) & (times < math.inf)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"times[{bad}] = {times[bad]} is not a finite time of at least 0")
    t_max = float(times.max())
    if t_max > MAX_SERIES_STEPS * SERIES_STEP:
        bad = int(np.argmax(times))
        raise ValueError(f"times[{bad}] = {times[bad]} needs more than MAX_SERIES_STEPS = "
                         f"{MAX_SERIES_STEPS} series steps of {SERIES_STEP:g}: times must be "
                         f"at most {MAX_SERIES_STEPS * SERIES_STEP:g}")
    log_i0, gamma, epsilon = rate_rows(params)
    exponents = np.column_stack((log_i0, gamma, -epsilon))
    weights = np.column_stack((epsilon, np.ones_like(gamma)))
    spread, top = float(np.ptp(gamma)), float(np.max(gamma))
    powers = np.arange(SERIES_ORDER)
    inverse = 1.0 / powers[1:]
    # gamma / (k+1) and epsilon / (k+1), the rates of the coefficient k+1
    gamma_k, epsilon_k = np.outer(inverse, gamma), np.outer(inverse, epsilon)
    infected = np.empty((SERIES_ORDER, gamma.size))  # I[k] of every row
    coeffs = np.empty((SERIES_ORDER, 4))  # the S, X, R and sum(I) coefficients
    s_c, x_c, r_c, total_c = coeffs.T

    starts, polys = [], []  # each series step's t0 and coefficients
    s, x, r = params.s0, 0.0, params.r0
    t0, h, halvings = 0.0, SERIES_STEP, 0
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the checks
        while True:
            np.exp(exponents.dot((1.0, x, t0)), out=infected[0])
            s_c[0], x_c[0], r_c[0] = s, x, r
            for j in range(SERIES_ORDER - 1):
                nxt = infected[j + 1]
                np.multiply(s_c[j::-1].dot(infected[:j + 1]), gamma_k[j], out=nxt)
                s_c[j + 1] = -nxt.sum()
                nxt -= epsilon_k[j] * infected[j]
            recovery, total_c[:] = infected.dot(weights).T
            x_c[1:] = s_c[:-1] * inverse
            r_c[1:] = recovery[:-1] * inverse
            est = (spread * abs(x_c[-1]) + top * abs(s_c[-1]) + abs(total_c[-1])) * h ** powers[-1]
            if not est <= STEP_TOL:
                if halvings == MAX_HALVINGS:
                    raise IntegrationError(
                        f"series truncation estimate {est:.3e} > {STEP_TOL:g} at t={t0:g}, "
                        f"after {MAX_HALVINGS} halvings of the series step {SERIES_STEP:g} "
                        f"to {h:g}")
                h, halvings = 0.5 * h, halvings + 1
                continue
            starts.append(t0)
            polys.append(coeffs.copy())
            end = h ** powers @ coeffs
            t0 += h
            if t0 >= t_max or not _valid(end):
                break
            s, x, r, _ = end.tolist()
        starts.append(t0)
        starts, polys = np.array(starts), np.array(polys)
        if t0 < t_max:  # the curve fails a check at t0, before max(times)
            _states(times[times <= t0], starts, polys)
            raise _failure(t0, *end.tolist())
        return Trajectory(times, *_states(times, starts, polys).T, params)
