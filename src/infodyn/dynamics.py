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
S - epsilon) every further Taylor coefficient of I, S, X and R.  Each series
step is as long as the last two coefficients allow for a truncation
estimate of STEP_TOL, the step rule of Jorba and Zou.  The steps depend on
the state alone, not on the times a caller asks for: the state at a time is
a function of the rates and that time alone, and a model whose rates need a
step shorter than MIN_STEP fails whatever times are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import distinct_rows

CONSERVATION_TOL = 1e-6
# solve_sir's Taylor series (see there): the number of coefficients, the
# truncation estimate each series step is sized to, a few units in the last
# place of an O(1) state, and the shortest series step a model may need.
# gamma in [20, 22] steps down to 0.041 and integrates, rates such as
# gamma = 200 need 0.006 and fail; MIN_STEP sits a little below the shortest
# step, 0.029, of the models of a random survey that the series integrated
# under its former fixed steps (see CHANGES.md).
SERIES_ORDER = 30
STEP_TOL = 1e-15
MIN_STEP = 0.025
# in a series step that starts from S below 1 / LIFT, S's coefficients are
# carried times LIFT, a power of two and so exact: they keep their relative
# precision where the last of them would fall below the smallest normal
# number
LIFT = 2.0 ** 512
# the last time a call may ask for.  The series steps run one after another
# from t = 0, each at least MIN_STEP long, so a call takes at most
# MAX_TIME / MIN_STEP = 81920 of them, each of SERIES_ORDER x 4
# coefficients (about 1 KB); the default models reach t = 2048 in 21 steps,
# and the epidemics of the shipped models are over by t = 20.
MAX_TIME = 2048.0
# initial susceptible fraction of the default and grouped parameter sets
DEFAULT_S0 = 0.9445


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SirParams:
    """Rates and initial conditions for N+1 variants; R starts at 0, so s0 and
    i0 sum to 1."""

    gamma: np.ndarray
    epsilon: np.ndarray
    s0: float
    i0: np.ndarray

    def __init__(self, gamma, epsilon, s0, i0):
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
        if not 0.0 <= s0 <= 1.0:
            raise ValueError(f"initial fraction s0 = {s0} outside [0, 1]")
        if np.any(i0 <= 0):
            idx = int(np.argmin(i0))
            raise ValueError(f"initial infected fraction at index {idx} is not > 0")
        total = float(s0 + i0.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"initial fractions sum to {total}, not 1")
        for name, val in (("gamma", gamma), ("epsilon", epsilon), ("i0", i0)):
            arr = val.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "s0", float(s0))

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
    [0.9, 1.1], and the model starts at s0 = DEFAULT_S0 with uniform i0.

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

    def p(self, rows=slice(None)) -> np.ndarray:
        """Distribution p = I / sum(I), a softmax of the exponents log I =
        log i0 + gamma * X - epsilon * t."""
        x = np.asarray(self.cumulative_susceptible[rows])[..., None]
        t = np.asarray(self.times[rows])[..., None]
        a = self.params.gamma * x
        a += np.log(self.params.i0)
        a -= self.params.epsilon * t
        a -= a.max(axis=-1, keepdims=True)
        np.exp(a, out=a)
        a /= a.sum(axis=-1, keepdims=True)
        return a

    def _couplings(self, rows) -> np.ndarray:
        """Per-variant growth rates d = gamma * S - epsilon."""
        s = np.asarray(self.susceptible[rows])[..., None]
        return self.params.gamma * s - self.params.epsilon

    def replicator(self, rows=slice(None)) -> tuple:
        """(p, pdot, g_tt) at the rows, from one evaluation of p and of the
        couplings d: the velocity pdot = p * (d - <d>_p) and the Fisher
        information g_tt = sum(pdot^2 / p) = sum(pdot * (d - <d>_p)),
        evaluated in place."""
        p, d = self.p(rows), self._couplings(rows)
        pdot = p * d
        d -= pdot.sum(axis=-1)[..., None]
        np.multiply(p, d, out=pdot)
        return p, pdot, np.multiply(pdot, d, out=d).sum(axis=-1)

    def info_rate_curve(self, rows=slice(None)) -> np.ndarray:
        """Self-information rates pdot/p = d - <d>_p, evaluated in place so
        that many rows take less memory than through replicator."""
        p, d = self.p(rows), self._couplings(rows)
        d -= np.sum(np.multiply(p, d, out=p), axis=-1)[..., None]
        return d


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


def _states(times, starts, polys, lifts) -> np.ndarray:
    """The (S, X, R, sum(I)) rows at `times`: each time in the first series
    step [starts[j], starts[j + 1]] that holds it, the last step ending at
    or after max(times), by Horner's rule on the step's polynomials polys[j]
    at t - starts[j], S divided by the step's lifts[j].  Every operation is
    elementwise, so a row rounds as it would alone.  The earliest time whose
    state fails a check of _valid raises IntegrationError naming it."""
    step = np.searchsorted(starts[1:], times)
    offset = (times - starts[step])[:, None]
    states = polys[step, -1]
    for k in range(SERIES_ORDER - 2, -1, -1):
        states *= offset
        states += polys[step, k]
    states[:, 0] /= lifts[step]
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

    The sums over variants run over the rows of rate_rows.  Series steps run
    from t = 0 until one reaches max(times).  At the start t0 of
    each, one exponential gives the rows' I[0] = exp(log i0 + gamma X -
    epsilon t0), and I' = I (gamma S - epsilon) the further coefficients of
    (t - t0)^k, P = SERIES_ORDER of each:

        J[k] = sum_i S[i] I[k-i]          I[k+1] = (gamma J[k] - epsilon I[k]) / (k+1)
        S[k+1] = -gamma . J[k] / (k+1)    X[k+1] = S[k] / (k+1)
        R[k+1] = epsilon . I[k] / (k+1)

    Their last terms estimate the truncation error; to first order

        est[k] = (ptp(gamma) |X[k]| + (max(gamma) + 1/S[0]) |S[k]| + |sum I[k]|) h^k

    bounds the change the term k makes in log p, in the couplings, in log S
    and in sum(I), the last term being all there is when gamma is 0 (and
    1/S[0] taken as 0 when S[0] is, since S then stays 0).  The log S term
    keeps S's relative accuracy once it has fallen far below STEP_TOL, as
    in an epidemic with R0 near 100.  From S[0] below 1 / LIFT on, S's
    coefficients are computed and held times LIFT, an exact power of two,
    and divided by it where S is evaluated, so that the last of them do not
    underflow to 0 as S nears the smallest normal number; above, the factor
    is 1.  The step h is the largest with est[P-2] and est[P-1] both at most
    STEP_TOL (Jorba and Zou), so one coefficient that happens to be near
    zero cannot set it; with both zero, as once I underflows to 0, the
    series is a polynomial and the step unbounded.  A step shorter than
    MIN_STEP, or undefined because a coefficient is not finite, raises
    IntegrationError naming it and t0.
    The polynomials give the state at t0 + h, where the next step starts,
    and at every time asked for in [t0, t0 + h] (_states).  A time with a
    non-finite state, S outside [0, 1], or S + sum(I) + R off 1 by more than
    CONSERVATION_TOL raises IntegrationError naming it; the earliest such
    time asked for, or else the end of the first series step that fails a
    check before max(times).

    A time past MAX_TIME raises ValueError naming it, before the first step:
    the steps run one after another from t = 0, so a time costs work and
    memory in step with its length whatever else is asked for (and far past
    it t0 + h would round to t0).  The default models take 9 or 10
    steps to t = 10 (h from 0.72 to 2.4), gamma in [6, 8] 18 (from 0.14) and
    gamma in [20, 22] 18 to t = 2 (from 0.041).
    """
    times = np.array(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"times must be a non-empty 1-d array, got shape {times.shape}")
    finite = (0.0 <= times) & (times < math.inf)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"times[{bad}] = {times[bad]} is not a finite time of at least 0")
    t_max = float(times.max())
    if t_max > MAX_TIME:
        bad = int(np.argmax(times))
        raise ValueError(f"times[{bad}] = {times[bad]} is past MAX_TIME: times must be at "
                         f"most {MAX_TIME:g}")
    log_i0, gamma, epsilon = rate_rows(params)
    exponents = np.column_stack((log_i0, gamma, -epsilon))
    weights = np.column_stack((epsilon, np.ones_like(gamma)))
    spread, top = float(np.ptp(gamma)), float(np.max(gamma))
    powers = np.arange(SERIES_ORDER)
    inverse = 1.0 / powers[1:]
    infected = np.empty((SERIES_ORDER, gamma.size))  # I[k] of every row
    coeffs = np.empty((SERIES_ORDER, 4))  # the S, X, R and sum(I) coefficients
    s_c, x_c, r_c, total_c = coeffs.T
    # the views of the recurrence for each coefficient k: S[k..0], I[0..k],
    # I[k+1], I[k], gamma / (k+1) and epsilon / (k+1)
    recurrence = [(s_c[k::-1], infected[:k + 1], infected[k + 1], infected[k], g, e)
                  for k, g, e in zip(range(SERIES_ORDER - 1), np.outer(inverse, gamma),
                                     np.outer(inverse, epsilon))]
    # est[k] = STEP_TOL at h = (STEP_TOL / (est[k] / h^k))^(1/k), k = P-2, P-1
    roots = 1.0 / powers[-2:]

    starts, polys, lifts = [], [], []  # each series step's t0, coefficients and lift
    s, x, r = params.s0, 0.0, 0.0
    t0 = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below
        while True:
            np.exp(exponents.dot((1.0, x, t0)), out=infected[0])
            lift = LIFT if s < 1.0 / LIFT else 1.0
            s_c[0], x_c[0], r_c[0] = s * lift, x, r
            for s_rev, head, nxt, cur, g, e in recurrence:
                np.multiply(s_rev.dot(head), g, out=nxt)
                s_c[s_rev.size] = -nxt.sum()
                if lift != 1.0:
                    nxt /= lift
                nxt -= e * cur
            recovery, total_c[:] = infected.dot(weights).T
            x_c[1:] = s_c[:-1] * inverse / lift
            r_c[1:] = recovery[:-1] * inverse
            relative = 1.0 / s_c[0] if s > 0 else 0.0  # of log S
            est = (spread * np.abs(x_c[-2:]) + (top / lift + relative) * np.abs(s_c[-2:])
                   + np.abs(total_c[-2:]))  # est[k] / h^k
            h = float(np.min((STEP_TOL / est) ** roots))
            if not h >= MIN_STEP:
                raise IntegrationError(
                    f"series step {h:.3e} < MIN_STEP = {MIN_STEP:g} at t={t0:g}: the "
                    f"truncation estimate of a longer one exceeds {STEP_TOL:g}")
            starts.append(t0)
            polys.append(coeffs.copy())
            lifts.append(lift)
            end = h ** powers @ coeffs
            end[0] /= lift
            t0 += h
            if t0 >= t_max or not _valid(end):
                break
            s, x, r, _ = end.tolist()
        starts.append(t0)
        starts, polys, lifts = np.array(starts), np.array(polys), np.array(lifts)
        if t0 < t_max:  # the curve fails a check at t0, before max(times)
            _states(times[times <= t0], starts, polys, lifts)
            raise _failure(t0, *end.tolist())
        return Trajectory(times, *_states(times, starts, polys, lifts).T, params)
