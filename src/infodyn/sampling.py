"""Multinomial sampling of a trajectory and estimators on the sampled model.

At each grid instant the continuous distribution is observed through n
independent categorical draws; the empirical frequencies at two adjacent
instants feed a discretised Fisher information

    ghat = sum_mu s_mu * ((phat_hi - phat_lo) / dt)^2,
    s_mu = 2 / (phat_hi + phat_lo)   (term contributes 0 when both vanish)

and the per-variant information rates s_mu * (phat_hi - phat_lo) / dt.
Everything is a pure function of (inputs, seed); sub-streams are keyed by
instant and replication indices so results never depend on evaluation
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .clustering import Clustering, aggregate
from .dynamics import Trajectory


class MonteCarloError(RuntimeError):
    pass


@dataclass(frozen=True)
class SampleGrid:
    """Equally spaced sampling instants t0 + k*dt, k = 0..count-1."""

    t0: float
    dt: float
    count: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.count < 2:
            raise ValueError("need at least 2 sampling instants")

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.count) * self.dt

    def midpoint(self, k: int) -> float:
        """Time t0 + (k + 1/2) dt where the k-th estimator lives."""
        return self.t0 + (k + 0.5) * self.dt

    def midpoints(self) -> np.ndarray:
        return self.t0 + (np.arange(self.count - 1) + 0.5) * self.dt


@dataclass(frozen=True)
class SampledTrajectory:
    """Discrete model: per-instant multinomial counts over the variants."""

    grid: SampleGrid
    n: int
    counts: np.ndarray
    seed: int

    def __post_init__(self):
        self.counts.flags.writeable = False
        if self.counts.shape[0] != self.grid.count:
            raise ValueError("one count row per grid instant required")
        if np.any(self.counts.sum(axis=1) != self.n):
            raise ValueError("counts at every instant must sum to n")

    @property
    def n_variants(self) -> int:
        return self.counts.shape[1]

    def phat(self, k: int) -> np.ndarray:
        """Empirical frequencies counts/n at instant k."""
        return self.counts[k] / self.n


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std: float
    standard_error: float
    replications: int


def sample_trajectory(traj: Trajectory, grid: SampleGrid, n: int, seed: int) -> SampledTrajectory:
    """Independent multinomial samplings at every grid instant.

    Instant k uses the sub-stream (seed, k), so individual instants can be
    reproduced in isolation and their order never matters.
    """
    times = grid.times()
    if times[0] < 0 or times[-1] > traj.t_end + 1e-12:
        raise ValueError(
            f"sample grid [{times[0]:g}, {times[-1]:g}] outside "
            f"trajectory domain [0, {traj.t_end:g}]"
        )
    counts = np.empty((grid.count, traj.n_variants), dtype=np.int64)
    for k, t in enumerate(times):
        p = traj.p[traj.index_at(t)]
        counts[k] = rng.sample_counts(p, n, rng.stream(seed, k))
    return SampledTrajectory(grid, n, counts, seed)


def _check_instant(sampled: SampledTrajectory, k: int) -> None:
    if not 0 <= k < sampled.grid.count - 1:
        raise IndexError(
            f"instant index {k} invalid: need k and k+1 within "
            f"0..{sampled.grid.count - 1}"
        )


def fisher_between(p_lo: np.ndarray, p_hi: np.ndarray, dt: float) -> float:
    """Discretised Fisher information from two frequency vectors."""
    total = p_lo + p_hi
    s = np.where(total > 0, 2.0 / np.where(total > 0, total, 1.0), 0.0)
    diff = (p_hi - p_lo) / dt
    return float(np.sum(s * diff * diff))


def info_rate_between(p_lo: np.ndarray, p_hi: np.ndarray, dt: float) -> np.ndarray:
    """Discretised per-component information rates from two frequency vectors."""
    total = p_lo + p_hi
    s = np.where(total > 0, 2.0 / np.where(total > 0, total, 1.0), 0.0)
    return s * (p_hi - p_lo) / dt


def fisher_hat(sampled: SampledTrajectory, k: int) -> float:
    """Sampled Fisher information at the midpoint of instants k and k+1."""
    _check_instant(sampled, k)
    return fisher_between(sampled.phat(k), sampled.phat(k + 1), sampled.grid.dt)


def clustered_fisher_hat(sampled: SampledTrajectory, k: int, f: Clustering) -> float:
    """Sampled Fisher information of the clustered counts."""
    _check_instant(sampled, k)
    f.check_size(sampled.n_variants)
    lo = aggregate(sampled.counts[k], f) / sampled.n
    hi = aggregate(sampled.counts[k + 1], f) / sampled.n
    return fisher_between(lo, hi, sampled.grid.dt)


def info_rate_hat(sampled: SampledTrajectory, k: int) -> np.ndarray:
    """Sampled per-variant information rates at the midpoint of k, k+1."""
    _check_instant(sampled, k)
    return info_rate_between(sampled.phat(k), sampled.phat(k + 1), sampled.grid.dt)


def cluster_info_rate_hat(sampled: SampledTrajectory, k: int, f: Clustering) -> np.ndarray:
    """Sampled per-cluster information rates at the midpoint of k, k+1."""
    _check_instant(sampled, k)
    f.check_size(sampled.n_variants)
    lo = aggregate(sampled.counts[k], f) / sampled.n
    hi = aggregate(sampled.counts[k + 1], f) / sampled.n
    return info_rate_between(lo, hi, sampled.grid.dt)


def _replicate(estimator, replications: int, seed: int) -> np.ndarray:
    if replications < 2:
        raise ValueError("need at least 2 replications")
    values = []
    for r in range(replications):
        rep_seed = rng.derive_key(seed, r)
        try:
            values.append(estimator(rep_seed))
        except Exception as exc:
            raise MonteCarloError(f"replication {r} (seed {rep_seed}) failed: {exc}") from exc
    return np.asarray(values, dtype=float)


def monte_carlo(estimator, replications: int, seed: int = 0) -> MonteCarloEstimate:
    """Mean / sample std / standard error of a scalar estimator.

    The estimator is called once per replication r = 0..R-1, in order, with
    the seed derive_key(seed, r); the result depends only on (estimator,
    replications, seed).
    """
    values = _replicate(estimator, replications, seed)
    std = float(values.std(ddof=1))
    return MonteCarloEstimate(
        mean=float(values.mean()),
        std=std,
        standard_error=std / np.sqrt(replications),
        replications=replications,
    )


def monte_carlo_components(estimator, replications: int, seed: int = 0) -> list[MonteCarloEstimate]:
    """Componentwise Monte Carlo summary of a vector-valued estimator."""
    values = _replicate(estimator, replications, seed)
    stds = values.std(axis=0, ddof=1)
    return [
        MonteCarloEstimate(
            mean=float(m), std=float(s),
            standard_error=float(s) / np.sqrt(replications),
            replications=replications,
        )
        for m, s in zip(values.mean(axis=0), stds)
    ]
