"""Clustering of degrees of freedom and the information lost by it.

A clustering is a surjective, time-independent map from the N+1 variants
onto ell cluster labels.  Summing probabilities inside clusters gives a
coarse model whose Fisher information never exceeds the original one; the
gap equals the probability-weighted variance of the couplings inside each
cluster, which is the quantity K-means minimises here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .simplex import Distribution, TangentVector


class NoElbowError(ValueError):
    pass


@dataclass(frozen=True)
class Clustering:
    """Surjective assignment of variants to cluster labels 1..n_clusters."""

    assignment: tuple
    n_clusters: int

    def __init__(self, assignment, n_clusters: int | None = None):
        labels = tuple(int(a) for a in assignment)
        if not labels:
            raise ValueError("assignment must not be empty")
        ell = int(n_clusters) if n_clusters is not None else max(labels)
        present = set(labels)
        if any(a < 1 or a > ell for a in labels):
            raise ValueError(f"labels must lie in 1..{ell}, got {sorted(present)}")
        if present != set(range(1, ell + 1)):
            missing = sorted(set(range(1, ell + 1)) - present)
            raise ValueError(f"clustering not surjective: labels {missing} unused")
        object.__setattr__(self, "assignment", labels)
        object.__setattr__(self, "n_clusters", ell)

    @classmethod
    def identity(cls, size: int) -> "Clustering":
        return cls(range(1, size + 1))

    @classmethod
    def single(cls, size: int) -> "Clustering":
        return cls([1] * size)

    def __len__(self) -> int:
        return len(self.assignment)

    def check_size(self, size: int) -> None:
        if len(self.assignment) != size:
            raise ValueError(f"clustering covers {len(self.assignment)} variants, need {size}")

    def labels0(self) -> np.ndarray:
        """Zero-based label array, for indexing."""
        return np.asarray(self.assignment, dtype=np.intp) - 1

    def members(self, a: int) -> list[int]:
        """Zero-based indices assigned to cluster label a (1-based)."""
        return [mu for mu, lab in enumerate(self.assignment) if lab == a]

    def refines(self, other: "Clustering") -> bool:
        """True when every cluster of self lies inside a cluster of other."""
        if len(self) != len(other):
            return False
        image = {}
        for mine, theirs in zip(self.assignment, other.assignment):
            if image.setdefault(mine, theirs) != theirs:
                return False
        return True


def aggregate(values, f: Clustering) -> np.ndarray:
    """Cluster sums of a per-variant array (dtype preserved)."""
    values = np.asarray(values)
    f.check_size(values.shape[-1])
    labels = f.labels0()
    out = np.zeros(values.shape[:-1] + (f.n_clusters,), dtype=values.dtype)
    for a in range(f.n_clusters):
        out[..., a] = values[..., labels == a].sum(axis=-1)
    return out


def cluster_probs(p: Distribution, f: Clustering) -> Distribution:
    """Coarse distribution q_a = sum of p over cluster a."""
    return Distribution(aggregate(p.probs, f))


def clustered_fisher(p: Distribution, pdot: TangentVector, f: Clustering) -> float:
    """Fisher information of the clustered model: sum(qdot^2 / q)."""
    p.require_interior()
    f.check_size(len(p))
    q = aggregate(p.probs, f)
    qdot = aggregate(pdot.components, f)
    return float(np.sum(qdot * qdot / q))


def delta_g_prob_form(p: Distribution, pdot: TangentVector, f: Clustering) -> float:
    """Information loss from p and pdot alone.

    sum_a q_a * (sum_{mu in a} r_mu * irate_mu^2 - cluster_rate_a^2) with
    r_mu = p_mu / q_{f(mu)}; equals fisher - clustered_fisher.
    """
    p.require_interior()
    f.check_size(len(p))
    labels = f.labels0()
    q = aggregate(p.probs, f)
    qdot = aggregate(pdot.components, f)
    r = p.probs / q[labels]
    irate = pdot.components / p.probs
    # centered form of sum(r * irate^2) - rate_a^2, robust to cancellation
    cluster_rate = qdot / q
    dev = irate - cluster_rate[labels]
    inner = aggregate(r * dev * dev, f)
    return float(np.sum(q * inner))


def delta_g_coupling_form(p: Distribution, d, f: Clustering) -> float:
    """Information loss as the cluster-averaged variance of the couplings."""
    p.require_interior()
    d = np.asarray(d, dtype=float)
    f.check_size(len(p))
    if d.size != len(p):
        raise ValueError(f"{d.size} couplings for {len(p)} variants")
    labels = f.labels0()
    q = aggregate(p.probs, f)
    r = p.probs / q[labels]
    mean_d = aggregate(r * d, f)
    dev = d - mean_d[labels]
    var_a = aggregate(r * dev * dev, f)
    return float(np.sum(q * var_a))


def sufficiency_residuals(traj, f: Clustering) -> float:
    """Max |d/dt (p_mu / q_{f(mu)})| over the fine grid.

    Vanishing residuals characterise a sufficient clustering: the shares
    inside every cluster are frozen in time.
    """
    f.check_size(traj.n_variants)
    labels = f.labels0()
    members = np.zeros((traj.n_variants, f.n_clusters))
    members[np.arange(traj.n_variants), labels] = 1.0
    p = traj.p()
    q = p @ members
    r = p / q[:, labels]
    dr = (r[2:] - r[:-2]) / (2.0 * traj.step)
    return float(np.max(np.abs(dr))) if dr.size else 0.0


def kmeans_features(traj, grid) -> np.ndarray:
    """Per-variant feature rows: information rates at the grid instants.

    ``grid`` may be a SampleGrid or any array of times; sampled or
    filtered rate rows can be passed to kmeans directly instead.
    """
    times = grid.times() if hasattr(grid, "times") else np.asarray(grid, dtype=float)
    rows = traj.index_at(np.atleast_1d(times))
    return np.ascontiguousarray(traj.info_rate_curve(rows).T)


def _principal_scores(features: np.ndarray) -> np.ndarray:
    centered = features - features.mean(axis=0)
    # SVD sign is arbitrary; orient the axis by its largest component.
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    v = vt[0]
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return centered @ v


def kmeans(features, n_clusters: int, max_iters: int = 100) -> Clustering:
    """Lloyd iterations with deterministic quantile seeding.

    Initial centroids are the data points sitting at the (a - 1/2)/ell
    quantiles of the first principal score.  A point whose distances to two
    centroids agree within a relative 1e-9 joins the lower-numbered one.  An
    emptied cluster is re-seeded at the point farthest from its current
    centroid, so the result is always surjective.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    n_points = features.shape[0]
    if not 1 <= n_clusters <= n_points:
        raise ValueError(f"need 1 <= n_clusters <= {n_points}, got {n_clusters}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    order = np.argsort(_principal_scores(features), kind="stable")
    picks = [order[int((a - 0.5) * n_points / n_clusters)] for a in range(1, n_clusters + 1)]
    centroids = features[picks].copy()

    labels = np.full(n_points, -1)
    for _ in range(max_iters):
        dist = np.sum((features[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        # nearest centroid; distances equal to a relative 1e-9 count as a tie,
        # which goes to the lower-numbered centroid.  Evenly spaced features
        # give exact ties, and rounding in the features must not decide them.
        nearest = dist.min(axis=1, keepdims=True)
        new_labels = np.argmax(dist <= nearest * (1.0 + 1e-9), axis=1)
        point_cost = dist[np.arange(n_points), new_labels]
        empty = [a for a in range(n_clusters) if not np.any(new_labels == a)]
        while empty:
            a = empty.pop(0)
            # move the farthest point out of a cluster that can spare one
            sizes = np.bincount(new_labels, minlength=n_clusters)
            movable = sizes[new_labels] > 1
            far = int(np.argmax(np.where(movable, point_cost, -1.0)))
            new_labels[far] = a
            centroids[a] = features[far]
            point_cost[far] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for a in range(n_clusters):
            centroids[a] = features[labels == a].mean(axis=0)
    return Clustering(labels + 1)


def kmeans_objective(features, f: Clustering) -> float:
    """Within-cluster sum of squared Euclidean distances to centroids."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    f.check_size(features.shape[0])
    labels = f.labels0()
    total = 0.0
    for a in range(f.n_clusters):
        block = features[labels == a]
        total += float(np.sum((block - block.mean(axis=0)) ** 2))
    return total


def elbow_select(delta_curve) -> int:
    """Cluster count at the kink of the information-loss curve.

    Takes (ell, delta_g) pairs with strictly increasing ell and returns
    the interior ell with the largest discrete second difference of the
    loss; ties break toward smaller ell.  A curve with no curvature above
    1e-12 has no elbow.
    """
    pairs = [(int(e), float(dg)) for e, dg in delta_curve]
    if len(pairs) < 4:
        raise ValueError(f"need at least 4 curve points, got {len(pairs)}")
    ells = np.array([e for e, _ in pairs])
    if np.any(np.diff(ells) <= 0):
        raise ValueError("ell values must be strictly increasing")
    dg = np.array([g for _, g in pairs])
    second = dg[2:] - 2.0 * dg[1:-1] + dg[:-2]
    if np.max(second) <= 1e-12:
        raise NoElbowError("no elbow: curve has no convex kink above tolerance")
    return int(ells[1:-1][int(np.argmax(second))])


def clustering_to_csv(f: Clustering, path) -> None:
    """Write `mu,label` lines, 1-based on both sides."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "label"])
        for mu, label in enumerate(f.assignment, start=1):
            writer.writerow([mu, label])


def delta_curve_to_csv(curve, path) -> None:
    """Write `ell,delta_g` lines."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ell", "delta_g"])
        for ell, dg in curve:
            writer.writerow([int(ell), f"{dg:.17g}"])
