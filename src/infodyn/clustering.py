"""Clustering of degrees of freedom and the information lost by it.

A clustering is a surjective, time-independent map from the N+1 variants
onto ell cluster labels.  Summing probabilities inside clusters gives a
coarse model whose Fisher information never exceeds the original one; the
gap equals the probability-weighted variance of the couplings inside each
cluster, which is the quantity K-means minimises here.  Like the functions
of ``simplex``, the information functions take arrays of shape (..., M) and
reduce along the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import fisher_information, require_interior, self_information_rate


class NoElbowError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Clustering:
    """Surjective map of variants onto clusters, given by 1-based labels
    1..n_clusters and held as the read-only zero-based array `labels`."""

    labels: np.ndarray
    n_clusters: int

    def __init__(self, labels):
        given = np.asarray(labels)
        if given.ndim != 1 or given.size == 0:
            raise ValueError(f"labels must be a non-empty 1-d sequence, got shape {given.shape}")
        if given.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, got dtype {given.dtype}")
        present, _ = np.unique(given, return_counts=True)  # no numpy.ma import
        if present[0] < 1:
            raise ValueError(f"labels must be at least 1, got {present[0]}")
        unused = np.flatnonzero(present != np.arange(1, present.size + 1))
        if unused.size:
            raise ValueError(f"clustering not surjective: label {unused[0] + 1} of "
                             f"1..{present[-1]} unused")
        zero_based = given.astype(np.intp) - 1
        zero_based.flags.writeable = False
        object.__setattr__(self, "labels", zero_based)
        object.__setattr__(self, "n_clusters", present.size)

    def check_size(self, size: int) -> None:
        if self.labels.size != size:
            raise ValueError(f"clustering covers {self.labels.size} variants, need {size}")


def aggregate(values, f: Clustering) -> np.ndarray:
    """Cluster sums of a per-variant array along its last axis (dtype
    preserved).  Each row's members are gathered contiguously, so a row of
    a table sums, bit for bit, as it does alone."""
    values = np.asarray(values)
    f.check_size(values.shape[-1])
    out = np.zeros(values.shape[:-1] + (f.n_clusters,), dtype=values.dtype)
    for a in range(f.n_clusters):
        out[..., a] = np.take(values, np.flatnonzero(f.labels == a), axis=-1).sum(axis=-1)
    return out


def _shares(p: np.ndarray, f: Clustering) -> tuple[np.ndarray, np.ndarray]:
    """Cluster sums q of p and the shares r_mu = p_mu / q_{f(mu)}."""
    q = aggregate(p, f)
    return q, p / q[..., f.labels]


def clustered_fisher(p, pdot, f: Clustering) -> np.ndarray:
    """Fisher information of the clustered model: sum(qdot^2 / q)."""
    return fisher_information(aggregate(require_interior(p), f), aggregate(pdot, f))


def delta_g_prob_form(p, pdot, f: Clustering) -> np.ndarray:
    """Information loss from p and pdot alone.

    sum_a q_a * (sum_{mu in a} r_mu * irate_mu^2 - cluster_rate_a^2) with
    r_mu = p_mu / q_{f(mu)}; equals fisher - clustered_fisher.
    """
    p = require_interior(p)
    q, r = _shares(p, f)
    # centered form of sum(r * irate^2) - rate_a^2, robust to cancellation
    cluster_rate = self_information_rate(q, aggregate(pdot, f))
    dev = self_information_rate(p, pdot) - cluster_rate[..., f.labels]
    return np.sum(q * aggregate(r * dev * dev, f), axis=-1)


def kmeans_features(traj, rows) -> np.ndarray:
    """Per-variant feature rows: information rates at the rows of a model
    trajectory; sampled or filtered rate rows can be passed to kmeans
    directly instead.

    The model's features have rank at most 2 once centered.  Row mu is
    gamma_mu S_k - epsilon_mu - <d>_k over the rows k, and the shift <d>_k is
    common to every variant, so the centered row is

        (gamma_mu - mean gamma) S - (epsilon_mu - mean epsilon) 1,

    a combination of the two vectors S = (S_k) and 1.  Where gamma and
    epsilon are both affine in one index, as in ``grouped_sir_params``, the
    two coefficients are proportional and the rank is 1.
    """
    return np.ascontiguousarray(traj.info_rate_curve(rows).T)


def principal_scores(features) -> tuple[np.ndarray, np.ndarray]:
    """The K-means step that does not depend on the cluster count: the
    principal coordinates of the centered feature rows, truncated to their
    numerical rank r, and the rows in stable order of their first principal
    score.  Returns (points of shape (M, r), order); ``lloyd`` clusters them.

    r counts the singular values above sigma_0 * max(M, K) * eps, numpy's
    ``matrix_rank`` rule, and is at least 1.  The centered rows lie in the
    span of the first r right singular vectors, so every distance between
    points is the features' own up to rounding, which the tie rule of
    ``lloyd`` absorbs; model features (see ``kmeans_features``) have r <= 2
    however many instants they hold.  The sign of the first axis, arbitrary
    in an SVD, is fixed by its largest component.  A point is a row-wise sum
    per axis, not a BLAS product, which rounds a row by its position in the
    block: identical feature rows give identical points, bit for bit.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[0] == 0:
        raise ValueError("need at least 1 feature row, got 0")
    centered = features - features.mean(axis=0)
    _, sigma, vt = np.linalg.svd(centered, full_matrices=False)
    rank = max(1, int(np.count_nonzero(sigma > sigma[0] * max(centered.shape)
                                       * np.finfo(float).eps)))
    axes = vt[:rank]
    if axes[0, np.argmax(np.abs(axes[0]))] < 0:
        axes[0] *= -1.0
    points = np.column_stack([(centered * axis).sum(axis=1) for axis in axes])
    return points, np.argsort(points[:, 0], kind="stable")


def distinct_rows(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct, counts, of) of a 2-d array: its distinct rows in order of
    first occurrence, how many rows equal each, and the index in `distinct`
    of every row.  With every row distinct, `distinct` equals `rows` and
    `of` is 0, 1, ..."""
    perm = np.lexsort(rows.T[::-1])  # equal rows adjacent, each run in row order
    ranked = rows[perm]
    starts = np.ones(perm.size, dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = perm[starts]  # the first row of each run
    by_first = np.argsort(first)
    run_row = np.empty_like(by_first)
    run_row[by_first] = np.arange(by_first.size)
    of = np.empty_like(perm)
    of[perm] = run_row[np.cumsum(starts) - 1]
    return rows[first[by_first]], np.bincount(of), of


def _split_points(order, of, n_clusters: int) -> np.ndarray:
    """Zero-based labels of n_clusters >= G clusters, each inside one of the
    G distinct points `of` names: the points take labels 0..G-1 in the order
    their rows first appear in `order`; then, walking `order`, each row after
    the first of its point takes the next label, until n_clusters are used."""
    walk = of[order]
    _, firsts = np.unique(walk, return_index=True)
    firsts.sort()
    point_label = np.empty(firsts.size, dtype=np.intp)
    point_label[walk[firsts]] = np.arange(firsts.size)
    labels = point_label[of]
    later = np.ones(order.size, dtype=bool)
    later[firsts] = False
    labels[order[np.flatnonzero(later)[:n_clusters - firsts.size]]] = \
        np.arange(firsts.size, n_clusters)
    return labels


def lloyd(scores, n_clusters: int) -> Clustering:
    """Lloyd iterations on the (points, order) of ``principal_scores``, with
    deterministic quantile seeding, run over the G distinct points.

    Identical points (identical feature rows, as in a model whose variants
    share rates) are collapsed, in order of first occurrence, into one point
    weighted by how many variants it stands for; the centroids are these
    count-weighted means, and each variant takes the label of its point.
    With every point distinct the weights are 1, and each centroid sums its
    members in variant order, as an unweighted mean over the variants does.

    Initial centroids are the points at the (a - 1/2)/ell quantiles of
    `order`, taken over the variants.  A point whose distances to two
    centroids agree within a relative 1e-9 joins the lower-numbered one.  An
    emptied cluster is re-seeded at the distinct point farthest from its
    current centroid, taken from a cluster that holds more than one, so the
    result is always surjective.  Iteration stops at the first labelling
    already visited and returns the last new one.  Each iteration but the
    last visits a new labelling, and there are finitely many, so the loop
    ends: a converging run repeats only its final one, and the guard covers
    the runs in which the tie rule or a re-seeding undoes the descent of the
    objective and the labellings cycle.

    With more clusters than distinct points (ell > G) no iteration runs;
    some point must be split, and every split inside one point costs
    nothing.  The labels are fixed instead: each distinct point is one
    cluster, numbered in order of first principal score (the order its
    variants first appear in `order`), and each of the ell - G further
    clusters takes one variant, the variants after the first of their point
    in that same order.  Every cluster lies inside one distinct point, so
    the K-means objective is 0.
    """
    points, order = scores
    n_points = points.shape[0]
    if not 1 <= n_clusters <= n_points:
        raise ValueError(f"need 1 <= n_clusters <= {n_points}, got {n_clusters}")
    distinct, weights, of = distinct_rows(points)
    n_distinct = weights.size
    if n_clusters > n_distinct:
        return Clustering(_split_points(order, of, n_clusters) + 1)
    picks = [order[int((a - 0.5) * n_points / n_clusters)] for a in range(1, n_clusters + 1)]
    centroids = points[picks].copy()

    seen = set()
    while True:
        dist = np.sum((distinct[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        # nearest centroid; distances equal to a relative 1e-9 count as a tie,
        # which goes to the lower-numbered centroid.  Evenly spaced features
        # give exact ties, and rounding in the features must not decide them.
        nearest = dist.min(axis=1, keepdims=True)
        new_labels = np.argmax(dist <= nearest * (1.0 + 1e-9), axis=1)
        point_cost = dist[np.arange(n_distinct), new_labels]
        empty = [a for a in range(n_clusters) if not np.any(new_labels == a)]
        while empty:
            a = empty.pop(0)
            # move the farthest point out of a cluster that can spare one
            sizes = np.bincount(new_labels, minlength=n_clusters)
            movable = sizes[new_labels] > 1
            far = int(np.argmax(np.where(movable, point_cost, -1.0)))
            new_labels[far] = a
            centroids[a] = distinct[far]
            point_cost[far] = 0.0
        if new_labels.tobytes() in seen:
            break
        seen.add(new_labels.tobytes())
        labels = new_labels
        for a in range(n_clusters):
            members = labels == a
            centroids[a] = ((weights[members, None] * distinct[members]).sum(axis=0)
                            / weights[members].sum())
    return Clustering(labels[of] + 1)


def kmeans(features, n_clusters: int) -> Clustering:
    """K-means of the feature rows into n_clusters: ``lloyd`` on their
    ``principal_scores``, iterated over the distinct points with each
    weighted by its number of variants, and with a fixed labelling of zero
    cost when n_clusters exceeds the number of distinct rows.  A scan over
    several cluster counts takes the scores once and runs ``lloyd`` for
    each count, with the same result."""
    return lloyd(principal_scores(features), n_clusters)


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
