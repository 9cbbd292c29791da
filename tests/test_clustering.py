import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import cli
from infodyn import clustering as cl
from infodyn import dynamics as dyn
from infodyn import rng
from infodyn import sampling as smp
from infodyn.simplex import fisher_information
from conftest import delta_g_coupling_form, grid, sufficiency_residuals


def random_instance(gen, size):
    """Interior point, replicator-compatible velocity, and its couplings."""
    w = gen.integers(1, 100, size=size).astype(float)
    p = w / w.sum()
    d = gen.normal(size=size) * 3.0
    pdot = p * (d - np.dot(p, d))
    return p, pdot - pdot.sum() / size, d


def random_clustering(gen, size, ell):
    labels = np.concatenate([np.arange(1, ell + 1),
                             gen.integers(1, ell + 1, size=size - ell)])
    gen.shuffle(labels)
    return cl.Clustering(labels)


def _principal_scores(features):
    centered = features - features.mean(axis=0)
    # SVD sign is arbitrary; orient the axis by its largest component.
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    v = vt[0]
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0:
        v = -v
    return centered @ v


def reference_kmeans(features, n_clusters):
    """K-means as `cl.kmeans` runs it on distinct feature rows, but with
    Lloyd's iterations on every feature column and every row: the same
    seeds, tie rule, re-seeding and stop rule."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    n_points = features.shape[0]
    order = np.argsort(_principal_scores(features), kind="stable")
    picks = [order[int((a - 0.5) * n_points / n_clusters)] for a in range(1, n_clusters + 1)]
    centroids = features[picks].copy()

    seen = set()
    while True:
        dist = np.sum((features[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        nearest = dist.min(axis=1, keepdims=True)
        new_labels = np.argmax(dist <= nearest * (1.0 + 1e-9), axis=1)
        point_cost = dist[np.arange(n_points), new_labels]
        empty = [a for a in range(n_clusters) if not np.any(new_labels == a)]
        while empty:
            a = empty.pop(0)
            sizes = np.bincount(new_labels, minlength=n_clusters)
            movable = sizes[new_labels] > 1
            far = int(np.argmax(np.where(movable, point_cost, -1.0)))
            new_labels[far] = a
            centroids[a] = features[far]
            point_cost[far] = 0.0
        if new_labels.tobytes() in seen:
            break
        seen.add(new_labels.tobytes())
        labels = new_labels
        for a in range(n_clusters):
            centroids[a] = features[labels == a].mean(axis=0)
    return cl.Clustering(labels + 1)


def kmeans_objective(features, f):
    """Within-cluster sum of squared Euclidean distances to centroids."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    f.check_size(features.shape[0])
    total = 0.0
    for a in range(f.n_clusters):
        block = features[f.labels == a]
        total += float(np.sum((block - block.mean(axis=0)) ** 2))
    return total


def random_rate_features(n_variants, seed):
    """Model features of a model with independent random gamma and epsilon,
    at the 41 instants 0, 0.25, ..., 10."""
    gen = np.random.default_rng(seed)
    params = dyn.SirParams(gen.uniform(1.5, 2.5, n_variants), gen.uniform(0.9, 1.1, n_variants),
                           0.9, np.full(n_variants, 0.1 / n_variants), 0.0)
    return cl.kmeans_features(dyn.solve_sir(params, grid(10.0, 0.25)), slice(None))


def centered_rank(features):
    return np.linalg.matrix_rank(features - features.mean(axis=0))


class TestClustering:
    def test_surjectivity_enforced(self):
        with pytest.raises(ValueError, match="surjective: label 2 of 1..3 unused"):
            cl.Clustering([1, 1, 3])

    def test_label_range_enforced(self):
        with pytest.raises(ValueError, match="at least 1"):
            cl.Clustering([0, 1, 2])
        with pytest.raises(ValueError, match="surjective"):
            cl.Clustering([1, 2, 5])

    def test_labels_are_zero_based_and_read_only(self):
        labels = np.array([2, 1, 2, 3])
        f = cl.Clustering(labels)
        labels[0] = 1
        assert f.labels.dtype == np.intp
        assert f.labels.tolist() == [1, 0, 1, 2]
        assert f.n_clusters == 3
        assert np.flatnonzero(f.labels == 1).tolist() == [0, 2]
        with pytest.raises(ValueError, match="read-only"):
            f.labels[0] = 0
        assert cl.Clustering([1] * 4).n_clusters == 1
        assert cl.Clustering(range(1, 5)).labels.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("labels", [[1.7, 2, 2.9], [1.0, 2.0], [True, True], ["1", "2"]])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            cl.Clustering(labels)

    @pytest.mark.parametrize("labels", [[], [[1, 2]]])
    def test_empty_or_nested_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            cl.Clustering(labels)


class TestClusterProbs:
    """Cluster probabilities q_a are the cluster sums `aggregate` of p."""

    def test_identity(self):
        p = np.array([0.1, 0.2, 0.7])
        assert np.array_equal(cl.aggregate(p, cl.Clustering(range(1, 4))), p)

    def test_single(self):
        assert cl.aggregate([0.5, 0.5], cl.Clustering([1] * 2)).tolist() == [1.0]

    def test_hand_value(self):
        q = cl.aggregate([0.1, 0.2, 0.3, 0.4], cl.Clustering([1, 1, 2, 2]))
        assert np.allclose(q, [0.3, 0.7])

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="covers 3 variants, need 2"):
            cl.aggregate([0.5, 0.5], cl.Clustering([1, 1, 2]))


class TestClusteredFisher:
    def test_identity_matches_plain(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            p, pdot, _ = random_instance(gen, 5)
            assert cl.clustered_fisher(p, pdot, cl.Clustering(range(1, 6))) == \
                pytest.approx(fisher_information(p, pdot), rel=1e-14, abs=1e-300)

    def test_single_cluster_is_zero(self):
        gen = np.random.default_rng(1)
        p, pdot, _ = random_instance(gen, 5)
        assert abs(cl.clustered_fisher(p, pdot, cl.Clustering([1] * 5))) < 1e-28

    def test_piecewise_constant_couplings_lose_nothing(self):
        # d constant inside each cluster -> clustering is sufficient
        gen = np.random.default_rng(2)
        f = cl.Clustering([1, 1, 2, 2, 3])
        w = gen.integers(1, 50, size=5).astype(float)
        p = w / w.sum()
        d = np.array([2.0, 2.0, -1.0, -1.0, 0.5])
        pdot_raw = p * (d - np.dot(p, d))
        pdot = pdot_raw - pdot_raw.sum() / 5
        g = fisher_information(p, pdot)
        g_f = cl.clustered_fisher(p, pdot, f)
        assert g_f == pytest.approx(g, rel=1e-12)

    def test_sandwich_bounds(self):
        gen = np.random.default_rng(3)
        for _ in range(200):
            size = int(gen.integers(3, 9))
            p, pdot, _ = random_instance(gen, size)
            ell = int(gen.integers(1, size + 1))
            f = random_clustering(gen, size, ell)
            g = fisher_information(p, pdot)
            g_f = cl.clustered_fisher(p, pdot, f)
            assert -1e-15 <= g_f <= g * (1 + 1e-12) + 1e-15


class TestDeltaForms:
    def test_identity_is_zero(self):
        gen = np.random.default_rng(4)
        p, pdot, d = random_instance(gen, 6)
        ident = cl.Clustering(range(1, 7))
        assert cl.delta_g_prob_form(p, pdot, ident) == pytest.approx(0.0, abs=1e-18)
        assert delta_g_coupling_form(p, d, ident) == pytest.approx(0.0, abs=1e-18)

    def test_sufficient_clustering_is_zero(self):
        gen = np.random.default_rng(5)
        f = cl.Clustering([1, 2, 2, 1, 3, 3])
        w = gen.integers(1, 50, size=6).astype(float)
        p = w / w.sum()
        d = np.array([1.0, -2.0, -2.0, 1.0, 0.25, 0.25])
        pdot_raw = p * (d - np.dot(p, d))
        pdot = pdot_raw - pdot_raw.sum() / 6
        assert cl.delta_g_prob_form(p, pdot, f) < 1e-12
        assert delta_g_coupling_form(p, d, f) < 1e-12

    def test_forms_agree_with_direct_subtraction(self):
        gen = np.random.default_rng(6)
        for _ in range(1000):
            size = int(gen.integers(3, 9))
            p, pdot, d = random_instance(gen, size)
            ell = int(gen.integers(2, size + 1))
            f = random_clustering(gen, size, ell)
            g = fisher_information(p, pdot)
            direct = g - cl.clustered_fisher(p, pdot, f)
            dgp = cl.delta_g_prob_form(p, pdot, f)
            dgc = delta_g_coupling_form(p, d, f)
            # direct subtraction itself carries roundoff of a few ulp of g
            tol = 1e-10 * abs(direct) + 8e-16 * g + 1e-300
            assert abs(dgp - direct) <= tol
            assert abs(dgc - direct) <= tol
            assert dgp >= 0.0 and dgc >= 0.0

    def test_coupling_count_must_match(self):
        p, _, d = random_instance(np.random.default_rng(11), 6)
        with pytest.raises(ValueError, match="covers 6 variants, need 5"):
            delta_g_coupling_form(p, d[:5], cl.Clustering(range(1, 7)))

    def test_coupling_shift_invariance(self):
        gen = np.random.default_rng(7)
        p, _, d = random_instance(gen, 7)
        f = random_clustering(gen, 7, 3)
        base = delta_g_coupling_form(p, d, f)
        for c in (-10.0, 0.5, 1e4):
            shifted = delta_g_coupling_form(p, d + c, f)
            assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestSufficiencyResiduals:
    def test_identity_is_exact(self):
        traj = dyn.solve_sir(dyn.default_sir_params(4), grid(2.0, 1e-3))
        assert sufficiency_residuals(traj, cl.Clustering(range(1, 5))) == 0.0

    def test_symmetric_model_block_clustering(self):
        traj = dyn.solve_sir(dyn.grouped_sir_params([2, 2, 2]), grid(10.0, 1e-3))
        f = cl.Clustering([1, 1, 2, 2, 3, 3])
        assert sufficiency_residuals(traj, f) < 1e-8

    def test_sufficient_blocks_vanish_to_rounding(self):
        groups = [9, 9, 8, 8, 8, 8]
        traj = dyn.solve_sir(dyn.grouped_sir_params(groups), grid(10.0, 0.0125))
        f = cl.Clustering(np.repeat(np.arange(1, 7), groups))
        assert sufficiency_residuals(traj, f) <= 1e-15

    def test_matches_central_difference(self):
        # on the interior rows, where the central difference of the shares
        # is defined, the two agree to O(step^2)
        params = dyn.default_sir_params(6)
        f = cl.Clustering([1, 1, 2, 2, 3, 3])
        labels = f.labels

        def gap(step):
            traj = dyn.solve_sir(params, grid(5.0, step))
            p = traj.p()
            q = np.stack([p[:, labels == a].sum(axis=1) for a in range(3)], axis=1)
            r = p / q[:, labels]
            fd = np.max(np.abs(r[2:] - r[:-2])) / (2.0 * step)
            interior = dyn.Trajectory(traj.times[1:-1], traj.susceptible[1:-1],
                                      traj.cumulative_susceptible[1:-1],
                                      traj.recovered[1:-1], traj.total_infected[1:-1], params)
            return abs(sufficiency_residuals(interior, f) - fd)

        coarse, fine = gap(0.01), gap(0.005)
        assert coarse <= 2e-3 * 0.01**2
        assert 3.5 <= coarse / fine <= 4.5

    def test_generic_model_not_sufficient(self):
        traj = dyn.solve_sir(dyn.default_sir_params(6), grid(5.0, 1e-3))
        f = cl.Clustering([1, 1, 2, 2, 3, 3])
        assert sufficiency_residuals(traj, f) > 1e-4
        k = 1000  # t = 1
        dg = cl.delta_g_prob_form(*traj.replicator(k)[:2], f)
        assert dg > 0.0


class TestKmeans:
    def test_two_separated_groups(self):
        feats = np.array([[0.0], [0.1], [5.0], [5.1]])
        f = cl.kmeans(feats, 2)
        assert f.labels[0] == f.labels[1]
        assert f.labels[2] == f.labels[3]
        assert f.labels[0] != f.labels[2]

    def test_six_synthetic_groups_recovered(self):
        gen = np.random.default_rng(8)
        centers = np.arange(6) * 10.0
        rows, truth = [], []
        for g, c in enumerate(centers):
            for _ in range(4):
                rows.append([c + gen.uniform(-0.5, 0.5), c + gen.uniform(-0.5, 0.5)])
                truth.append(g)
        f = cl.kmeans(np.array(rows), 6)
        # same group <-> same label
        for i in range(len(rows)):
            for j in range(len(rows)):
                same = truth[i] == truth[j]
                assert (f.labels[i] == f.labels[j]) == same

    def test_each_point_its_own_cluster(self):
        feats = np.array([[3.0], [1.0], [2.0], [0.0]])
        f = cl.kmeans(feats, 4)
        assert sorted(f.labels) == [0, 1, 2, 3]
        assert kmeans_objective(feats, f) == 0.0

    @pytest.mark.parametrize("distinct", [12, 5], ids=["distinct", "duplicates"])
    def test_row_permutation_changes_only_labels(self, distinct):
        gen = np.random.default_rng(10)
        feats = gen.normal(size=(distinct, 4))[np.arange(12) % distinct]
        perm = gen.permutation(12)
        f = cl.kmeans(feats, 3)
        f_perm = cl.kmeans(feats[perm], 3)
        assert same_partition(f.labels[perm], f_perm.labels)

    def test_surjective_even_with_duplicate_rows(self):
        feats = np.zeros((5, 2))
        f = cl.kmeans(feats, 3)
        assert f.n_clusters == 3

    def test_rounding_does_not_decide_ties(self):
        # ten evenly spaced points on a line: the seeds are points 1, 5 and 8,
        # so point 3 is equidistant from the first two; one ulp toward point
        # 5 must not move it
        feats = np.arange(10.0)[:, None] * np.array([1.0, 0.2])
        nudged = feats.copy()
        nudged[3] = np.nextafter(feats[3], np.inf)
        assert np.array_equal(cl.kmeans(nudged, 3).labels, cl.kmeans(feats, 3).labels)

    def test_more_clusters_than_rate_groups_split_the_first_group(self):
        # six distinct rate rows: with more clusters than that, no iteration
        # runs.  The six groups take labels 0-5 in order of first principal
        # score, and each further cluster takes the next variant of the first
        # group in that order, with these zero-based labels, one character
        # per variant.  Every split keeps each cluster inside one rate group,
        # and so loses no information, as the full-space reference's cycling
        # iterations do
        pinned = {
            7: "06000000011111111122222222333333334444444455555555",
            8: "06700000011111111122222222333333334444444455555555",
            9: "06780000011111111122222222333333334444444455555555",
            10: "06789000011111111122222222333333334444444455555555",
            11: "06789a00011111111122222222333333334444444455555555",
            12: "06789ab0011111111122222222333333334444444455555555",
        }
        groups = [9, 9, 8, 8, 8, 8]
        traj = dyn.solve_sir(dyn.grouped_sir_params(groups), grid(10.0, 0.25))
        feats = cl.kmeans_features(traj, slice(None))
        assert len(np.unique(feats, axis=0)) == 6
        group = np.repeat(np.arange(6), groups)
        k = 4  # t = 1
        for ell, labels in pinned.items():
            got = "".join("0123456789ab"[a] for a in cl.kmeans(feats, ell).labels)
            assert got == labels, ell
            for f in (cl.kmeans(feats, ell), reference_kmeans(feats, ell)):
                assert f.n_clusters == ell
                assert all(np.unique(group[f.labels == a]).size == 1 for a in range(ell))
                assert cl.delta_g_prob_form(*traj.replicator(k)[:2], f) < 1e-30

    def test_identical_feature_rows_give_identical_points(self):
        # the shipped elbow model: each rate group's feature rows are equal,
        # and so must be its points, bit for bit, wherever the rows sit
        groups = [9, 9, 8, 8, 8, 8]
        traj = dyn.solve_sir(dyn.grouped_sir_params(groups), grid(10.0, 0.25))
        feats = cl.kmeans_features(traj, slice(None))
        points, order = cl.principal_scores(feats)
        group = np.repeat(np.arange(6), groups)
        for g in range(6):
            assert len(np.unique(feats[group == g], axis=0)) == 1
            assert len(np.unique(points[group == g], axis=0)) == 1, g
        assert np.all(np.diff(points[order, 0]) >= 0)

    def test_validation(self):
        for n_clusters in (0, 4):
            with pytest.raises(ValueError, match="need 1 <= n_clusters <= 3"):
                cl.kmeans(np.zeros((3, 1)), n_clusters)


class TestKmeansAgainstFullSpace:
    """`cl.kmeans` runs Lloyd's iterations in the principal coordinates of the
    features; on inputs with distinct rows it gives the labels of
    `reference_kmeans`, which uses every column."""

    @pytest.mark.parametrize("n_variants, seed", [(10, 1), (40, 2), (40, 3), (200, 4)])
    def test_random_rate_models(self, n_variants, seed):
        feats = random_rate_features(n_variants, seed)
        for ell in (2, 3, 5, 8, 13):
            if ell <= n_variants:
                assert np.array_equal(cl.kmeans(feats, ell).labels,
                                      reference_kmeans(feats, ell).labels), ell

    @pytest.mark.parametrize("n_variants", [10, 1000])
    def test_default_model(self, n_variants):
        traj = dyn.solve_sir(dyn.default_sir_params(n_variants), grid(10.0, 0.25))
        feats = cl.kmeans_features(traj, slice(None))
        for ell in (1, 2, 3, 5, 8, 10):
            assert np.array_equal(cl.kmeans(feats, ell).labels,
                                  reference_kmeans(feats, ell).labels), ell

    def test_sampled_rate_features(self):
        # full rank: sampled rates carry independent noise in every column
        traj = dyn.solve_sir(dyn.default_sir_params(20), grid(10.0, 0.25))
        rows, n = np.arange(41), 100000
        counts = rng.sample_block(traj.p(rows), n,
                                  rng.derive_key(3, np.arange(rows.size, dtype=np.uint64)))
        feats = np.ascontiguousarray(smp.info_rate_hat(counts / n, 0.25).T)
        assert centered_rank(feats) == 19  # M - 1, the rank of 20 centered rows
        for ell in (2, 3, 5, 8, 13):
            assert np.array_equal(cl.kmeans(feats, ell).labels,
                                  reference_kmeans(feats, ell).labels), ell


def same_partition(a, b):
    """Whether two label arrays group the variants alike, whatever the names."""
    return all((a[i] == a[j]) == (b[i] == b[j]) for i in range(a.size) for j in range(a.size))


@st.composite
def repeated_rows(draw):
    """(features, row of each variant): G <= 5 distinct rows of 1-3 normal
    columns, each repeated 1-4 times, in shuffled order."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 5))
    distinct = gen.normal(size=(n_rows, draw(st.integers(1, 3))))
    row = np.repeat(np.arange(n_rows), draw(st.lists(st.integers(1, 4), min_size=n_rows,
                                                    max_size=n_rows)))
    gen.shuffle(row)
    return distinct[row], row


class TestRepeatedRows:
    """`cl.lloyd` iterates over the distinct points, each weighted by its
    number of variants, and with more clusters than distinct points it
    splits them by a fixed rule instead."""

    @given(data=repeated_rows(), ell=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_property(self, data, ell, seed):
        feats, row = data
        n_variants, n_rows = row.size, row.max() + 1
        ell = 1 + (ell - 1) % n_variants
        f = cl.kmeans(feats, ell)
        assert f.n_clusters == ell
        if ell <= n_rows:
            # identical rows share a label
            assert all(np.unique(f.labels[row == r]).size == 1 for r in range(n_rows))
            perm = np.random.default_rng(seed).permutation(n_variants)
            assert same_partition(f.labels[perm], cl.kmeans(feats[perm], ell).labels)
        else:
            # every cluster inside one distinct row, at no cost but the
            # rounding of a mean of equal rows
            assert all(np.unique(row[f.labels == a]).size == 1 for a in range(ell))
            assert kmeans_objective(feats, f) <= 1e-28 * np.sum(feats * feats)

    def test_distinct_rows_in_order_of_first_occurrence(self):
        points = np.array([[2.0, 0.0], [1.0, 5.0], [2.0, 0.0], [1.0, 4.0], [1.0, 5.0]])
        distinct, counts, of = cl.distinct_rows(points)
        assert distinct.tolist() == [[2.0, 0.0], [1.0, 5.0], [1.0, 4.0]]
        assert counts.tolist() == [2, 2, 1] and of.tolist() == [0, 1, 0, 2, 1]
        distinct, counts, of = cl.distinct_rows(points[[0, 1, 3]])
        assert np.array_equal(distinct, points[[0, 1, 3]])
        assert counts.tolist() == [1, 1, 1] and of.tolist() == [0, 1, 2]

    def test_centroids_weigh_each_point_by_its_variants(self):
        # seeds 1.6 and 1.9; the centroid of {1.9, 1.9, 2.6} is 2.133 with
        # each point weighted by its variants, so 1.9 stays there (0.233
        # against 0.3 to 1.6), as in Lloyd's iterations over the variants.
        # The unweighted mean 2.25 of the two points would send it to 1.6
        feats = np.array([[1.6], [1.6], [1.9], [1.9], [2.6]])
        assert cl.kmeans(feats, 2).labels.tolist() == [0, 0, 1, 1, 1]
        assert np.array_equal(reference_kmeans(feats, 2).labels, [0, 0, 1, 1, 1])


class TestSharedScores:
    """An elbow scan takes `principal_scores` once and runs `lloyd` for each
    cluster count; every count must give the labels of a fresh `kmeans`."""

    @staticmethod
    def check(feats, ells):
        scores = cl.principal_scores(feats)
        points, order = (a.copy() for a in scores)
        for ell in ells:
            assert np.array_equal(cl.lloyd(scores, ell).labels, cl.kmeans(feats, ell).labels), ell
        # lloyd leaves the shared scores as it found them
        assert np.array_equal(scores[0], points) and np.array_equal(scores[1], order)

    @pytest.mark.parametrize("groups, ells", [
        ([9, 9, 8, 8, 8, 8], range(4, 11)),  # scripts/configs/elbow_scan.cfg
        ([167, 167, 167, 167, 166, 166], range(4, 13)),  # the model-scan benchmark
    ])
    def test_elbow_scan_models(self, groups, ells):
        traj = dyn.solve_sir(dyn.grouped_sir_params(groups), grid(10.0, 0.25))
        self.check(cl.kmeans_features(traj, slice(None)), ells)

    def test_full_rank_features(self):
        feats = np.random.default_rng(7).normal(size=(200, 41))
        assert centered_rank(feats) == 41
        self.check(feats, range(2, 14))


class TestKmeansFeatures:
    def test_constant_model_gives_zero_rows(self):
        params = dyn.SirParams([2.0, 2.0], [1.0, 1.0], 0.9, [0.03, 0.07], 0.0)
        traj = dyn.solve_sir(params, [0.5, 1.0, 1.5])
        feats = cl.kmeans_features(traj, slice(None))
        assert feats.shape == (2, 3)
        assert np.max(np.abs(feats)) < 1e-12

    def test_single_instant_gives_scalar_features(self):
        traj = dyn.solve_sir(dyn.default_sir_params(4), [1.0])
        feats = cl.kmeans_features(traj, np.array([0]))
        assert feats.shape == (4, 1)

    def test_model_features_have_rank_at_most_two(self):
        # centered rows are combinations of S and 1; grouped rates are affine
        # in one index, which leaves one direction
        assert centered_rank(random_rate_features(40, 5)) == 2
        traj = dyn.solve_sir(dyn.grouped_sir_params([9, 9, 8, 8, 8, 8]), grid(10.0, 0.25))
        assert centered_rank(cl.kmeans_features(traj, slice(None))) == 1

    def test_desk_model_bands_follow_coupling_order(self):
        # monotone rate design: rate rows separate into contiguous bands
        traj = dyn.solve_sir(dyn.default_sir_params(10), grid(10.0, 0.25))
        f = cl.kmeans(cl.kmeans_features(traj, slice(None)), 3)
        changes = np.count_nonzero(np.diff(f.labels))
        assert changes == 2  # three contiguous blocks


class TestElbow:
    def test_piecewise_linear_kink(self):
        # slope -2 before ell=6, flat after
        curve = [(e, 12.0 - 2.0 * e if e < 6 else 0.0) for e in range(2, 10)]
        assert cl.elbow_select(curve) == 6

    def test_strictly_linear_has_no_elbow(self):
        curve = [(e, 10.0 - e) for e in range(2, 9)]
        with pytest.raises(cl.NoElbowError):
            cl.elbow_select(curve)

    def test_tie_breaks_toward_smaller_ell(self):
        curve = [(2, 6.0), (3, 3.0), (4, 1.0), (5, 0.0), (6, 0.0)]
        second = [6.0 - 2 * 3.0 + 1.0, 3.0 - 2 * 1.0 + 0.0, 1.0 - 2 * 0.0 + 0.0]
        assert second[0] == second[1] == second[2]  # three-way tie
        assert cl.elbow_select(curve) == 3

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            cl.elbow_select([(2, 1.0), (3, 0.5), (4, 0.2)])

    def test_non_increasing_ell_rejected(self):
        with pytest.raises(ValueError):
            cl.elbow_select([(2, 1.0), (2, 0.5), (3, 0.2), (4, 0.1)])


class TestCsv:
    """clustering.csv and elbow_curve.csv, as the experiments write them."""

    def test_clustering_round_trip(self, tmp_path):
        path = tmp_path / "clustering.csv"
        cli.write_csv(path, *cli._clustering_table(cl.Clustering([1, 2, 1, 3])))
        assert path.read_bytes() == b"mu,label\n1,1\n2,2\n3,1\n4,3\n"

    def test_delta_curve(self, tmp_path):
        path = tmp_path / "curve.csv"
        cli.write_csv(path, ["ell", "delta_g"], [(2, 3), (0.5, 0.125)])
        assert path.read_bytes() == b"ell,delta_g\n2,0.5\n3,0.125\n"
