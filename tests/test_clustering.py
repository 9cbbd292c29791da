import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import clustering as cl
from infodyn import dynamics as dyn
from infodyn.simplex import Distribution, TangentVector, fisher_information


def random_instance(gen, size):
    """Interior point, replicator-compatible velocity, and its couplings."""
    w = gen.integers(1, 100, size=size).astype(float)
    p = Distribution(w / w.sum())
    d = gen.normal(size=size) * 3.0
    pdot = p.probs * (d - np.dot(p.probs, d))
    return p, TangentVector(pdot - pdot.sum() / size), d


def random_clustering(gen, size, ell):
    labels = np.concatenate([np.arange(1, ell + 1),
                             gen.integers(1, ell + 1, size=size - ell)])
    gen.shuffle(labels)
    return cl.Clustering(labels)


class TestClustering:
    def test_surjectivity_enforced(self):
        with pytest.raises(ValueError, match="surjective"):
            cl.Clustering([1, 1, 3], n_clusters=3)

    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            cl.Clustering([0, 1, 2])
        with pytest.raises(ValueError):
            cl.Clustering([1, 2, 5], n_clusters=3)

    def test_identity_and_single(self):
        ident = cl.Clustering.identity(4)
        assert ident.assignment == (1, 2, 3, 4)
        single = cl.Clustering.single(4)
        assert single.n_clusters == 1
        assert single.members(1) == [0, 1, 2, 3]

    def test_refines(self):
        fine = cl.Clustering([1, 2, 3, 4])
        coarse = cl.Clustering([1, 1, 2, 2])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert coarse.refines(coarse)


class TestClusterProbs:
    def test_identity(self):
        p = Distribution([0.1, 0.2, 0.7])
        q = cl.cluster_probs(p, cl.Clustering.identity(3))
        assert np.array_equal(q.probs, p.probs)

    def test_single(self):
        q = cl.cluster_probs(Distribution([0.5, 0.5]), cl.Clustering.single(2))
        assert q.probs.tolist() == [1.0]

    def test_hand_value(self):
        q = cl.cluster_probs(Distribution([0.1, 0.2, 0.3, 0.4]),
                             cl.Clustering([1, 1, 2, 2]))
        assert np.allclose(q.probs, [0.3, 0.7])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            cl.cluster_probs(Distribution([0.5, 0.5]), cl.Clustering([1, 1, 2]))


class TestClusteredFisher:
    def test_identity_matches_plain(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            p, pdot, _ = random_instance(gen, 5)
            assert cl.clustered_fisher(p, pdot, cl.Clustering.identity(5)) == \
                pytest.approx(fisher_information(p, pdot), rel=1e-14, abs=1e-300)

    def test_single_cluster_is_zero(self):
        gen = np.random.default_rng(1)
        p, pdot, _ = random_instance(gen, 5)
        assert abs(cl.clustered_fisher(p, pdot, cl.Clustering.single(5))) < 1e-28

    def test_piecewise_constant_couplings_lose_nothing(self):
        # d constant inside each cluster -> clustering is sufficient
        gen = np.random.default_rng(2)
        f = cl.Clustering([1, 1, 2, 2, 3])
        w = gen.integers(1, 50, size=5).astype(float)
        p = Distribution(w / w.sum())
        d = np.array([2.0, 2.0, -1.0, -1.0, 0.5])
        pdot_raw = p.probs * (d - np.dot(p.probs, d))
        pdot = TangentVector(pdot_raw - pdot_raw.sum() / 5)
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
        ident = cl.Clustering.identity(6)
        assert cl.delta_g_prob_form(p, pdot, ident) == pytest.approx(0.0, abs=1e-18)
        assert cl.delta_g_coupling_form(p, d, ident) == pytest.approx(0.0, abs=1e-18)

    def test_sufficient_clustering_is_zero(self):
        gen = np.random.default_rng(5)
        f = cl.Clustering([1, 2, 2, 1, 3, 3])
        w = gen.integers(1, 50, size=6).astype(float)
        p = Distribution(w / w.sum())
        d = np.array([1.0, -2.0, -2.0, 1.0, 0.25, 0.25])
        pdot_raw = p.probs * (d - np.dot(p.probs, d))
        pdot = TangentVector(pdot_raw - pdot_raw.sum() / 6)
        assert cl.delta_g_prob_form(p, pdot, f) < 1e-12
        assert cl.delta_g_coupling_form(p, d, f) < 1e-12

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
            dgc = cl.delta_g_coupling_form(p, d, f)
            # direct subtraction itself carries roundoff of a few ulp of g
            tol = 1e-10 * abs(direct) + 8e-16 * g + 1e-300
            assert abs(dgp - direct) <= tol
            assert abs(dgc - direct) <= tol
            assert dgp >= 0.0 and dgc >= 0.0

    def test_coupling_shift_invariance(self):
        gen = np.random.default_rng(7)
        p, _, d = random_instance(gen, 7)
        f = random_clustering(gen, 7, 3)
        base = cl.delta_g_coupling_form(p, d, f)
        for c in (-10.0, 0.5, 1e4):
            shifted = cl.delta_g_coupling_form(p, d + c, f)
            assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestSufficiencyResiduals:
    def test_identity_is_exact(self):
        traj = dyn.integrate_sir(dyn.default_sir_params(4), 2.0, 1e-3)
        assert cl.sufficiency_residuals(traj, cl.Clustering.identity(4)) == 0.0

    def test_symmetric_model_block_clustering(self):
        traj = dyn.integrate_sir(dyn.grouped_sir_params([2, 2, 2]), 10.0, 1e-3)
        f = cl.Clustering([1, 1, 2, 2, 3, 3])
        assert cl.sufficiency_residuals(traj, f) < 1e-8

    def test_generic_model_not_sufficient(self):
        traj = dyn.integrate_sir(dyn.default_sir_params(6), 5.0, 1e-3)
        f = cl.Clustering([1, 1, 2, 2, 3, 3])
        assert cl.sufficiency_residuals(traj, f) > 1e-4
        k = traj.index_at(1.0)
        dg = cl.delta_g_prob_form(Distribution(traj.p(k)),
                                  TangentVector(traj.pdot(k)), f)
        assert dg > 0.0


class TestKmeans:
    def test_two_separated_groups(self):
        feats = np.array([[0.0], [0.1], [5.0], [5.1]])
        f = cl.kmeans(feats, 2)
        assert f.assignment[0] == f.assignment[1]
        assert f.assignment[2] == f.assignment[3]
        assert f.assignment[0] != f.assignment[2]

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
                assert (f.assignment[i] == f.assignment[j]) == same

    def test_each_point_its_own_cluster(self):
        feats = np.array([[3.0], [1.0], [2.0], [0.0]])
        f = cl.kmeans(feats, 4)
        assert sorted(f.assignment) == [1, 2, 3, 4]
        assert cl.kmeans_objective(feats, f) == 0.0

    def test_objective_non_increasing_in_iterations(self):
        gen = np.random.default_rng(9)
        feats = gen.normal(size=(40, 3))
        objectives = [cl.kmeans_objective(feats, cl.kmeans(feats, 5, max_iters=i))
                      for i in range(1, 8)]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))

    def test_row_permutation_changes_only_labels(self):
        gen = np.random.default_rng(10)
        feats = gen.normal(size=(12, 4))
        perm = gen.permutation(12)
        f = cl.kmeans(feats, 3)
        f_perm = cl.kmeans(feats[perm], 3)
        for i in range(12):
            for j in range(12):
                assert (f.assignment[perm[i]] == f.assignment[perm[j]]) == \
                    (f_perm.assignment[i] == f_perm.assignment[j])

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
        assert cl.kmeans(nudged, 3).assignment == cl.kmeans(feats, 3).assignment

    def test_validation(self):
        with pytest.raises(ValueError):
            cl.kmeans(np.zeros((3, 1)), 4)
        with pytest.raises(ValueError):
            cl.kmeans(np.zeros((3, 1)), 2, max_iters=0)


class TestKmeansFeatures:
    def test_constant_model_gives_zero_rows(self):
        params = dyn.SirParams([2.0, 2.0], [1.0, 1.0], 0.9, [0.03, 0.07], 0.0)
        traj = dyn.integrate_sir(params, 2.0, 1e-3)
        feats = cl.kmeans_features(traj, np.array([0.5, 1.0, 1.5]))
        assert feats.shape == (2, 3)
        assert np.max(np.abs(feats)) < 1e-12

    def test_single_instant_gives_scalar_features(self):
        traj = dyn.integrate_sir(dyn.default_sir_params(4), 2.0, 1e-3)
        feats = cl.kmeans_features(traj, np.array([1.0]))
        assert feats.shape == (4, 1)

    def test_desk_model_bands_follow_coupling_order(self):
        # monotone rate design: rate rows separate into contiguous bands
        traj = dyn.integrate_sir(dyn.default_sir_params(10), 10.0, 1e-3)
        grid_times = np.arange(41) * 0.25
        f = cl.kmeans(cl.kmeans_features(traj, grid_times), 3)
        labels = np.asarray(f.assignment)
        changes = np.count_nonzero(np.diff(labels))
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
    def test_clustering_round_trip(self, tmp_path):
        f = cl.Clustering([1, 2, 1, 3])
        path = tmp_path / "clust.csv"
        cl.clustering_to_csv(f, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "mu,label"
        assert rows[1:] == ["1,1", "2,2", "3,1", "4,3"]

    def test_delta_curve(self, tmp_path):
        path = tmp_path / "curve.csv"
        cl.delta_curve_to_csv([(2, 0.5), (3, 0.125)], path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "ell,delta_g"
        assert rows[1] == "2,0.5"
