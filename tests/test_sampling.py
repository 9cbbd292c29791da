import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infodyn import dynamics as dyn
from infodyn import filtering as flt
from infodyn import rng
from infodyn import sampling as smp
from infodyn.clustering import Clustering, aggregate
from infodyn.simplex import shahshahani_distance_sq
from conftest import grid

DT = 0.25
STRIDE = 250  # DT in rows of desk_traj, whose step is 1e-3
P4 = np.array([0.1, 0.2, 0.3, 0.4])


@pytest.fixture(scope="module")
def desk_traj():
    return dyn.solve_sir(dyn.default_sir_params(10), grid(10.0, 1e-3))


def reference_between(p_lo, p_hi):
    """Weights and displacement of the per-instant estimators that the
    whole-grid ones replaced."""
    total = p_lo + p_hi
    s = np.where(total > 0, 2.0 / np.where(total > 0, total, 1.0), 0.0)
    return s, p_hi - p_lo


def reference_fisher(lo, hi, dt):
    s, diff = reference_between(lo, hi)
    diff = diff / dt
    return float(np.sum(s * diff * diff))


def reference_rates(lo, hi, dt):
    s, diff = reference_between(lo, hi)
    return s * diff / dt


def reference_estimates(counts, n, dt, f):
    """Per-interval values of the four estimators on one (K, M) count array,
    computed instant pair by instant pair: (fisher, clustered fisher, rates,
    cluster rates)."""
    out = ([], [], [], [])
    for k in range(len(counts) - 1):
        lo, hi = counts[k] / n, counts[k + 1] / n
        clo, chi = aggregate(counts[k], f) / n, aggregate(counts[k + 1], f) / n
        out[0].append(reference_fisher(lo, hi, dt))
        out[1].append(reference_fisher(clo, chi, dt))
        out[2].append(reference_rates(lo, hi, dt))
        out[3].append(reference_rates(clo, chi, dt))
    return out


def reference_monte_carlo(estimator, replications, seed, p, n):
    """The per-replication loop the block driver replaced: one fresh stream
    per replication (and instant), the estimator applied to one replication
    at a time, and each component summarised alone.  Returns (values, mean,
    standard error, variance, variance SE): the variance is std * std, and
    its SE sqrt((m4 - var^2 (R-3)/(R-1)) / R) with m4 the fourth central
    moment."""
    values = []
    for r in range(replications):
        seed_r = rng.derive_key(seed, r)
        if p.ndim == 1:
            counts = rng.stream(seed_r).multinomial(n, p)
        else:
            counts = np.stack([rng.stream(rng.derive_key(seed_r, k)).multinomial(n, row)
                               for k, row in enumerate(p)])
        values.append(estimator(counts[None])[0])
    values = np.asarray(values, dtype=float)

    def summary(column):
        std = float(column.std(ddof=1))
        square = (column - column.mean()) ** 2
        var, m4 = std * std, float(np.mean(square * square))
        var_se = math.sqrt((m4 - var * var * (replications - 3) / (replications - 1))
                           / replications)
        return float(column.mean()), std / np.sqrt(replications), var, var_se

    if values.ndim == 1:
        return (values, *summary(values))
    columns = [summary(np.ascontiguousarray(values[:, j])) for j in range(values.shape[1])]
    return (values, *(np.array(stat) for stat in zip(*columns)))


def recording(estimator):
    """The estimator, and the list of the value chunks it returns."""
    seen = []

    def record(counts):
        seen.append(estimator(counts))
        return seen[-1]

    return record, seen


def random_clustering(gen, size, ell):
    labels = np.concatenate([np.arange(1, ell + 1),
                             gen.integers(1, ell + 1, size=size - ell)])
    gen.shuffle(labels)
    return Clustering(labels)


def refine(gen, coarse):
    """Random refinement: split every cluster of `coarse` in two when possible."""
    next_label = 1
    fine = np.zeros(coarse.labels.size, dtype=int)
    for a in range(coarse.n_clusters):
        members = np.flatnonzero(coarse.labels == a)
        split = gen.integers(0, 2, size=len(members))
        if len(members) > 1 and 0 < split.sum() < len(members):
            for mu, s in zip(members, split):
                fine[mu] = next_label + int(s)
            next_label += 2
        else:
            for mu in members:
                fine[mu] = next_label
            next_label += 1
    return Clustering(fine)


class TestSampleTrajectory:
    def test_deterministic(self, desk_traj):
        rows = STRIDE * np.arange(9)
        a = smp.sample_trajectory(desk_traj.p(rows), 1000, 77)
        b = smp.sample_trajectory(desk_traj.p(rows), 1000, 77)
        assert np.array_equal(a, b)
        c = smp.sample_trajectory(desk_traj.p(rows), 1000, 78)
        assert not np.array_equal(a, c)

    def test_counts_sum_to_n(self, desk_traj):
        counts = smp.sample_trajectory(desk_traj.p(STRIDE * np.arange(9)), 321, 5)
        assert np.all(counts.sum(axis=1) == 321)

    def test_instants_use_isolated_substreams(self):
        # instant k is reproducible alone via the (seed, k) sub-stream
        for n_variants in (2, 10, 1000):
            traj = dyn.solve_sir(dyn.default_sir_params(n_variants), grid(2.0, 0.01))
            for count, stride in ((2, 50), (41, 5)):  # dt = 0.5 and 0.05
                rows = stride * np.arange(count)
                for n in (1, 100000):
                    counts = smp.sample_trajectory(traj.p(rows), n, 91)
                    for k, row in enumerate(rows.tolist()):
                        direct = rng.stream(rng.derive_key(91, k)).multinomial(n, traj.p(row))
                        assert np.array_equal(counts[k], direct), (n_variants, count, n, k)

    def test_large_n_consistency(self, desk_traj):
        rows = STRIDE * np.arange(41)
        counts = smp.sample_trajectory(desk_traj.p(rows), 10_000_000, 11)
        for k, row in enumerate(rows.tolist()):
            assert np.max(np.abs(counts[k] / 10_000_000 - desk_traj.p(row))) < 1e-3


class TestFisherHat:
    def test_no_displacement(self):
        assert smp.fisher_hat(np.array([[5, 5], [5, 5]]) / 10, DT).tolist() == [0.0]

    def test_hand_value(self):
        # phat (0.5,0.5) -> (0.6,0.4), dt = 0.25
        expected = (0.01 / 0.0625) * (1 / 0.55 + 1 / 0.45)
        assert smp.fisher_hat(np.array([[5, 5], [6, 4]]) / 10, DT)[0] == \
            pytest.approx(expected, rel=1e-14)

    def test_zero_count_category_contributes_nothing(self):
        with_dead = smp.fisher_hat(np.array([[5, 5, 0], [6, 4, 0]]) / 10, DT)
        assert with_dead[0] == smp.fisher_hat(np.array([[5, 5], [6, 4]]) / 10, DT)[0]

    def test_one_value_per_interval(self):
        values = smp.fisher_hat(np.array([[5, 5], [6, 4], [6, 4], [5, 5]]) / 10, DT)
        assert values.shape == (3,)
        assert values[1] == 0.0 and values[0] == values[2] > 0.0

    def test_scaled_bias_law_mid_sample_size(self, desk_traj):
        # (MC mean - g_tt) * n dt^2 / (2N) is 1 at the middle sample size too
        n, dt, reps = 30000, 0.25, 300
        k = 5000  # t = 5
        p = desk_traj.p(np.array([k - STRIDE // 2, k + STRIDE // 2]))
        g_tt = float(desk_traj.replicator(k)[2])
        est = smp.monte_carlo_components(lambda c: smp.fisher_hat(c / n, dt)[:, 0], reps, 4242,
                                         p, n)
        scale = n * dt**2 / (2 * 9)
        ratio = (est.mean - g_tt) * scale
        assert abs(ratio - 1.0) <= 3 * est.se * scale

    def test_exact_mean_by_enumeration(self, desk_traj):
        # brute-force expectation over all count pairs for a 2-variant model
        n, dt = 5, 0.25
        p_lo = np.array([0.4, 0.6])
        p_hi = np.array([0.35, 0.65])

        def pmf(k, p):
            return math.comb(n, k) * p**k * (1 - p) ** (n - k)

        exact = 0.0
        for i, j in itertools.product(range(n + 1), repeat=2):
            value = smp.fisher_hat(np.array([[i, n - i], [j, n - j]]) / n, dt)[0]
            exact += pmf(i, p_lo[0]) * pmf(j, p_hi[0]) * value

        reps = 40000
        keys = rng.derive_key(rng.derive_key(2024, np.arange(reps, dtype=np.uint64)[:, None]),
                              np.arange(2, dtype=np.uint64))
        vals = smp.fisher_hat(rng.sample_block(np.stack([p_lo, p_hi]), n, keys) / n, dt)[:, 0]
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - exact) <= 3 * se


class TestClusteredFisherEstimate:
    """fisher_hat on the cluster sums aggregate(counts, f) / n."""

    def test_single_cluster_is_zero(self):
        counts = np.array([[5, 3, 2], [6, 2, 2]])
        assert smp.fisher_hat(aggregate(counts, Clustering([1] * 3)) / 10, DT).tolist() == [0.0]

    def test_identity_clustering_bitwise(self, desk_traj):
        counts = smp.sample_trajectory(desk_traj.p(4000 + STRIDE * np.arange(5)), 500, 2)
        ident = Clustering(range(1, 11))
        assert np.array_equal(smp.fisher_hat(aggregate(counts, ident) / 500, DT),
                              smp.fisher_hat(counts / 500, DT))

    def test_coarsening_never_increases(self):
        gen = np.random.default_rng(17)
        for _ in range(200):
            m = int(gen.integers(3, 9))
            w = gen.random(m) + 0.05
            counts = gen.multinomial(30, w / w.sum(), size=2)
            ell = int(gen.integers(1, m))
            coarse = random_clustering(gen, m, ell)
            fine = refine(gen, coarse)
            g_fine = smp.fisher_hat(aggregate(counts, fine) / 30, DT)[0]
            g_coarse = smp.fisher_hat(aggregate(counts, coarse) / 30, DT)[0]
            assert 0.0 <= g_coarse <= g_fine + 1e-12
            assert smp.fisher_hat(counts / 30, DT)[0] >= g_fine - 1e-12

    def test_wrong_size_clustering(self):
        with pytest.raises(ValueError):
            smp.fisher_hat(aggregate(np.array([[5, 5], [6, 4]]), Clustering(range(1, 4))) / 10, DT)


class TestInfoRateHat:
    def test_no_displacement(self):
        assert np.all(smp.info_rate_hat(np.array([[4, 6], [4, 6]]) / 10, DT) == 0.0)

    def test_hand_value(self):
        rates = smp.info_rate_hat(np.array([[5, 5], [6, 4]]) / 10, DT)[0]
        assert rates == pytest.approx([(2 / 1.1) * 0.4, -(2 / 0.9) * 0.4], rel=1e-14)

    def test_dead_category_rate_zero(self):
        assert smp.info_rate_hat(np.array([[5, 5, 0], [6, 4, 0]]) / 10, DT)[0, 2] == 0.0

    def test_cluster_version_identity(self, desk_traj):
        counts = smp.sample_trajectory(desk_traj.p(4000 + STRIDE * np.arange(2)), 700, 6)
        ident = Clustering(range(1, 11))
        assert np.array_equal(smp.info_rate_hat(aggregate(counts, ident) / 700, DT),
                              smp.info_rate_hat(counts / 700, DT))

    def test_cluster_version_single(self):
        counts = np.array([[5, 3, 2], [6, 2, 2]])
        single = aggregate(counts, Clustering([1] * 3))
        assert smp.info_rate_hat(single / 10, DT).tolist() == [[0.0]]


class TestWholeGridEstimators:
    @pytest.mark.parametrize("count", [2, 41])
    @pytest.mark.parametrize("n_variants", [2, 10, 200, 1000])
    def test_bit_identical_to_per_interval_reference(self, count, n_variants):
        gen = np.random.default_rng(count * 7919 + n_variants)
        w = gen.random(n_variants) + 0.01
        w[gen.choice(n_variants, size=n_variants // 3, replace=False)] = 0.0
        p = w / w.sum()
        for n in (1, 50, 100000):
            counts = gen.multinomial(n, p, size=count)
            f = random_clustering(gen, n_variants, max(1, n_variants // 4))
            fisher, clustered, rates, cluster_rates = reference_estimates(counts, n, DT, f)
            assert np.array_equal(smp.fisher_hat(counts / n, DT), fisher)
            assert np.array_equal(smp.fisher_hat(aggregate(counts, f) / n, DT), clustered)
            assert np.array_equal(smp.info_rate_hat(counts / n, DT), np.stack(rates))
            assert np.array_equal(smp.info_rate_hat(aggregate(counts, f) / n, DT),
                                  np.stack(cluster_rates))

    @given(seed=st.integers(0, 2**32 - 1), chunk=st.integers(1, 3), count=st.integers(2, 5),
           m=st.integers(1, 8), n=st.sampled_from([1, 2, 7, 1000]), ell=st.integers(1, 8),
           dead=st.integers(-1, 6))
    @example(seed=0, chunk=2, count=2, m=1, n=1, ell=1, dead=-1)  # one variant, one cluster
    @example(seed=1, chunk=3, count=3, m=5, n=1, ell=1, dead=2)   # n = 1, a dead category
    @example(seed=2, chunk=2, count=2, m=6, n=7, ell=6, dead=0)   # every variant its own cluster
    @settings(max_examples=150, deadline=None)
    def test_batched_rows_match_per_interval_reference(self, seed, chunk, count, m, n, ell,
                                                       dead):
        # zero counts, n = 1, a category that is zero at every instant (index
        # 1 + dead when dead >= 0), one variant, one cluster: each row of a
        # (C, K, M) batch equals the per-interval reference bit for bit
        gen = np.random.default_rng(seed)
        w = gen.random((count, m)) + 0.01
        if 0 <= dead < m - 1:
            w[:, 1 + dead] = 0.0
        counts = gen.multinomial(n, w / w.sum(axis=1, keepdims=True), size=(chunk, count))
        f = random_clustering(gen, m, min(ell, m))
        clustered = aggregate(counts, f) / n
        batched = (smp.fisher_hat(counts / n, DT), smp.fisher_hat(clustered, DT),
                   smp.info_rate_hat(counts / n, DT), smp.info_rate_hat(clustered, DT))
        for c in range(chunk):
            for got, want in zip(batched, reference_estimates(counts[c], n, DT, f)):
                assert np.array_equal(got[c], np.array(want)), (c, got[c], want)

    def test_frequency_series_match_per_interval_reference(self):
        # a series of frequencies that are not counts / n, as Dirichlet rows
        # and as their filtered series, gives the per-interval reference
        dirichlet = np.random.default_rng(5).dirichlet(np.ones(300), size=8)
        for series in (dirichlet, flt.filter_probs(dirichlet, flt.gaussian_kernel())):
            fisher, rates = smp.fisher_hat(series, 0.25), smp.info_rate_hat(series, 0.25)
            for k in range(7):
                assert fisher[k] == reference_fisher(series[k], series[k + 1], 0.25)
                assert np.array_equal(rates[k], reference_rates(series[k], series[k + 1], 0.25))

    def test_integer_series_equals_its_float_series(self):
        # point masses as integers: the weights and steps are computed in
        # floats all the same
        series = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0]])
        assert np.array_equal(smp.fisher_hat(series, DT), smp.fisher_hat(series * 1.0, DT))
        assert np.array_equal(smp.info_rate_hat(series, DT),
                              smp.info_rate_hat(series * 1.0, DT))


class TestMonteCarlo:
    def test_constant_estimator(self):
        est = smp.monte_carlo_components(lambda c: np.full(len(c), 2.5), 50, 0, P4, 10)
        assert est == (2.5, 0.0, 0.0, 0.0)

    def test_standard_error_relation(self):
        est = smp.monte_carlo_components(lambda c: c[:, 0] % 97.0, 64, 0, P4, 1000)
        assert est.var > 0.0
        assert est.se == pytest.approx(math.sqrt(est.var) / 8.0, rel=1e-12)

    def test_failure_carries_replication_index(self, monkeypatch):
        # NaN for the counts of replication 37 only: the error names 37 and
        # its seed whatever chunk it is drawn in
        draws = np.stack([rng.stream(rng.derive_key(3, r)).multinomial(1000, P4)
                          for r in range(100)])
        target = draws[37]
        assert np.all(draws == target, axis=1).sum() == 1

        def flaky(counts):
            return np.where(np.all(counts == target, axis=1), np.nan, 1.0)

        for chunk in (1, 7 * P4.size, smp.CHUNK_COUNTS):
            monkeypatch.setattr(smp, "CHUNK_COUNTS", chunk)
            with pytest.raises(smp.MonteCarloError,
                               match=rf"^replication 37 \(seed {rng.derive_key(3, 37)}\) "
                                     r"failed: non-finite value nan$"):
                smp.monte_carlo_components(flaky, 100, 3, P4, 1000)

    def test_draw_failure_names_replication_zero(self):
        p = np.array([[0.5, 0.5], [0.6, -0.1]])
        match = rf"^replication 0 \(seed {rng.derive_key(8, 0)}\) failed: "
        with pytest.raises(smp.MonteCarloError, match=match) as got:
            smp.monte_carlo_components(lambda c: smp.fisher_hat(c / 10, DT), 20, 8, p, 10)
        assert isinstance(got.value.__cause__, ValueError)

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            smp.monte_carlo_components(lambda c: np.ones(len(c)), 1, 0, P4, 10)

    def test_replication_seeds_in_order(self):
        estimator, seen = recording(lambda c: c[:, 0] * 1.0)
        est = smp.monte_carlo_components(estimator, 40, 3, P4, 1000)
        want = [rng.stream(rng.derive_key(3, r)).multinomial(1000, P4)[0]
                for r in range(40)]
        assert np.concatenate(seen).tolist() == want
        assert est.mean == pytest.approx(np.mean(want), rel=1e-15)

    def test_vector_components(self):
        est = smp.monte_carlo_components(
            lambda c: np.stack([c[:, 0] * 1.0, np.full(len(c), 5.0)], axis=1), 30, 1, P4, 10)
        assert [np.shape(stat) for stat in est] == [(2,)] * 4
        assert est.mean[1] == 5.0 and est.var[1] == 0.0

    def test_component_equals_its_column_alone(self):
        # each component of a (C, J) estimator is summarised bit for bit as
        # the same estimator reduced to that column
        p = np.random.default_rng(3).dirichlet(np.ones(10), size=2)

        def rates(c):
            return smp.info_rate_hat(c / 1000, DT)[:, 0]

        est = smp.monte_carlo_components(rates, 1000, 5, p, 1000)
        for j in range(10):
            alone = smp.monte_carlo_components(lambda c: rates(c)[:, j], 1000, 5, p, 1000)
            assert tuple(stat[j] for stat in est) == alone, j

    def test_distance_mean_matches_theory(self):
        # Monte Carlo mean of the squared distance is N/n within 3 SE
        est = smp.monte_carlo_components(lambda c: shahshahani_distance_sq(P4, c / 1000),
                                         2000, 10, P4, 1000)
        assert abs(est.mean - 0.003) <= 3 * est.se


class TestStreamLayout:
    """Which sub-stream a draw uses: block i of an n list, replication r of a
    block and instant k of a trajectory are all keyed here."""

    @pytest.mark.parametrize("shape", [(4,), (3, 10)], ids=lambda s: "x".join(map(str, s)))
    def test_block_i_is_monte_carlo_components_under_its_key(self, shape):
        p = np.random.default_rng(7).dirichlet(np.ones(shape[-1]), size=shape[:-1])
        ns = [10, 1000, 10]

        def estimator(counts, n):
            return counts.reshape(len(counts), -1)[:, :3] / n

        ests = smp.monte_carlo_per_n(estimator, 30, 23, p, ns)
        assert len(ests) == len(ns)
        for i, (n, est) in enumerate(zip(ns, ests)):
            alone = smp.monte_carlo_components(lambda c: estimator(c, n), 30,
                                               rng.derive_key(23, i), p, n)
            for name, a, b in zip(est._fields, est, alone):
                assert np.array_equal(a, b), (shape, i, name)
        # the same n in another block draws other counts
        assert not np.array_equal(ests[0].mean, ests[2].mean)

    def test_replication_r_draws_sample_trajectory(self, monkeypatch):
        p = np.random.default_rng(8).dirichlet(np.ones(10), size=5)
        seen = []

        def estimator(counts):
            seen.append(counts.copy())
            return counts[:, :, 0] * 1.0

        monkeypatch.setattr(smp, "CHUNK_COUNTS", 7 * p.size)  # chunks of 7 replications
        smp.monte_carlo_components(estimator, 20, 41, p, 500)
        drawn = np.concatenate(seen)
        assert drawn.shape == (20, 5, 10)
        for r in range(20):
            want = smp.sample_trajectory(p, 500, rng.derive_key(41, r))
            assert np.array_equal(drawn[r], want), r

    @pytest.mark.parametrize("instants", [2, 5])
    def test_with_clusters_on_the_integer_cluster_sums(self, instants):
        gen = np.random.default_rng(instants)
        f = random_clustering(gen, 10, 3)
        counts = gen.multinomial(1000, gen.dirichlet(np.ones(10)), size=(6, instants))
        sums = np.stack([counts[..., f.labels == a].sum(axis=-1) for a in range(3)], axis=-1)
        assert sums.dtype.kind == "i" and np.all(sums.sum(axis=-1) == 1000)
        for estimator in (lambda ph: smp.fisher_hat(ph, DT),
                          lambda ph: smp.info_rate_hat(ph, DT)[:, 0]):
            joined = smp.with_clusters(estimator, f)(counts, 1000)
            variants = estimator(counts / 1000)
            width = variants.shape[-1]
            assert joined.shape == (6, width + estimator(sums / 1000).shape[-1])
            assert np.array_equal(joined[:, :width], variants)
            assert np.array_equal(joined[:, width:], estimator(sums / 1000))


SHAPES = [(2,), (10,), (1000,), (2, 2), (2, 10), (2, 1000), (41, 2), (41, 10), (41, 1000)]


class TestChunking:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_bit_equal_to_reference_loop(self, shape, monkeypatch):
        # chunks of one replication, of 7, and of the default size give the
        # reference loop's values and summary bit for bit
        gen = np.random.default_rng(sum(shape))
        p = gen.dirichlet(np.ones(shape[-1]), size=shape[:-1])
        n = 1000
        if p.ndim == 1:
            def estimator(c):
                return shahshahani_distance_sq(p, c / n)
        else:
            def estimator(c):
                return smp.fisher_hat(c / n, DT)
        default = max(1, smp.CHUNK_COUNTS // p.size)
        for reps in (2, 7, default + 1):
            want = reference_monte_carlo(estimator, reps, 17, p, n)
            for chunk in (1, 7 * p.size, smp.CHUNK_COUNTS):
                monkeypatch.setattr(smp, "CHUNK_COUNTS", chunk)
                recorded, seen = recording(estimator)
                est = smp.monte_carlo_components(recorded, reps, 17, p, n)
                monkeypatch.undo()
                got = (np.concatenate(seen), *est)
                for name, a, b in zip(("values", *est._fields), got, want):
                    assert np.array_equal(a, b), (shape, reps, chunk, name)
                assert np.shape(est.mean) == np.shape(want[1]), (shape, reps, chunk)
