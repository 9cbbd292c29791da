import itertools
import math

import numpy as np
import pytest

from infodyn import dynamics as dyn
from infodyn import rng
from infodyn import sampling as smp
from infodyn.clustering import Clustering, aggregate
from infodyn.simplex import Distribution


@pytest.fixture(scope="module")
def desk_traj():
    return dyn.integrate_sir(dyn.default_sir_params(10), 10.0, 1e-3)


def make_sampled(counts, dt=0.25, t0=0.0):
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts[0].sum())
    grid = smp.SampleGrid(t0, dt, counts.shape[0])
    return smp.SampledTrajectory(grid, n, counts, seed=0)


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


def reference_estimates(sampled, f):
    """Per-interval values of the four estimators, computed instant pair by
    instant pair as before: (fisher, clustered fisher, rates, cluster rates)."""
    n, dt = sampled.n, sampled.grid.dt
    out = ([], [], [], [])
    for k in range(sampled.grid.count - 1):
        lo, hi = sampled.counts[k] / n, sampled.counts[k + 1] / n
        clo, chi = aggregate(sampled.counts[k], f) / n, aggregate(sampled.counts[k + 1], f) / n
        out[0].append(reference_fisher(lo, hi, dt))
        out[1].append(reference_fisher(clo, chi, dt))
        out[2].append(reference_rates(lo, hi, dt))
        out[3].append(reference_rates(clo, chi, dt))
    return out


def random_clustering(gen, size, ell):
    labels = np.concatenate([np.arange(1, ell + 1),
                             gen.integers(1, ell + 1, size=size - ell)])
    gen.shuffle(labels)
    return Clustering(labels)


def refine(gen, coarse):
    """Random refinement: split every cluster of `coarse` in two when possible."""
    next_label = 1
    fine = np.zeros(len(coarse), dtype=int)
    for a in range(1, coarse.n_clusters + 1):
        members = coarse.members(a)
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


class TestSampleGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            smp.SampleGrid(0.0, 0.0, 5)
        with pytest.raises(ValueError):
            smp.SampleGrid(0.0, 0.25, 1)

    def test_times_and_midpoints(self):
        grid = smp.SampleGrid(1.0, 0.5, 3)
        assert np.allclose(grid.times(), [1.0, 1.5, 2.0])
        assert np.allclose(grid.midpoints(), [1.25, 1.75])
        assert grid.midpoint(1) == 1.75


class TestSampleTrajectory:
    def test_deterministic(self, desk_traj):
        grid = smp.SampleGrid(0.0, 0.25, 9)
        a = smp.sample_trajectory(desk_traj, grid, 1000, seed=77)
        b = smp.sample_trajectory(desk_traj, grid, 1000, seed=77)
        assert np.array_equal(a.counts, b.counts)
        c = smp.sample_trajectory(desk_traj, grid, 1000, seed=78)
        assert not np.array_equal(a.counts, c.counts)

    def test_counts_sum_to_n(self, desk_traj):
        sampled = smp.sample_trajectory(desk_traj, smp.SampleGrid(0.0, 0.25, 9), 321, seed=5)
        assert np.all(sampled.counts.sum(axis=1) == 321)

    def test_instants_use_isolated_substreams(self):
        # instant k is reproducible alone via the (seed, k) sub-stream
        for n_variants in (2, 10, 1000):
            traj = dyn.integrate_sir(dyn.default_sir_params(n_variants), 2.0, 0.01)
            for count, dt in ((2, 0.5), (41, 0.05)):
                grid = smp.SampleGrid(0.0, dt, count)
                for n in (1, 100000):
                    sampled = smp.sample_trajectory(traj, grid, n, seed=91)
                    for k, t in enumerate(grid.times()):
                        p = traj.p(traj.index_at(float(t)))
                        direct = rng.sample_counts(p, n, rng.stream(91, k))
                        assert np.array_equal(sampled.counts[k], direct), (n_variants, count, n, k)

    def test_large_n_consistency(self, desk_traj):
        grid = smp.SampleGrid(0.0, 0.25, 41)
        sampled = smp.sample_trajectory(desk_traj, grid, 10_000_000, seed=11)
        for k, t in enumerate(grid.times()):
            p = desk_traj.p(desk_traj.index_at(t))
            assert np.max(np.abs(sampled.phat()[k] - p)) < 1e-3

    def test_out_of_range_grid(self, desk_traj):
        with pytest.raises(ValueError):
            smp.sample_trajectory(desk_traj, smp.SampleGrid(9.0, 0.5, 4), 10, seed=0)


class TestFisherHat:
    def test_no_displacement(self):
        sampled = make_sampled([[5, 5], [5, 5]])
        assert smp.fisher_hat(sampled).tolist() == [0.0]

    def test_hand_value(self):
        # phat (0.5,0.5) -> (0.6,0.4), dt = 0.25
        sampled = make_sampled([[5, 5], [6, 4]])
        expected = (0.01 / 0.0625) * (1 / 0.55 + 1 / 0.45)
        assert smp.fisher_hat(sampled)[0] == pytest.approx(expected, rel=1e-14)

    def test_zero_count_category_contributes_nothing(self):
        with_dead = make_sampled([[5, 5, 0], [6, 4, 0]])
        without = make_sampled([[5, 5], [6, 4]])
        assert smp.fisher_hat(with_dead)[0] == smp.fisher_hat(without)[0]

    def test_one_value_per_interval(self):
        sampled = make_sampled([[5, 5], [6, 4], [6, 4], [5, 5]])
        values = smp.fisher_hat(sampled)
        assert values.shape == (3,)
        assert values[1] == 0.0 and values[0] == values[2] > 0.0

    def test_scaled_bias_law_mid_sample_size(self, desk_traj):
        # (MC mean - g_tt) * n dt^2 / (2N) is 1 at the middle sample size too
        n, dt, reps = 30000, 0.25, 300
        grid = smp.SampleGrid(5.0 - dt / 2, dt, 2)
        g_tt = float(desk_traj.fisher_curve()[desk_traj.index_at(5.0)])

        def draw(seed):
            return smp.fisher_hat(smp.sample_trajectory(desk_traj, grid, n, seed))[0]

        est = smp.monte_carlo(draw, reps, seed=4242)
        scale = n * dt**2 / (2 * 9)
        ratio = (est.mean - g_tt) * scale
        assert abs(ratio - 1.0) <= 3 * est.standard_error * scale

    def test_exact_mean_by_enumeration(self, desk_traj):
        # brute-force expectation over all count pairs for a 2-variant model
        n, dt = 5, 0.25
        p_lo = np.array([0.4, 0.6])
        p_hi = np.array([0.35, 0.65])

        def pmf(k, p):
            return math.comb(n, k) * p**k * (1 - p) ** (n - k)

        exact = 0.0
        for i, j in itertools.product(range(n + 1), repeat=2):
            value = smp.fisher_between(np.array([i, n - i]) / n,
                                       np.array([j, n - j]) / n, dt)
            exact += pmf(i, p_lo[0]) * pmf(j, p_hi[0]) * value

        reps = 40000
        vals = np.empty(reps)
        for r in range(reps):
            lo = rng.sample_counts(p_lo, n, rng.stream(2024, r, 0)) / n
            hi = rng.sample_counts(p_hi, n, rng.stream(2024, r, 1)) / n
            vals[r] = smp.fisher_between(lo, hi, dt)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - exact) <= 3 * se


class TestClusteredFisherHat:
    def test_single_cluster_is_zero(self):
        sampled = make_sampled([[5, 3, 2], [6, 2, 2]])
        assert smp.clustered_fisher_hat(sampled, Clustering.single(3)).tolist() == [0.0]

    def test_identity_clustering_bitwise(self, desk_traj):
        sampled = smp.sample_trajectory(desk_traj, smp.SampleGrid(4.0, 0.25, 5), 500, seed=2)
        ident = Clustering.identity(10)
        assert np.array_equal(smp.clustered_fisher_hat(sampled, ident), smp.fisher_hat(sampled))

    def test_coarsening_never_increases(self):
        gen = np.random.default_rng(17)
        for _ in range(200):
            m = int(gen.integers(3, 9))
            w = gen.random(m) + 0.05
            counts = gen.multinomial(30, w / w.sum(), size=2)
            sampled = make_sampled(counts)
            ell = int(gen.integers(1, m))
            coarse = random_clustering(gen, m, ell)
            fine = refine(gen, coarse)
            g_fine = smp.clustered_fisher_hat(sampled, fine)[0]
            g_coarse = smp.clustered_fisher_hat(sampled, coarse)[0]
            assert 0.0 <= g_coarse <= g_fine + 1e-12
            assert smp.fisher_hat(sampled)[0] >= g_fine - 1e-12

    def test_wrong_size_clustering(self):
        sampled = make_sampled([[5, 5], [6, 4]])
        with pytest.raises(ValueError):
            smp.clustered_fisher_hat(sampled, Clustering.identity(3))


class TestInfoRateHat:
    def test_no_displacement(self):
        sampled = make_sampled([[4, 6], [4, 6]])
        assert np.all(smp.info_rate_hat(sampled) == 0.0)

    def test_hand_value(self):
        sampled = make_sampled([[5, 5], [6, 4]])
        rates = smp.info_rate_hat(sampled)[0]
        assert rates == pytest.approx([(2 / 1.1) * 0.4, -(2 / 0.9) * 0.4], rel=1e-14)

    def test_dead_category_rate_zero(self):
        sampled = make_sampled([[5, 5, 0], [6, 4, 0]])
        assert smp.info_rate_hat(sampled)[0, 2] == 0.0

    def test_cluster_version_identity(self, desk_traj):
        sampled = smp.sample_trajectory(desk_traj, smp.SampleGrid(4.0, 0.25, 2), 700, seed=6)
        ident = Clustering.identity(10)
        assert np.array_equal(smp.cluster_info_rate_hat(sampled, ident),
                              smp.info_rate_hat(sampled))

    def test_cluster_version_single(self):
        sampled = make_sampled([[5, 3, 2], [6, 2, 2]])
        assert smp.cluster_info_rate_hat(sampled, Clustering.single(3)).tolist() == [[0.0]]


class TestWholeGridEstimators:
    @pytest.mark.parametrize("count", [2, 41])
    @pytest.mark.parametrize("n_variants", [2, 10, 200, 1000])
    def test_bit_identical_to_per_interval_reference(self, count, n_variants):
        gen = np.random.default_rng(count * 7919 + n_variants)
        w = gen.random(n_variants) + 0.01
        w[gen.choice(n_variants, size=n_variants // 3, replace=False)] = 0.0
        p = w / w.sum()
        for n in (1, 50, 100000):
            sampled = make_sampled(gen.multinomial(n, p, size=count))
            f = random_clustering(gen, n_variants, max(1, n_variants // 4))
            fisher, clustered, rates, cluster_rates = reference_estimates(sampled, f)
            assert np.array_equal(smp.fisher_hat(sampled), fisher)
            assert np.array_equal(smp.clustered_fisher_hat(sampled, f), clustered)
            assert np.array_equal(smp.info_rate_hat(sampled), np.stack(rates))
            assert np.array_equal(smp.cluster_info_rate_hat(sampled, f),
                                  np.stack(cluster_rates))

    def test_between_works_row_by_row(self):
        gen = np.random.default_rng(5)
        lo, hi = gen.dirichlet(np.ones(300), size=(2, 7))
        fisher = smp.fisher_between(lo, hi, 0.25)
        rates = smp.info_rate_between(lo, hi, 0.25)
        for k in range(7):
            assert fisher[k] == reference_fisher(lo[k], hi[k], 0.25)
            assert np.array_equal(rates[k], reference_rates(lo[k], hi[k], 0.25))


class TestMonteCarlo:
    def test_constant_estimator(self):
        est = smp.monte_carlo(lambda seed: 2.5, replications=50)
        assert est.mean == 2.5
        assert est.std == 0.0
        assert est.standard_error == 0.0
        assert est.replications == 50

    def test_standard_error_relation(self):
        est = smp.monte_carlo(lambda seed: float(seed % 97), replications=64)
        assert est.standard_error == pytest.approx(est.std / 8.0, rel=1e-12)

    def test_failure_carries_replication_index(self):
        def flaky(seed):
            if seed % 5 == 0:
                raise RuntimeError("boom")
            return 1.0

        with pytest.raises(smp.MonteCarloError, match="replication"):
            smp.monte_carlo(flaky, replications=100)

    def test_needs_two_replications(self):
        with pytest.raises(ValueError):
            smp.monte_carlo(lambda seed: 1.0, replications=1)

    def test_replication_seeds_in_order(self):
        seen = []

        def draw(seed):
            seen.append(seed)
            return float(len(seen))

        est = smp.monte_carlo(draw, replications=40, seed=3)
        assert seen == [rng.derive_key(3, r) for r in range(40)]
        assert est.mean == pytest.approx(20.5, rel=1e-15)

    def test_vector_components(self):
        def draw(seed):
            gen = rng.stream(seed)
            return [float(gen.integers(0, 10)), 5.0]

        ests = smp.monte_carlo_components(draw, replications=30, seed=1)
        assert len(ests) == 2
        assert ests[1].mean == 5.0 and ests[1].std == 0.0

    def test_distance_mean_matches_theory(self):
        # Monte Carlo mean of the squared distance is N/n within 3 SE
        p = Distribution([0.1, 0.2, 0.3, 0.4])

        def draw(seed):
            counts = rng.sample_counts(p.probs, 1000, rng.stream(seed))
            diff = counts / 1000 - p.probs
            return float(np.sum(diff * diff / p.probs))

        est = smp.monte_carlo(draw, replications=2000, seed=10)
        assert abs(est.mean - 0.003) <= 3 * est.standard_error

