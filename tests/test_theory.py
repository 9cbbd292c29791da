import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import clustering as cl
from infodyn import dynamics as dyn
from infodyn import rng
from infodyn import sampling as smp
from infodyn import theory as th
from infodyn.simplex import require_interior
from conftest import exact_static_fisher_mean, grid

import test_simplex

interior = st.lists(st.integers(1, 500), min_size=2, max_size=10).map(
    lambda w: np.asarray(w, dtype=float) / sum(w)
)


def enumerated_distance_moments(p, n):
    """Exact mean and variance of sum((x/n - p)^2 / p) over every count
    vector x of n multinomial draws from p, in rational arithmetic."""
    p = [Fraction(x) for x in p]
    m1 = m2 = Fraction(0)
    for x in itertools.product(range(n + 1), repeat=len(p) - 1):
        if sum(x) > n:
            continue
        x = x + (n - sum(x),)
        w = Fraction(math.factorial(n))
        for k, q in zip(x, p):
            w *= q**k / math.factorial(k)
        d = sum((Fraction(k, n) - q) ** 2 / q for k, q in zip(x, p))
        m1 += w * d
        m2 += w * d * d
    return m1, m2 - m1 * m1


class TestDistanceMoments:
    def test_reference_values(self):
        # sum(1/p) = 125/6, so the n^-3 term is (125/6 - 22)/n^3 = -7/(6 n^3)
        mean, var = th.distance_moments([0.1, 0.2, 0.3, 0.4], 1000)
        assert mean == 0.003
        assert var == pytest.approx(6e-6 - 7.0 / 6e9, rel=1e-14)

    @pytest.mark.parametrize("p", [(0.1, 0.2, 0.3, 0.4), (0.05, 0.95), (0.2, 0.5, 0.3)])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_equals_enumeration(self, p, n):
        mean, var = enumerated_distance_moments(p, n)
        got_mean, got_var = th.distance_moments(np.array(p), n)
        assert got_mean == pytest.approx(float(mean), rel=1e-14)
        assert got_var == pytest.approx(float(var), rel=1e-12)

    def test_rows(self):
        p = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]])
        _, var = th.distance_moments(p, 10)
        assert var.shape == (2,)
        assert var[0] == th.distance_moments(p[0], 10)[1]

    def test_mean_is_one_per_row(self):
        # the mean is elementwise like the variance: N/n at every row, in
        # the shape p.shape[:-1], so a (K, M) block of p needs no broadcast
        p = np.array([[[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]],
                      [[0.7, 0.1, 0.1, 0.1], [0.4, 0.3, 0.2, 0.1]],
                      [[0.5, 0.2, 0.2, 0.1], [0.1, 0.1, 0.1, 0.7]]])
        mean, var = th.distance_moments(p, 10)
        assert mean.shape == var.shape == (3, 2)
        assert np.all(mean == 0.3)
        row_mean, row_var = th.distance_moments(p[0, 0], 10)
        assert np.shape(row_mean) == np.shape(row_var) == ()
        assert row_mean == 0.3

    def test_mean_scaling(self):
        p = np.full(6, 1.0 / 6.0)
        m1, _ = th.distance_moments(p, 1000)
        m2, _ = th.distance_moments(p, 2000)
        assert m2 == m1 / 2

    def test_domain(self):
        with pytest.raises(ValueError):
            th.distance_moments([1.0], 100)
        with pytest.raises(ValueError):
            th.distance_moments([0.5, 0.5], 0)
        with pytest.raises(ValueError, match="not interior"):
            th.distance_moments([0.0, 1.0], 100)


class TestFisherPrediction:
    def test_bias_reference_value(self):
        assert th.fisher_bias(9, 100000, 0.25) == pytest.approx(0.00288, rel=1e-12)

    def test_bias_vanishes_with_n(self):
        assert th.fisher_bias(9, 10**9, 0.25) < 1e-6
        assert th.fisher_bias(9, 10**9, 0.25) == th.fisher_bias(9, 10**6, 0.25) / 1000

    def test_variance_at_zero_information(self):
        mean, var = th.fisher_prediction(0.0, 9, 1000, 0.25)
        assert mean == th.fisher_bias(9, 1000, 0.25)
        assert var == pytest.approx(8 * 9 / (1000**2 * 0.25**4), rel=1e-12)

    def test_negative_variance_rejected(self):
        # a negative g_tt is the one input that can give a negative variance
        with pytest.raises(ValueError, match="g_tt must be >= 0"):
            th.fisher_prediction(np.array([0.1, -0.5]), 9, 1000, 0.25)


def lattice_fisher_mean(p, n, dt):
    """Brute force: sum over every pair of points of the multinomial lattice."""
    size = len(p)
    counts = np.array([c for c in itertools.product(range(n + 1), repeat=size)
                       if sum(c) == n])
    log_pmf = np.array([math.lgamma(n + 1)
                        + sum(k * math.log(q) - math.lgamma(k + 1) for k, q in zip(c, p))
                        for c in counts])
    w = np.exp(log_pmf)
    x = counts / n
    tot = x[:, None, :] + x[None, :, :]
    vals = (2.0 * (x[:, None, :] - x[None, :, :]) ** 2
            / np.where(tot > 0, tot, 1.0)).sum(axis=2) / dt**2
    return float(w @ vals @ w)


CRITERION_04_P = np.array([1.0 - 9 * 0.006] + [0.006] * 9)


class TestFisherNullMean:
    @pytest.mark.parametrize("p", [np.random.default_rng(m).dirichlet(np.ones(m))
                                   for m in (4, 10, 51)] + [CRITERION_04_P],
                             ids=["M4", "M10", "M51", "criterion04"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 100, 333, 1000])
    def test_matches_double_sum(self, p, n):
        assert th.fisher_null_mean(p, n, 0.25) == pytest.approx(
            exact_static_fisher_mean(p, n, 0.25), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
    def test_matches_full_lattice(self, n):
        p = np.array([0.2, 0.3, 0.5])
        assert th.fisher_null_mean(p, n, 0.25) == pytest.approx(
            lattice_fisher_mean(p, n, 0.25), rel=1e-12)

    @given(interior)
    @settings(max_examples=50, deadline=None)
    def test_single_draw(self, p):
        # n = 1: each instant sees one variant; they differ with probability 1 - sum p^2
        assert th.fisher_null_mean(p, 1, 0.25) == pytest.approx(
            4.0 * (1.0 - np.sum(p * p)) / 0.25**2, rel=1e-13)

    @given(interior, st.integers(1, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_between_zero_and_all_seen(self, p, n):
        value = th.fisher_null_mean(p, n, 0.25)
        assert 0.0 <= value <= 4.0 * (p.size - 1) / ((2 * n - 1) * 0.25**2)

    def test_expands_to_the_large_n_series(self):
        # 4N/(2n - 1) = 2N/n + N/n^2 + ... where every n p >> 1
        n, dt, N = 1000, 0.25, 9
        p = np.full(N + 1, 1.0 / (N + 1))
        resid = th.fisher_null_mean(p, n, dt) - th.fisher_bias(N, n, dt)
        assert abs(resid - N / (n**2 * dt**2)) <= 0.01 * resid
        lead = th.fisher_bias(2, 10**7, 0.25)
        assert abs(th.fisher_null_mean([0.2, 0.3, 0.5], 10**7, 0.25) - lead) / lead < 1e-5

    def test_tiny_probabilities_keep_precision(self):
        mpmath = pytest.importorskip("mpmath")
        p = np.array([1.0 - 3e-12, 1e-12, 2e-12])
        n = 10**6
        with mpmath.workdps(40):
            seen = sum(1 - (1 - mpmath.mpf(x)) ** (2 * n) for x in p.tolist())
            want = float(4 * (seen - 1) / ((2 * n - 1) * mpmath.mpf(0.25) ** 2))
        assert th.fisher_null_mean(p, n, 0.25) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_rare_regime_monte_carlo(self, t):
        # default model, M = 1000, n = 1000: min n p is below 1, so many
        # variants go unseen and 2N/(n dt^2) is far off; the exact mean holds
        # for the variants and, on the same counts, for ell = 10 clusters
        n, reps, dt = 1000, 2000, 0.25
        traj = dyn.solve_sir(dyn.default_sir_params(1000), grid(10.0, dt))
        f = cl.kmeans(cl.kmeans_features(traj, np.arange(len(traj.times))), 10)
        p = traj.p(round(t / dt))
        est = smp.monte_carlo_components(
            lambda c: np.concatenate((smp.fisher_hat(c / n, dt),
                                      smp.fisher_hat(cl.aggregate(c, f) / n, dt)), axis=-1),
            reps, rng.derive_key(2222, round(t / dt)), np.stack([p, p]), n)
        z = (est.mean - [th.fisher_null_mean(p, n, dt),
                         th.fisher_null_mean(cl.aggregate(p, f), n, dt)]) / est.se
        z_lead = (est.mean[0] - th.fisher_bias(999, n, dt)) / est.se[0]
        assert np.all(np.abs(z) <= 3.0), \
            f"variants {z[0]:.2f} SE, clusters {z[1]:.2f} SE; 2N/(n dt^2) at {z_lead:.0f} SE"

    def test_zero_components_contribute_nothing(self):
        inner = th.fisher_null_mean(np.array([0.4, 0.6]), 50, 0.25)
        assert th.fisher_null_mean(np.array([0.4, 0.0, 0.6]), 50, 0.25) == inner
        for point_mass in ([1.0, 0.0], [0.0, 0.0, 1.0], [1.0]):
            assert th.fisher_null_mean(np.array(point_mass), 50, 0.25) == 0.0

    def test_domain(self):
        p = np.array([0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="sample size n must be >= 1"):
            th.fisher_null_mean(p, 0, 0.25)
        for dt in (0.0, -0.25, np.nan):
            with pytest.raises(ValueError, match="time step dt must be > 0"):
                th.fisher_null_mean(p, 10, dt)
        with pytest.raises(ValueError, match="time step dt must be finite"):
            th.fisher_null_mean(p, 10, np.inf)
        for bad, where in (([0.5, -0.1, 0.6], "index 1"), ([1.5, 0.0], "index 0"),
                           ([0.5, np.nan, 0.5], "index 1"), ([np.inf, 0.0], "index 0"),
                           ([[0.5, 0.5], [0.2, 1.2]], r"index \(1, 1\)")):
            with pytest.raises(ValueError, match=f"outside \\[0, 1\\]: entry .* at {where}"):
                th.fisher_null_mean(bad, 10, 0.25)


class TestClusteredPrediction:
    # ell clusters: fisher_prediction with N = ell - 1
    def test_single_cluster_has_no_bias(self):
        mean, var = th.fisher_prediction(0.0, 0, 5000, 0.25)
        assert mean == 0.0
        assert var == 0.0

    def test_bias_reduction_ratio(self):
        n, dt = 10000, 0.25
        unclustered = th.fisher_bias(9, n, dt)
        clustered, _ = th.fisher_prediction(0.0, 3 - 1, n, dt)
        assert unclustered / clustered == pytest.approx(4.5, rel=1e-12)


class TestInfoRateMoments:
    def test_zero_rate_zero_mean(self):
        mean, _ = th.info_rate_moments(0.0, 0.3, 1000, 0.25)
        assert mean == 0.0

    def test_variance_grows_toward_boundary(self):
        _, v_small = th.info_rate_moments(0.1, 0.01, 1000, 0.25)
        _, v_large = th.info_rate_moments(0.1, 0.3, 1000, 0.25)
        assert v_small > v_large

    def test_vectorized(self):
        mean, var = th.info_rate_moments(np.array([0.0, 0.1]), np.array([0.5, 0.2]),
                                         1000, 0.25)
        assert mean.shape == (2,) and var.shape == (2,)


def normalization_z(p, n: int) -> np.ndarray:
    """Reference Gaussian normalisation of the large-n sampling probability:
    sqrt(n * prod(2 pi n p) / (2 pi * sum(p))) along the last axis of an
    interior p, evaluated in log space to stay finite for many degrees of
    freedom."""
    p = require_interior(p)
    log_z = 0.5 * (
        np.log(n)
        + np.sum(np.log(2.0 * np.pi * n * p), axis=-1)
        - np.log(2.0 * np.pi * np.sum(p, axis=-1))
    )
    return np.exp(log_z)


class TestNormalizationZ:
    def test_two_state_closed_form(self):
        for n in (100, 1000):
            z = normalization_z(np.array([0.5, 0.5]), n)
            assert z == pytest.approx(n**1.5 * np.sqrt(np.pi / 2.0), rel=1e-12)

    def test_monotone_in_n(self):
        p = np.array([0.2, 0.3, 0.5])
        assert normalization_z(p, 2000) > normalization_z(p, 1000)

    def test_non_interior_rejected(self):
        with pytest.raises(ValueError):
            normalization_z(np.array([1.0, 0.0]), 100)

    @pytest.mark.parametrize("n", [200, 500, 1000])
    def test_lattice_sum_oracle(self, n):
        # Exact enumeration of all n+1 two-state lattice points.  The
        # closed form carries one density factor n per lattice dimension
        # more than the bare sum, so the sum approaches Z / n.
        p = np.array([0.5, 0.5])
        total = 0.0
        for k in range(n + 1):
            phat = np.array([k / n, 1 - k / n])
            total += np.exp(-n * test_simplex.kl_divergence(phat, p))
        z = normalization_z(p, n)
        assert abs(total - z / n) / (z / n) < 0.10
