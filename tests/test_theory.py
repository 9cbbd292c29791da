import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import theory as th
from infodyn.simplex import require_interior

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


class TestSecondOrderBias:
    def test_uniform_distribution_value(self):
        # The n^-2 term must match the exact residual; the old value
        # N^2 / (2 n^2 dt^2) is 4.5x too large here.
        n, dt, N = 1000, 0.25, 9
        p = np.full(N + 1, 1.0 / (N + 1))
        lead = th.fisher_bias(N, n, dt)
        term = th.fisher_bias_second_order(p, n, dt) - lead
        exact_resid = th.exact_static_fisher_mean(p, n, dt) - lead
        assert abs(term - exact_resid) <= 0.01 * abs(exact_resid)

    @given(interior)
    @settings(max_examples=100, deadline=None)
    def test_correction_is_nonnegative(self, p):
        n, dt = 1000, 0.25
        N = p.size - 1
        assert th.fisher_bias_second_order(p, n, dt) >= th.fisher_bias(N, n, dt) - 1e-18

    def test_correction_fades_for_large_n(self):
        p = np.array([0.2, 0.3, 0.5])
        lead = th.fisher_bias(2, 10**7, 0.25)
        full = th.fisher_bias_second_order(p, 10**7, 0.25)
        assert abs(full - lead) / lead < 1e-5


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


class TestExactStaticFisherMean:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 30])
    def test_matches_full_lattice(self, n):
        p = np.array([0.2, 0.3, 0.5])
        exact = th.exact_static_fisher_mean(p, n, 0.25)
        assert exact == pytest.approx(lattice_fisher_mean(p, n, 0.25), rel=1e-12)

    def test_boundary_components_contribute_nothing(self):
        inner = th.exact_static_fisher_mean(np.array([0.4, 0.6]), 50, 0.25)
        padded = th.exact_static_fisher_mean(np.array([0.4, 0.0, 0.6]), 50, 0.25)
        assert padded == inner
        assert th.exact_static_fisher_mean(np.array([1.0, 0.0]), 50, 0.25) == 0.0

    def test_domain(self):
        p = np.array([0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="sample size n"):
            th.exact_static_fisher_mean(p, 0, 0.25)
        with pytest.raises(ValueError, match="time step dt"):
            th.exact_static_fisher_mean(p, 10, 0.0)


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
