import numpy as np
import pytest

from infodyn import dynamics as dyn
from infodyn import filtering as flt
from infodyn import sampling as smp


class TestGaussianKernel:
    def test_zero_half_width(self):
        assert flt.gaussian_kernel(0, 1.0).tolist() == [1.0]

    def test_default_instance_weight_ratio(self):
        w = flt.gaussian_kernel()  # half_width 3, shape 4/9
        assert w.size == 7
        assert w[3] / w[6] == pytest.approx(np.exp(4.0), rel=1e-12)

    def test_normalised_and_symmetric(self):
        w = flt.gaussian_kernel(5, 0.3)
        assert abs(w.sum() - 1.0) <= 1e-15
        assert np.allclose(w, w[::-1], atol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            flt.gaussian_kernel(-1, 1.0)
        with pytest.raises(ValueError):
            flt.gaussian_kernel(2, 0.0)


class TestFilterProbs:
    def test_constant_series_unchanged(self):
        series = np.tile([0.2, 0.3, 0.5], (12, 1))
        out = flt.filter_probs(series, flt.gaussian_kernel())
        assert np.allclose(out, series, atol=1e-15)

    def test_delta_kernel_is_identity(self):
        gen = np.random.default_rng(0)
        series = gen.dirichlet([1.0] * 4, size=9)
        out = flt.filter_probs(series, flt.gaussian_kernel(0, 1.0))
        assert np.array_equal(out, series)

    def test_rows_stay_distributions_including_edges(self):
        gen = np.random.default_rng(1)
        series = gen.dirichlet([0.5] * 5, size=8)
        out = flt.filter_probs(series, flt.gaussian_kernel(3, 4 / 9))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_short_series_still_valid(self):
        series = np.array([[0.4, 0.6], [0.1, 0.9]])
        out = flt.filter_probs(series, flt.gaussian_kernel(3, 4 / 9))
        assert out.shape == (2, 2)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            flt.filter_probs(np.empty((0, 3)), flt.gaussian_kernel())

    def test_commutes_with_variant_permutation(self):
        gen = np.random.default_rng(2)
        series = gen.dirichlet([1.0] * 5, size=10)
        perm = gen.permutation(5)
        kernel = flt.gaussian_kernel()
        assert np.allclose(flt.filter_probs(series, kernel)[:, perm],
                           flt.filter_probs(series[:, perm], kernel), atol=1e-15)


class TestFilterTrajectory:
    def test_noise_shrinks_on_static_model(self):
        # static probabilities: filtering must reduce fluctuation around truth
        params = dyn.SirParams([2.0, 2.0], [1.0, 1.0], 0.9, [0.02, 0.08], 0.0)
        traj = dyn.integrate_sir(params, 10.0, 1e-3)
        grid = smp.SampleGrid(0.0, 0.25, 41)
        sampled = smp.sample_trajectory(traj, grid, 2000, seed=4)
        p_true = traj.p(0)
        raw_err = np.abs(sampled.counts / sampled.n - p_true).mean()
        filt_err = np.abs(flt.filter_trajectory(sampled) - p_true).mean()
        assert filt_err < raw_err
