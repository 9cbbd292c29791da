import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import clustering as cl
from infodyn import dynamics as dyn
from infodyn import theory as th
from infodyn.simplex import (
    fisher_information,
    require_interior,
    self_information_rate,
    shahshahani_distance_sq,
)

import test_theory
from conftest import delta_g_coupling_form


def kl_divergence(point, reference) -> np.ndarray:
    """Reference Kullback-Leibler divergence D(point || reference), 0*log 0 := 0,
    along the last axis; the reference must be interior."""
    reference, point = require_interior(reference), np.asarray(point, dtype=float)
    return np.sum(point * np.log(np.where(point > 0, point, reference) / reference), axis=-1)


def interior_distributions(min_size=2, max_size=8):
    """Interior points built from positive integer weights."""
    return st.lists(
        st.integers(min_value=1, max_value=1000), min_size=min_size, max_size=max_size
    ).map(lambda w: np.asarray(w, dtype=float) / sum(w))


@st.composite
def distribution_pairs(draw):
    weights_a = draw(st.lists(st.integers(1, 1000), min_size=2, max_size=8))
    weights_b = draw(
        st.lists(st.integers(1, 1000), min_size=len(weights_a), max_size=len(weights_a))
    )
    to_dist = lambda w: np.asarray(w, dtype=float) / sum(w)
    return to_dist(weights_a), to_dist(weights_b)


@st.composite
def points_with_tangents(draw):
    p = draw(interior_distributions())
    d = draw(
        st.lists(
            st.floats(-5, 5, allow_nan=False), min_size=len(p), max_size=len(p)
        )
    )
    d = np.asarray(d)
    pdot = p * (d - np.dot(p, d))
    return p, pdot - pdot.sum() / len(pdot), d


class TestRequireInterior:
    def test_returns_the_float_array(self):
        p = require_interior([1, 3])
        assert p.dtype == float and p.tolist() == [1.0, 3.0]

    def test_names_the_first_bad_entry_of_a_table(self):
        rows = np.array([[0.5, 0.5], [0.2, 0.8], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"entry 0.0 at index \(2, 0\)"):
            require_interior(rows)
        with pytest.raises(ValueError, match="entry nan at index 1"):
            require_interior([0.5, np.nan])

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch: 2 vs 3"):
            fisher_information([0.5, 0.5], [0.1, -0.1, 0.0])


class TestShahshahani:
    def test_coinciding_points(self):
        p = np.array([0.1, 0.2, 0.7])
        assert shahshahani_distance_sq(p, p) == 0.0

    def test_hand_value(self):
        # sum over (0.25 - 0.5)^2 / 0.5 twice
        ref = np.array([0.5, 0.5])
        pt = np.array([0.25, 0.75])
        assert shahshahani_distance_sq(ref, pt) == pytest.approx(0.25, rel=1e-15)
        # metric at the other point gives 0.0625/0.25 + 0.0625/0.75
        assert shahshahani_distance_sq(pt, ref) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_non_interior_reference_rejected(self):
        with pytest.raises(ValueError, match="index"):
            shahshahani_distance_sq([1.0, 0.0], [0.5, 0.5])

    def test_sampling_mean_matches_dimension_over_n(self):
        # mean over many multinomial samplings approaches N/n
        from infodyn import rng

        p = np.array([0.1, 0.2, 0.3, 0.4])
        n, reps = 1000, 2000
        counts = rng.sample_block(p, n, rng.derive_key(101, np.arange(reps, dtype=np.uint64)))
        vals = shahshahani_distance_sq(p, counts / n)
        se = vals.std(ddof=1) / np.sqrt(reps)
        assert abs(vals.mean() - 3 / n) <= 3 * se

    @given(distribution_pairs())
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_separating(self, pair):
        p, q = pair
        d2 = shahshahani_distance_sq(p, q)
        assert d2 >= 0.0
        if not np.array_equal(p, q):
            assert d2 > 0.0


class TestKlDivergence:
    def test_identical(self):
        p = np.array([0.3, 0.3, 0.4])
        assert kl_divergence(p, p) == 0.0

    def test_boundary_point_hand_value(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_non_interior_reference_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    @given(distribution_pairs())
    @settings(max_examples=100, deadline=None)
    def test_gibbs_inequality(self, pair):
        p, q = pair
        assert kl_divergence(q, p) >= -1e-15

    def test_quadratic_expansion(self):
        # D(q||p) - a2(p,q)/2 shrinks like the cube of the displacement
        gen = np.random.default_rng(5)
        for _ in range(20):
            w = gen.integers(1, 50, size=5).astype(float)
            p = w / w.sum()
            direction = gen.normal(size=5)
            direction -= direction.mean()
            ratios = []
            for eps in (1e-2, 1e-3, 1e-4):
                q = p + eps * direction * p.min()
                diff = abs(
                    kl_divergence(q, p) - 0.5 * shahshahani_distance_sq(p, q)
                )
                ratios.append(diff / np.linalg.norm(q - p) ** 3)
            ratios = np.asarray(ratios)
            assert np.all(ratios < 10.0 / p.min() ** 2)


class TestFisherInformation:
    def test_stationary(self):
        assert fisher_information([0.2, 0.8], [0.0, 0.0]) == 0.0

    def test_hand_value(self):
        assert fisher_information([0.5, 0.5], [0.1, -0.1]) == pytest.approx(0.04, rel=1e-15)

    @given(points_with_tangents())
    @settings(max_examples=100, deadline=None)
    def test_equals_weighted_square_rates(self, case):
        p, pdot, _ = case
        rates = self_information_rate(p, pdot)
        expected = float(np.sum(p * rates * rates))
        got = fisher_information(p, pdot)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @given(points_with_tangents())
    @settings(max_examples=100, deadline=None)
    def test_equals_coupling_variance(self, case):
        # with pdot built from couplings, the norm is the coupling variance
        p, pdot, d = case
        mean_d = np.dot(p, d)
        var_d = float(np.dot(p, (d - mean_d) ** 2))
        assert fisher_information(p, pdot) == pytest.approx(var_d, rel=1e-9, abs=1e-12)


class TestSelfInformationRate:
    def test_zero_velocity(self):
        assert np.all(self_information_rate([0.25, 0.75], [0.0, 0.0]) == 0.0)

    def test_hand_value(self):
        rates = self_information_rate([0.2, 0.8], [0.02, -0.02])
        assert rates == pytest.approx([0.1, -0.025], rel=1e-15)

    @given(points_with_tangents())
    @settings(max_examples=100, deadline=None)
    def test_weighted_rates_sum_to_zero(self, case):
        p, pdot, _ = case
        rates = self_information_rate(p, pdot)
        assert abs(float(np.dot(p, rates))) <= 1e-10


def _rows_case(m):
    """A (12, m) table of interior points, velocities, second points and
    couplings, and a clustering of the m variants into 3."""
    gen = np.random.default_rng(m)
    p = gen.dirichlet(np.ones(m), size=12)
    d = gen.normal(size=(12, m)) * 3.0
    pdot = p * (d - np.sum(p * d, axis=-1, keepdims=True))
    point = gen.dirichlet(np.ones(m), size=12)
    point[:, 0] = 0.0  # a boundary point: kl_divergence takes 0 log 0 = 0
    point /= point.sum(axis=-1, keepdims=True)
    f = cl.Clustering(np.arange(m) % 3 + 1)
    return p, pdot, point, d, f


# every geometry function, as a function of the case's arrays
GEOMETRY = {
    "fisher_information": lambda p, pdot, point, d, f: fisher_information(p, pdot),
    "self_information_rate": lambda p, pdot, point, d, f: self_information_rate(p, pdot),
    "shahshahani_distance_sq": lambda p, pdot, point, d, f: shahshahani_distance_sq(p, point),
    "kl_divergence": lambda p, pdot, point, d, f: kl_divergence(point, p),
    "clustered_fisher": lambda p, pdot, point, d, f: cl.clustered_fisher(p, pdot, f),
    "delta_g_prob_form": lambda p, pdot, point, d, f: cl.delta_g_prob_form(p, pdot, f),
    "delta_g_coupling_form": lambda p, pdot, point, d, f: delta_g_coupling_form(p, d, f),
    "fisher_bias_second_order":
        lambda p, pdot, point, d, f: th.fisher_bias_second_order(p, 1000, 0.25),
    "exact_static_fisher_mean":
        lambda p, pdot, point, d, f: th.exact_static_fisher_mean(p[..., :4], 40, 0.25),
    "normalization_z": lambda p, pdot, point, d, f: test_theory.normalization_z(p, 1000),
}


class TestRowByRow:
    """On (T, M) rows, and on (2, T/2, M) blocks of them, each geometry
    function returns bit for bit what it returns for one row at a time."""

    @pytest.mark.parametrize("m", [10, 300])
    @pytest.mark.parametrize("name", sorted(GEOMETRY))
    def test_rows_equal_one_row_at_a_time(self, name, m):
        fn = GEOMETRY[name]
        case = _rows_case(m)
        table = fn(*case)
        rows = np.array([fn(*(a[t] for a in case[:4]), case[4])
                         for t in range(len(table))])
        assert table.shape == rows.shape
        assert np.array_equal(table, rows)
        blocks = fn(*(a.reshape((2, 6) + a.shape[1:]) for a in case[:4]), case[4])
        assert np.array_equal(blocks, table.reshape(blocks.shape))

    def test_trajectory_rows(self):
        # the rows the experiments evaluate: p and pdot of the model curve
        traj = dyn.solve_sir(dyn.default_sir_params(10), np.arange(801) * 0.0125)
        f = cl.Clustering([1, 1, 1, 2, 2, 2, 3, 3, 3, 3])
        p, pdot, _ = traj.replicator()
        for fn in (fisher_information, self_information_rate,
                   lambda p, v: cl.clustered_fisher(p, v, f),
                   lambda p, v: cl.delta_g_prob_form(p, v, f)):
            assert np.array_equal(fn(p, pdot), [fn(p[k], pdot[k]) for k in range(len(p))])
