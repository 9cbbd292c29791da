import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import dynamics as dyn
from infodyn.simplex import fisher_information


def reference_integrate_sir(params, t_end, step):
    """RK4 on the full (S, I_1..I_M, R) system, with its checks inside the
    loop: the accuracy oracle of the reduced integrator.  Returns the
    (steps+1, N+3) state rows or raises IntegrationError for the first
    failing step."""
    n_steps = int(round(t_end / step))
    times = np.arange(n_steps + 1) * step
    gamma, epsilon = params.gamma, params.epsilon

    def deriv(state):
        s, infected = state[0], state[1:-1]
        ds = -s * np.dot(gamma, infected)
        di = infected * (gamma * s - epsilon)
        dr = np.dot(epsilon, infected)
        return np.concatenate(([ds], di, [dr]))

    state = np.concatenate(([params.s0], params.i0, [params.r0]))
    states = np.empty((n_steps + 1, state.size))
    states[0] = state
    for k in range(n_steps):
        k1 = deriv(state)
        k2 = deriv(state + 0.5 * step * k1)
        k3 = deriv(state + 0.5 * step * k2)
        k4 = deriv(state + step * k3)
        state = state + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        infected = state[1:-1]
        if np.any(infected <= 0):
            idx = int(np.argmin(infected))
            raise dyn.IntegrationError(
                f"infected fraction of variant {idx} reached "
                f"{infected[idx]} at t={times[k + 1]:g}"
            )
        drift = abs(state.sum() - 1.0)
        if drift > dyn.CONSERVATION_TOL:
            raise dyn.IntegrationError(
                f"conservation drift {drift:.3e} at t={times[k + 1]:g}; "
                f"use a smaller step"
            )
        states[k + 1] = state
    return states


@pytest.fixture(scope="module")
def desk_traj():
    return dyn.integrate_sir(dyn.default_sir_params(10), 10.0, 1e-3)


class TestSirParams:
    def test_rejects_bad_normalisation(self):
        with pytest.raises(ValueError, match="sum"):
            dyn.SirParams([1.0, 1.0], [0.5, 0.5], 0.9, [0.1, 0.1], 0.0)

    def test_rejects_nonpositive_infected(self):
        with pytest.raises(ValueError, match="index 1"):
            dyn.SirParams([1.0, 1.0], [0.5, 0.5], 0.9, [0.1, 0.0], 0.0)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="rates"):
            dyn.SirParams([1.0, -1.0], [0.5, 0.5], 0.8, [0.1, 0.1], 0.0)

    def test_default_generator(self):
        params = dyn.default_sir_params(10)
        assert params.gamma[0] == 1.5 and params.gamma[-1] == 2.5
        assert params.epsilon[0] == 0.9 and params.epsilon[-1] == 1.1
        assert params.s0 + params.i0.sum() + params.r0 == pytest.approx(1.0, abs=1e-15)

    def test_grouped_generator_blocks(self):
        params = dyn.grouped_sir_params([3, 2])
        assert len(set(params.gamma[:3])) == 1
        assert len(set(params.gamma[3:])) == 1
        assert params.gamma[0] != params.gamma[3]


class TestIntegration:
    def test_symmetric_variants_are_static(self):
        # equal rates: shares never move whatever the initial split
        params = dyn.SirParams([2.0, 2.0, 2.0], [1.0, 1.0, 1.0], 0.9,
                               [0.01, 0.04, 0.05], 0.0)
        traj = dyn.integrate_sir(params, 5.0, 1e-3)
        assert np.max(np.abs(traj.p() - traj.p(0))) < 1e-12
        assert np.max(np.abs(traj.pdot())) < 1e-12
        assert np.max(traj.fisher_curve()) < 1e-24

    def test_conservation(self, desk_traj):
        infected = desk_traj.infected().sum(axis=1)
        total = desk_traj.susceptible + infected + desk_traj.recovered
        assert np.max(np.abs(total - 1.0)) < 1e-9
        # the sums the integrator checked are those of the reconstructed I
        assert np.allclose(desk_traj.total_infected, infected, rtol=1e-14, atol=0.0)

    def test_rk4_order(self):
        params = dyn.default_sir_params(4)
        ref = dyn.integrate_sir(params, 2.0, 0.00125)

        def endpoint_err(step):
            traj = dyn.integrate_sir(params, 2.0, step)
            return np.max(np.abs(traj.infected(-1) - ref.infected(-1)))

        ratio = endpoint_err(0.05) / endpoint_err(0.025)
        assert 12.0 <= ratio <= 20.0

    def test_replicator_velocity_matches_finite_difference(self):
        params = dyn.default_sir_params(6)

        def fd_error(step):
            traj = dyn.integrate_sir(params, 2.0, step)
            p = traj.p()
            fd = (p[2:] - p[:-2]) / (2.0 * step)
            return np.max(np.abs(fd - traj.pdot(slice(1, -1))))

        ratio = fd_error(0.01) / fd_error(0.005)
        assert 3.0 <= ratio <= 5.0

    def test_label_permutation_equivariance(self):
        params = dyn.default_sir_params(5)
        perm = np.array([3, 0, 4, 1, 2])
        permuted = dyn.SirParams(params.gamma[perm], params.epsilon[perm],
                                 params.s0, params.i0[perm], params.r0)
        a = dyn.integrate_sir(params, 3.0, 1e-3)
        b = dyn.integrate_sir(permuted, 3.0, 1e-3)
        assert np.allclose(a.p()[:, perm], b.p(), atol=1e-14)
        assert np.allclose(a.pdot()[:, perm], b.pdot(), atol=1e-14)
        assert np.allclose(a.couplings()[:, perm], b.couplings(), atol=1e-14)

    def test_probability_curves_cross(self):
        # a head start for the weakest variant is overtaken by the strongest
        base = dyn.default_sir_params(10)
        i0 = np.geomspace(4.0, 1.0, 10)
        i0 *= (1.0 - base.s0) / i0.sum()
        params = dyn.SirParams(base.gamma, base.epsilon, base.s0, i0, base.r0)
        traj = dyn.integrate_sir(params, 10.0, 1e-3)
        p = traj.p()
        gap = p[:, -1] - p[:, 0]  # strongest minus weakest share
        assert gap[0] < 0 < gap[-1]

    @pytest.mark.parametrize("n_variants, t_end", [(2, 10.0), (10, 10.0), (1000, 2.0)])
    def test_agrees_with_reference_loop(self, n_variants, t_end):
        params = dyn.default_sir_params(n_variants)
        traj = dyn.integrate_sir(params, t_end, 1e-3)
        states = reference_integrate_sir(params, t_end, 1e-3)
        infected = states[:, 1:-1]
        p = infected / infected.sum(axis=1, keepdims=True)
        couplings = states[:, :1] * params.gamma - params.epsilon
        pdot = p * (couplings - np.sum(p * couplings, axis=1)[:, None])
        for got, want in ((traj.susceptible, states[:, 0]), (traj.recovered, states[:, -1]),
                          (traj.infected(), infected), (traj.p(), p), (traj.pdot(), pdot)):
            assert np.max(np.abs(got - want)) <= 1e-13

    @given(st.integers(2, 64), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 200), min_size=1, max_size=12), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_distributions_and_accessors_agree(self, m, seed, rows, row):
        gen = np.random.default_rng(seed)
        i0 = gen.uniform(1e-3, 1.0, m)
        s0 = gen.uniform(0.5, 0.99)
        params = dyn.SirParams(gen.uniform(0.0, 3.0, m), gen.uniform(0.0, 2.0, m), s0,
                               i0 * (1.0 - s0) / i0.sum(), 0.0)
        traj = dyn.integrate_sir(params, 2.0, 0.01)
        p = traj.p()
        assert np.all(p > 0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= m * 1e-15
        rows = np.array(rows)
        for name in ("p", "pdot", "couplings", "mean_coupling", "infected",
                     "fisher_curve", "info_rate_curve"):
            accessor = getattr(traj, name)
            every = accessor()
            assert np.array_equal(accessor(rows), every[rows]), name
            assert np.array_equal(accessor(row), every[row]), name
            assert np.array_equal(accessor(slice(3, None, 7)), every[3::7]), name

    @pytest.mark.parametrize("gamma, epsilon, i0, step, t_end", [
        ([200.0, 100.0], [1.0, 1.0], [0.05, 0.05], 0.1, 2.0),      # overflow
        ([68.0, 0.7], [53.0, 339.0], [0.25, 0.25], 0.01, 2.0),     # conservation drift
        ([0.25, 0.35], [6000.0, 330.0], [0.05, 0.6], 0.56, 5.6),   # conservation drift
    ])
    def test_first_failure_matches_reference_loop(self, gamma, epsilon, i0, step, t_end):
        # the full-system loop rejects these models too (at steps 1, 11 and
        # 1); the reduced one fails its checks at step 1 in each
        params = dyn.SirParams(gamma, epsilon, 1.0 - sum(i0), i0, 0.0)
        with pytest.raises(dyn.IntegrationError):
            reference_integrate_sir(params, t_end, step)
        with pytest.raises(dyn.IntegrationError) as got:
            dyn.integrate_sir(params, t_end, step)
        where = re.escape(f"at step 1, t={step:g}")
        assert re.fullmatch(
            rf"non-finite state \(S=.+, X=.+, R=.+, infected inf\) {where}"
            rf"|conservation drift \d\.\d{{3}}e[+-]\d+ {where}; use a smaller step",
            str(got.value))

    def test_susceptible_outside_unit_interval_reported(self):
        params = dyn.SirParams([2.0, 2.0], [1.0, 1.0], 1.05, [0.05, 0.05], -0.15)
        with pytest.raises(dyn.IntegrationError,
                           match=r"susceptible fraction 1.05 left \[0, 1\] at step 0, t=0$"):
            dyn.integrate_sir(params, 1.0, 0.1)

    def test_bad_step_rejected(self):
        params = dyn.default_sir_params(3)
        with pytest.raises(ValueError):
            dyn.integrate_sir(params, 1.0, 0.0)
        with pytest.raises(ValueError):
            dyn.integrate_sir(params, 0.001, 0.01)


class TestCouplings:
    def test_no_susceptible_means_pure_decay(self):
        params = dyn.SirParams([1.5, 2.5], [0.9, 1.1], 0.8, [0.1, 0.1], 0.0)
        assert np.allclose(dyn.couplings_at(params, 0.0), [-0.9, -1.1])

    def test_hand_value(self):
        params = dyn.SirParams([2.0, 3.0], [1.0, 1.0], 0.8, [0.1, 0.1], 0.0)
        assert np.allclose(dyn.couplings_at(params, 0.5), [0.0, 0.5])

    def test_out_of_range_susceptible(self):
        params = dyn.default_sir_params(3)
        with pytest.raises(ValueError):
            dyn.couplings_at(params, 1.5)

    def test_mean_coupling_examples(self):
        from infodyn.simplex import Distribution

        assert dyn.mean_coupling(Distribution([0.25, 0.75]), [4.0, 0.0]) == 1.0
        assert dyn.mean_coupling(Distribution([0.3, 0.7]), [2.0, 2.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            dyn.mean_coupling(Distribution([0.5, 0.5]), [1.0, 2.0, 3.0])

    def test_fisher_equals_coupling_variance_on_grid(self, desk_traj):
        g = desk_traj.fisher_curve()
        d = desk_traj.couplings()
        mean_d = desk_traj.mean_coupling()
        var_d = np.sum(desk_traj.p() * (d - mean_d[:, None]) ** 2, axis=1)
        assert np.all(g >= 0.0)
        mask = var_d > 1e-30
        assert np.max(np.abs(g[mask] / var_d[mask] - 1.0)) < 1e-10

    def test_weighted_rate_identity(self, desk_traj):
        # tangency written through couplings: sum p*(d - <d>) = 0
        resid = np.sum(desk_traj.p() * (desk_traj.couplings()
                                        - desk_traj.mean_coupling()[:, None]), axis=1)
        assert np.max(np.abs(resid)) < 1e-12


class TestTrajectoryAt:
    def test_initial_condition_exact(self, desk_traj):
        p, pdot, s, d = dyn.trajectory_at(desk_traj, 0.0)
        params = desk_traj.params
        expected = params.i0 / params.i0.sum()
        assert np.allclose(p.probs, expected, atol=1e-15)
        assert s == params.s0

    def test_nearest_point_snapping(self, desk_traj):
        step = desk_traj.step
        t_grid = 100 * step
        a = dyn.trajectory_at(desk_traj, t_grid)
        b = dyn.trajectory_at(desk_traj, t_grid + 0.4 * step)
        assert np.array_equal(a[0].probs, b[0].probs)

    def test_velocity_is_tangent(self, desk_traj):
        _, pdot, _, _ = dyn.trajectory_at(desk_traj, 3.21)
        assert abs(pdot.components.sum()) < 1e-10

    def test_out_of_range(self, desk_traj):
        with pytest.raises(ValueError):
            dyn.trajectory_at(desk_traj, 11.0)
        with pytest.raises(ValueError):
            dyn.trajectory_at(desk_traj, -0.5)


class TestCsvExport:
    def test_round_trip(self, desk_traj, tmp_path):
        path = tmp_path / "traj.csv"
        dyn.trajectory_to_csv(desk_traj, path)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        m = desk_traj.n_variants
        assert header[:2] == ["t", "S"]
        assert header[-1] == "mean_d"
        assert len(header) == 2 + 3 * m + 1
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (desk_traj.times.size, len(header))
        assert np.allclose(data[:, 0], desk_traj.times)
        assert np.allclose(data[:, 2:2 + m], desk_traj.p(), atol=0)

    def test_bytes_match_csv_writer(self, tmp_path):
        # cells that are negative (couplings), zero (t = 0) and in exponent
        # form (the share of a variant that starts at 1e-7)
        params = dyn.SirParams([2.0, 2.0, 0.5], [1.0, 1.0, 1.5], 0.9,
                               [1e-7, 0.04, 0.06 - 1e-7], 0.0)
        traj = dyn.integrate_sir(params, 1.0, 0.01)
        rows = slice(None, None, 7)
        path = tmp_path / "fast.csv"
        dyn.trajectory_to_csv(traj, path, rows)

        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "S"] + [f"{name}_{i}" for name in ("p", "pdot", "d")
                                          for i in (1, 2, 3)] + ["mean_d"])
            for k in range(traj.times.size)[rows]:
                row = ([traj.times[k], traj.susceptible[k]] + list(traj.p(k))
                       + list(traj.pdot(k)) + list(traj.couplings(k))
                       + [traj.mean_coupling(k)])
                writer.writerow(f"{x:.17g}" for x in row)
        assert path.read_bytes() == ref.read_bytes()
        cells = [c for line in path.read_text().splitlines()[1:] for c in line.split(",")]
        assert any(c.startswith("-") for c in cells)
        assert "0" in cells
        assert any("e-" in c for c in cells)
