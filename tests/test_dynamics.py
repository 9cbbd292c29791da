import csv
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodyn import cli
from infodyn import dynamics as dyn
from conftest import couplings, grid, infected


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


def per_variant_integrate_sir(params, t_end, step):
    """Classical RK4 on the reduced (S, X, R) system, with the sums over
    variants taken term by term and no checks: the fine-step reference of
    `dyn.solve_sir`."""
    times = grid(t_end, step)
    n_steps = times.size - 1
    exponents = np.column_stack((np.log(params.i0), params.gamma, -params.epsilon))
    weights = np.stack((params.gamma, params.epsilon, np.ones_like(params.gamma)))

    def rates(x, t):
        return weights.dot(np.exp(exponents.dot([1.0, x, t]))).tolist()

    s, x, r = params.s0, 0.0, params.r0
    half, sixth = 0.5 * step, step / 6.0
    states = []
    for k, t in enumerate(times.tolist()):
        g1, e1, total = rates(x, t)
        states.append((s, x, r, total))
        if k == n_steps:
            break
        s2, x2 = s - half * s * g1, x + half * s
        g2, e2, _ = rates(x2, t + half)
        s3, x3 = s - half * s2 * g2, x + half * s2
        g3, e3, _ = rates(x3, t + half)
        s4, x4 = s - step * s3 * g3, x + step * s3
        g4, e4, _ = rates(x4, t + step)
        s, x, r = (s - sixth * (s * g1 + 2.0 * s2 * g2 + 2.0 * s3 * g3 + s4 * g4),
                   x + sixth * (s + 2.0 * s2 + 2.0 * s3 + s4),
                   r + sixth * (e1 + 2.0 * e2 + 2.0 * e3 + e4))
    return dyn.Trajectory(times, *np.array(states).T, params)


def reference_taylor_sir(params, times):
    """The step rule of `dyn.solve_sir`, written out on its own: Taylor
    coefficients of every variant's I (not of one row per rate pair) by the
    Cauchy product of S and I, S's carried times LIFT below 1 / LIFT, each
    series step the longest whose truncation estimate from the last two
    coefficients is at most STEP_TOL, states by np.polyval, and the checks of
    the state after each step.  Returns the step starts, the end of the last
    step included, and the (S, X, R, sum(I)) rows at `times`.  Raises
    IntegrationError with solve_sir's message for a step below MIN_STEP or
    for the first failing check."""
    order, gamma, epsilon = dyn.SERIES_ORDER, params.gamma, params.epsilon
    times = np.asarray(times, dtype=float)
    states = np.full((times.size, 4), np.nan)
    done = np.zeros(times.size, dtype=bool)
    t0, state, starts = 0.0, (params.s0, 0.0, params.r0), [0.0]

    def failure(t, row):
        """solve_sir's message for the (S, X, R, sum(I)) row at t, or ""."""
        s, x, r, total = row
        if not np.isfinite(row).all():
            return f"non-finite state (S={s}, X={x}, R={r}, infected {total}) at t={t:g}"
        if not 0.0 <= s <= 1.0:
            return f"susceptible fraction {s} left [0, 1] at t={t:g}"
        if abs(s + total + r - 1.0) > dyn.CONSERVATION_TOL:
            return f"conservation drift {abs(s + total + r - 1.0):.3e} at t={t:g}"
        return ""

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            s, x, r = state
            lift = dyn.LIFT if s < 1.0 / dyn.LIFT else 1.0
            i_c = [params.i0 * np.exp(gamma * x - epsilon * t0)]
            s_c, x_c, r_c = [s * lift], [x], [r]
            for k in range(order - 1):
                conv = sum(s_c[j] * i_c[k - j] for j in range(k + 1))
                i_c.append((gamma * conv / lift - epsilon * i_c[k]) / (k + 1))
                s_c.append(-np.dot(gamma, conv) / (k + 1))
                x_c.append(s_c[k] / lift / (k + 1))
                r_c.append(np.dot(epsilon, i_c[k]) / (k + 1))
            series = np.array([s_c, x_c, r_c, [c.sum() for c in i_c]])
            relative = 1.0 / s_c[0] if s > 0 else 0.0
            h = np.min([(dyn.STEP_TOL / (np.ptp(gamma) * abs(x_c[k])
                                         + (np.max(gamma) / lift + relative) * abs(s_c[k])
                                         + abs(series[3, k]))) ** (1.0 / k)
                        for k in (order - 2, order - 1)])
            if not h >= dyn.MIN_STEP:
                raise dyn.IntegrationError(
                    f"series step {h:.3e} < MIN_STEP = {dyn.MIN_STEP:g} at t={t0:g}: the "
                    f"truncation estimate of a longer one exceeds {dyn.STEP_TOL:g}")
            inside = ~done & (times <= t0 + h)
            for c in range(4):
                states[inside, c] = np.polyval(series[c, ::-1], times[inside] - t0)
            states[inside, 0] /= lift
            done |= inside
            end = [np.polyval(series[c, ::-1], h) for c in range(4)]
            end[0] /= lift
            t0 += h
            starts.append(t0)
            if done.all() or failure(t0, end):
                break
            state = end[:3]
    bad = [i for i in np.flatnonzero(done) if failure(times[i], states[i])]
    if bad:  # the earliest failing time asked for
        first = min(bad, key=lambda i: times[i])
        raise dyn.IntegrationError(failure(times[first], states[first]))
    if not done.all():  # the end of the step that failed
        raise dyn.IntegrationError(failure(t0, end))
    return np.array(starts), states


NUMBER = re.compile(r"(?<!\w)-?(?:\d+\.?\d*(?:e[-+]\d+)?|nan|inf)(?!\w)")


def numbers_apart(message):
    """The message with each number in it replaced by #, and the numbers."""
    return NUMBER.sub("#", message), [float(v) for v in NUMBER.findall(message)]


@pytest.fixture(scope="module")
def desk_traj():
    return dyn.solve_sir(dyn.default_sir_params(10), grid(10.0, 1e-3))


class TestSirParams:
    def test_rejects_bad_normalisation(self):
        with pytest.raises(ValueError, match="sum"):
            dyn.SirParams([1.0, 1.0], [0.5, 0.5], 0.9, [0.1, 0.1], 0.0)

    def test_rejects_nonpositive_infected(self):
        with pytest.raises(ValueError, match="index 1"):
            dyn.SirParams([1.0, 1.0], [0.5, 0.5], 0.9, [0.1, 0.0], 0.0)

    @pytest.mark.parametrize("s0, i0, r0, name", [
        (1.05, [0.05, 0.05], -0.15, "s0"),
        (-0.1, [0.5, 0.5], 0.1, "s0"),
        (0.9, [0.1, 0.1], -0.1, "r0"),
        (0.0, [0.05, 0.05], 1.0 + 1e-9, "r0"),
        (float("nan"), [0.5, 0.5], 0.0, "s0"),
    ])
    def test_rejects_initial_fraction_outside_unit_interval(self, s0, i0, r0, name):
        with pytest.raises(ValueError, match=f"initial fraction {name} = .* outside \\[0, 1\\]"):
            dyn.SirParams([2.0, 2.0], [1.0, 1.0], s0, i0, r0)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError, match="rates"):
            dyn.SirParams([1.0, -1.0], [0.5, 0.5], 0.8, [0.1, 0.1], 0.0)

    @pytest.mark.parametrize("name", ["gamma", "epsilon", "i0"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_entry(self, name, bad):
        # nan passes every sign check (nan < 0 is false), so it is named here
        arrays = {"gamma": [1.0, 1.0, 1.0], "epsilon": [0.5, 0.5, 0.5], "i0": [0.1, 0.05, 0.05]}
        arrays[name][1] = bad
        with pytest.raises(ValueError, match=rf"^{name}\[1\] = {bad} is not finite$"):
            dyn.SirParams(arrays["gamma"], arrays["epsilon"], 0.8, arrays["i0"], 0.0)

    def test_default_generator(self):
        params = dyn.default_sir_params(10)
        assert params.gamma[0] == 1.5 and params.gamma[-1] == 2.5
        assert params.epsilon[0] == 0.9 and params.epsilon[-1] == 1.1
        assert params.s0 + params.i0.sum() + params.r0 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n_variants", [2, 3, 10, 50, 1000])
    def test_default_generator_is_evenly_spaced(self, n_variants):
        params = dyn.default_sir_params(n_variants)
        assert np.array_equal(params.gamma, np.linspace(1.5, 2.5, n_variants))
        assert np.array_equal(params.epsilon, np.linspace(0.9, 1.1, n_variants))
        assert np.array_equal(params.i0, np.full(n_variants, (1.0 - dyn.DEFAULT_S0) / n_variants))

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
        traj = dyn.solve_sir(params, grid(5.0, 1e-3))
        assert np.max(np.abs(traj.p() - traj.p(0))) < 1e-12
        _, pdot, g_tt = traj.replicator()
        assert np.max(np.abs(pdot)) < 1e-12
        assert np.max(g_tt) < 1e-24

    def test_conservation(self, desk_traj):
        total_infected = infected(desk_traj).sum(axis=1)
        total = desk_traj.susceptible + total_infected + desk_traj.recovered
        assert np.max(np.abs(total - 1.0)) < 1e-9
        # the sums the integrator checked are those of the reconstructed I
        assert np.allclose(desk_traj.total_infected, total_infected, rtol=1e-14, atol=0.0)

    def test_replicator_velocity_matches_finite_difference(self):
        params = dyn.default_sir_params(6)

        def fd_error(step):
            traj = dyn.solve_sir(params, grid(2.0, step))
            p = traj.p()
            fd = (p[2:] - p[:-2]) / (2.0 * step)
            return np.max(np.abs(fd - traj.replicator(slice(1, -1))[1]))

        ratio = fd_error(0.01) / fd_error(0.005)
        assert 3.0 <= ratio <= 5.0

    def test_label_permutation_equivariance(self):
        params = dyn.default_sir_params(5)
        perm = np.array([3, 0, 4, 1, 2])
        permuted = dyn.SirParams(params.gamma[perm], params.epsilon[perm],
                                 params.s0, params.i0[perm], params.r0)
        a = dyn.solve_sir(params, grid(3.0, 1e-3))
        b = dyn.solve_sir(permuted, grid(3.0, 1e-3))
        assert np.allclose(a.p()[:, perm], b.p(), atol=1e-14)
        assert np.allclose(a.replicator()[1][:, perm], b.replicator()[1], atol=1e-14)
        assert np.allclose(couplings(a)[:, perm], couplings(b), atol=1e-14)

    def test_probability_curves_cross(self):
        # a head start for the weakest variant is overtaken by the strongest
        base = dyn.default_sir_params(10)
        i0 = np.geomspace(4.0, 1.0, 10)
        i0 *= (1.0 - base.s0) / i0.sum()
        params = dyn.SirParams(base.gamma, base.epsilon, base.s0, i0, base.r0)
        traj = dyn.solve_sir(params, grid(10.0, 1e-3))
        p = traj.p()
        gap = p[:, -1] - p[:, 0]  # strongest minus weakest share
        assert gap[0] < 0 < gap[-1]

    @pytest.mark.parametrize("n_variants, t_end", [(2, 10.0), (10, 10.0), (1000, 2.0)])
    def test_agrees_with_reference_loop(self, n_variants, t_end):
        params = dyn.default_sir_params(n_variants)
        traj = dyn.solve_sir(params, grid(t_end, 1e-3))
        states = reference_integrate_sir(params, t_end, 1e-3)
        i = states[:, 1:-1]
        p = i / i.sum(axis=1, keepdims=True)
        d = states[:, :1] * params.gamma - params.epsilon
        pdot = p * (d - np.sum(p * d, axis=1)[:, None])
        for got, want in ((traj.susceptible, states[:, 0]), (traj.recovered, states[:, -1]),
                          (infected(traj), i), (traj.p(), p), (traj.replicator()[1], pdot)):
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
        traj = dyn.solve_sir(params, grid(2.0, 0.01))
        p = traj.p()
        assert np.all(p > 0)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= m * 1e-15
        rows = np.array(rows)
        # each evaluation at some rows gives those rows of its whole arrays,
        # and replicator's p is p's
        evaluations = (("p", lambda at: (traj.p(at),)), ("replicator", traj.replicator),
                       ("info_rate_curve", lambda at: (traj.info_rate_curve(at),)))
        for name, evaluate in evaluations:
            every = evaluate(slice(None))
            for at in (rows, row, slice(3, None, 7)):
                for part, whole in zip(evaluate(at), every, strict=True):
                    assert np.array_equal(part, whole[at]), name
        assert np.array_equal(traj.replicator()[0], p)

    @pytest.mark.parametrize("gamma, epsilon, i0, step, t_end", [
        ([200.0, 100.0], [1.0, 1.0], [0.05, 0.05], 0.1, 2.0),
        ([68.0, 0.7], [53.0, 339.0], [0.25, 0.25], 0.01, 2.0),
        ([0.25, 0.35], [6000.0, 330.0], [0.05, 0.6], 0.56, 5.6),
        # series coefficients that overflow: inf * 0 is nan, and so is the step
        ([0.25, 0.35], [1e12, 330.0], [0.05, 0.6], 0.25, 5.0),
    ])
    def test_rates_below_the_step_floor_fail_as_in_the_reference_loops(
            self, gamma, epsilon, i0, step, t_end):
        # the full-system loop rejects these models (at steps 1, 11, 1 and 1);
        # their first series step is shorter than MIN_STEP, the same step in
        # the Taylor reference loop
        params = dyn.SirParams(gamma, epsilon, 1.0 - sum(i0), i0, 0.0)
        with pytest.raises(dyn.IntegrationError):
            reference_integrate_sir(params, t_end, step)
        with pytest.raises(dyn.IntegrationError) as ref:
            reference_taylor_sir(params, grid(t_end, step))
        assert str(ref.value).startswith("series step ")
        assert str(ref.value).endswith(" < MIN_STEP = 0.025 at t=0: the truncation estimate "
                                       "of a longer one exceeds 1e-15")
        with pytest.raises(dyn.IntegrationError, match=f"^{re.escape(str(ref.value))}$"):
            dyn.solve_sir(params, grid(t_end, step))

    @pytest.mark.parametrize("gamma, epsilon, i0, step, tol, message, asked", [
        ([8.0, 8.0], [1.0, 1.0], [0.05, 0.05], 0.5, 1.0,
         r"conservation drift 1\.224e-01 at t=1", True),
        ([16.0, 16.0], [1.0, 1.0], [0.05, 0.05], 0.25, np.inf,
         r"susceptible fraction -0\.378144058722\d* left \[0, 1\] at t=0\.25", True),
        # with the step rule off, coefficients that overflow give a nan state
        ([0.25, 0.35], [1e12, 330.0], [0.05, 0.6], 0.25, 1.0,
         r"non-finite state \(S=0\.35, X=0\.0, R=nan, infected nan\) at t=0", True),
        # no time asked for fails before the end of a series step, where the
        # next would start, but the state there does
        ([0.25, 0.35], [6000.0, 330.0], [0.05, 0.6], 0.56, 1e3,
         r"susceptible fraction -2\.252482776164\d* left \[0, 1\] at t=0\.00268154", False),
        ([8.0, 8.0], [1.0, 1.0], [0.05, 0.05], 0.5, 1e3,
         r"susceptible fraction -77\.971725992\d* left \[0, 1\] at t=0\.640213", False),
    ])
    def test_checks_name_the_first_failing_time_of_the_reference_loop(
            self, gamma, epsilon, i0, step, tol, message, asked, monkeypatch):
        # series steps far too long for the rates, sized to an estimate of
        # tol with no floor, fail a check at the time the reference loop
        # names, with the message pinned from it
        monkeypatch.setattr(dyn, "STEP_TOL", tol)
        monkeypatch.setattr(dyn, "MIN_STEP", 0.0)
        params = dyn.SirParams(gamma, epsilon, 1.0 - sum(i0), i0, 0.0)
        times = grid(5.0, step)
        with pytest.raises(dyn.IntegrationError, match=f"^{message}$") as ref:
            reference_taylor_sir(params, times)
        text, values = numbers_apart(str(ref.value))
        assert np.isclose(times, values[-1]).any() == asked
        # in any order: the error names the earliest failing time; its state
        # is the reference loop's to rounding (per-variant sums there, one
        # per rate pair here)
        for order in (times, times[::-1]):
            with pytest.raises(dyn.IntegrationError, match=f"^{message}$") as got:
                dyn.solve_sir(params, order)
            assert numbers_apart(str(got.value))[0] == text
            assert np.allclose(numbers_apart(str(got.value))[1], values, rtol=1e-12,
                               atol=0.0, equal_nan=True)

    @pytest.mark.parametrize("times, error", [
        ([], r"times must be a non-empty 1-d array, got shape \(0,\)"),
        ([[0.0, 1.0]], r"times must be a non-empty 1-d array, got shape \(1, 2\)"),
        (0.5, r"times must be a non-empty 1-d array, got shape \(\)"),
        ([0.0, -0.5], r"times\[1\] = -0\.5 is not a finite time of at least 0"),
        ([1.0, 2.0, float("nan")], r"times\[2\] = nan is not a finite time of at least 0"),
        ([float("inf")], r"times\[0\] = inf is not a finite time of at least 0"),
        # past MAX_TIME, refused before the first series step; at t = 1e16
        # the steps would not even advance, t0 + h == t0
        ([1e16], r"times\[0\] = 1e\+16 is past MAX_TIME: times must be at most 2048"),
        ([1.0, np.nextafter(2048.0, 3000.0)],
         r"times\[1\] = 2048\.0000000000005 is past MAX_TIME: .*"),
        ([1.7e308, 0.0], r"times\[0\] = 1\.7e\+308 is past MAX_TIME: .*"),
    ])
    def test_bad_times_rejected(self, times, error):
        with pytest.raises(ValueError, match=f"^{error}$"):
            dyn.solve_sir(dyn.default_sir_params(3), times)

    def test_rows_are_the_times_asked_for(self):
        # any order, repeats allowed: row i is the state at times[i]
        params = dyn.default_sir_params(3)
        times = np.array([2.5, 0.0, 7.3, 2.5, 0.1, 10.0])
        traj = dyn.solve_sir(params, times)
        assert np.array_equal(traj.times, times) and not traj.times.flags.writeable
        order = np.argsort(times)
        ordered = dyn.solve_sir(params, times[order])
        for name in ("susceptible", "cumulative_susceptible", "recovered", "total_infected"):
            got = getattr(traj, name)
            assert np.array_equal(got[order], getattr(ordered, name)), name
            assert got[0] == got[3], name
        assert traj.susceptible[1] == params.s0 and traj.cumulative_susceptible[1] == 0.0


def fast_params(gamma_lo, gamma_hi):
    """default_sir_params(10) with gamma spread evenly over [gamma_lo, gamma_hi]."""
    base = dyn.default_sir_params(10)
    return dyn.SirParams(np.linspace(gamma_lo, gamma_hi, 10), base.epsilon, base.s0, base.i0,
                         base.r0)


def series_steps(params, t_end):
    """The series step starts of solve_sir up to t_end, the end of the last
    step included, as it hands them to _states."""
    seen = []
    real = dyn._states

    def spy(times, starts, *rest):
        seen.append(starts)
        return real(times, starts, *rest)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dyn, "_states", spy)
        dyn.solve_sir(params, [t_end])
    return seen[0]


STATE_NAMES = ("susceptible", "cumulative_susceptible", "recovered", "total_infected")


class TestSolveSir:
    """The Taylor series against plain RK4 at dt/2000 = 1.25e-4."""

    @staticmethod
    def errors(params, t_end, step=0.0125):
        traj = dyn.solve_sir(params, grid(t_end, step))
        ref = per_variant_integrate_sir(params, t_end, 1.25e-4)
        rows = np.arange(traj.times.size) * int(round(step / 1.25e-4))
        p_err = np.max(np.abs(traj.p() - ref.p(rows)) / ref.p(rows))
        g_ref = ref.replicator(rows)[2]
        return traj, p_err, np.max(np.abs(traj.replicator()[2] - g_ref)) / np.max(g_ref)

    @pytest.mark.parametrize("n_variants, t_end", [(10, 10.0), (1000, 6.0)])
    def test_matches_fine_rk4(self, n_variants, t_end):
        traj, p_err, g_err = self.errors(dyn.default_sir_params(n_variants), t_end)
        assert p_err <= 5e-14 and g_err <= 5e-14

    @pytest.mark.parametrize("lo, hi, t_end, floor", [(6.0, 8.0, 10.0, 0.141),
                                                     (20.0, 22.0, 2.0, 0.042)],
                             ids=["fast", "fastest"])
    def test_fast_model_shortens_its_steps(self, lo, hi, t_end, floor, monkeypatch):
        # gamma in [6, 8] steps down to 0.1404, gamma in [20, 22] to 0.0414,
        # both above MIN_STEP, and keep their accuracy
        params = fast_params(lo, hi)
        traj, p_err, g_err = self.errors(params, t_end)
        assert np.array_equal(traj.times, grid(t_end, 0.0125))
        assert p_err <= 5e-14 and g_err <= 5e-14
        assert dyn.MIN_STEP < np.diff(series_steps(params, t_end)).min() < floor
        # a floor above the shortest step refuses the model, naming the first
        # step below it as the reference loop does
        monkeypatch.setattr(dyn, "MIN_STEP", floor)
        with pytest.raises(dyn.IntegrationError) as ref:
            reference_taylor_sir(params, grid(t_end, 0.0125))
        with pytest.raises(dyn.IntegrationError,
                           match=rf"^series step \d\.\d{{3}}e-0[12] < MIN_STEP = {floor:g} at "
                                 rf"t=\d\.\d+: the truncation estimate of a longer one exceeds "
                                 rf"1e-15$") as got:
            dyn.solve_sir(params, grid(t_end, 0.0125))
        assert str(got.value) == str(ref.value)

    @staticmethod
    def no_infection(epsilon, step):
        """Largest error at the grid points of the model with gamma = 0, for
        S, X, I, sum(I) and R: S stays s0, X = s0 t, I = i0 exp(-epsilon t),
        and R gains what I loses."""
        i0 = np.linspace(0.01, 0.05, len(epsilon))
        traj = dyn.solve_sir(dyn.SirParams(np.zeros(len(epsilon)), epsilon, 0.8, i0,
                                           0.2 - i0.sum()), grid(10.0, step))
        t = traj.times
        decay = np.exp(-np.outer(t, epsilon))
        return [np.max(np.abs(got - want)) for got, want in (
            (traj.susceptible, np.full(t.size, 0.8)),
            (traj.cumulative_susceptible, 0.8 * t),
            (infected(traj), i0 * decay),
            (traj.total_infected, (i0 * decay).sum(axis=1)),
            (traj.recovered, 0.2 - (i0 * decay).sum(axis=1)))]

    @pytest.mark.parametrize("step", [0.0125, 1e-3, 0.3, 1.0])
    def test_no_infection_matches_closed_form(self, step):
        assert max(self.no_infection([0.5, 0.9, 1.1, 2.0], step)) <= 1e-14

    def test_fast_decay_sizes_its_step_by_the_infected_term(self):
        # with gamma = 0, S and X have no error to show, and the sum(I) term
        # of the estimate sets the step: sum(I)[k] = sum i0 (-epsilon)^k / k!,
        # so the first step is the shorter of (STEP_TOL / |sum(I)[k]|)^(1/k)
        # for k = 28, 29
        errors = self.no_infection([0.5, 40.0], 0.0125)
        assert max(errors[:1] + errors[2:]) <= 1e-14
        assert errors[1] <= 1e-14 * 8.0  # X = 8 at t = 10, summed over 11 steps
        i0, epsilon = np.linspace(0.01, 0.05, 2), np.array([0.5, 40.0])
        first = min((dyn.STEP_TOL * math.factorial(k) / abs(np.dot(i0, (-epsilon) ** k)))
                    ** (1.0 / k) for k in (28, 29))
        params = dyn.SirParams(np.zeros(2), epsilon, 0.8, i0, 0.2 - i0.sum())
        starts = series_steps(params, 10.0)
        assert starts.size == 12 and starts[1] == pytest.approx(first, rel=1e-13)

    @pytest.mark.parametrize("groups", [[3], [50]])
    @pytest.mark.parametrize("step", [0.0125, 1e-3])
    def test_one_rate_group_keeps_its_first_integral(self, groups, step):
        # one rate row: S + sum(I) - (epsilon / gamma) log S is constant
        # along the exact curve (Kermack and McKendrick)
        params = dyn.grouped_sir_params(groups)
        traj = dyn.solve_sir(params, grid(10.0, step))
        ratio = params.epsilon[0] / params.gamma[0]
        for total in (infected(traj).sum(axis=1), traj.total_infected):
            invariant = traj.susceptible + total - ratio * np.log(traj.susceptible)
            assert np.max(np.abs(invariant - invariant[0])) <= 1e-15

    @pytest.mark.parametrize("gamma, epsilon, s0", [(20.0, 0.2, 0.9), (10.0, 0.1, 0.9),
                                                   (25.0, 0.05, 0.5)])
    def test_high_r0_keeps_the_relative_accuracy_of_s(self, gamma, epsilon, s0):
        # R0 from 100 to 500: S falls to 1e-28..1e-86, far below STEP_TOL,
        # and the first integral S + sum(I) - (epsilon / gamma) log S checks
        # log S to within 4e-15 times gamma / epsilon (with the absolute
        # error terms alone, S went negative by about 1e-19)
        params = dyn.SirParams([gamma] * 3, [epsilon] * 3, s0, [(1.0 - s0) / 3] * 3, 0.0)
        traj = dyn.solve_sir(params, grid(10.0, 0.0125))
        assert traj.susceptible[-1] < 1e-27
        invariant = (traj.susceptible + traj.total_infected
                     - epsilon / gamma * np.log(traj.susceptible))
        assert np.max(np.abs(invariant - invariant[0])) <= 4e-15

    @pytest.mark.parametrize("gamma, epsilon, t_end", [(7.0, 0.005, 300.0), (3.0, 0.002, 600.0)])
    def test_s_past_the_smallest_normal_number_keeps_its_accuracy(self, gamma, epsilon, t_end):
        # R0 of 1400 and 1500: S falls below 1e-308 near t = 142 and 321 and
        # on to 0, its coefficients carried times LIFT from 1 / LIFT down
        # (unlifted, the last of them underflow, the S term of the estimate
        # reads 0 and a step too long turns S negative)
        params = dyn.SirParams([gamma] * 3, [epsilon] * 3, 0.9, [0.1 / 3] * 3, 0.0)
        times = np.linspace(0.0, t_end, 2001)
        traj = dyn.solve_sir(params, times)
        s = traj.susceptible
        assert np.all(np.diff(s) <= 0.0) and (s < 1e-308).sum() > 500 and s[-1] == 0.0
        normal = s > 1e-300
        invariant = (s + traj.total_infected - epsilon / gamma * np.log(s, where=normal,
                                                                       out=np.ones_like(s)))
        assert np.max(np.abs(invariant[normal] - invariant[0])) <= 4e-15
        # the reference loop takes the same steps, to rounding, and agrees
        # on log S where S is a normal number and on S's zeros
        starts, ref = reference_taylor_sir(params, times)
        assert np.allclose(series_steps(params, t_end), starts, rtol=1e-12, atol=0.0)
        assert np.allclose(s[normal], ref[normal, 0], rtol=2e-12, atol=0.0)
        assert np.array_equal(s == 0.0, ref[:, 0] == 0.0)
        for c, name in enumerate(STATE_NAMES[1:], start=1):
            assert np.max(np.abs(getattr(traj, name) - ref[:, c])) <= 4e-15, name

    @pytest.mark.parametrize("params", [dyn.default_sir_params(10), dyn.default_sir_params(1000),
                                        fast_params(6.0, 8.0)], ids=["N9", "N999", "fast"])
    def test_shorter_t_end_gives_a_prefix(self, params):
        # the series steps start at 0 whatever the last time: mc-wide's
        # t_end = 6 model is the shipped t_end = 10 model cut short, bit for bit
        short, full = (dyn.solve_sir(params, grid(t_end, 0.0125)) for t_end in (6.0, 10.0))
        rows = short.times.size
        for name in ("times", "susceptible", "cumulative_susceptible", "recovered",
                     "total_infected"):
            assert np.array_equal(getattr(short, name), getattr(full, name)[:rows]), name

    def test_coarse_grid_step_spans_several_series_steps(self):
        # dt = 20 with t_end = 100: grid steps of 1 against series steps from
        # 0.75 to 29, whose polynomials give the points of a fine grid too
        traj = dyn.solve_sir(dyn.default_sir_params(10), grid(100.0, 1.0))
        fine = dyn.solve_sir(dyn.default_sir_params(10), grid(100.0, 0.0125))
        assert traj.times.size == 101 and np.array_equal(traj.times, fine.times[::80])
        for name in ("susceptible", "cumulative_susceptible", "recovered", "total_infected"):
            assert np.array_equal(getattr(traj, name), getattr(fine, name)[::80]), name

    @pytest.mark.parametrize("n_variants", [10, 1000], ids=["N9", "N999"])
    def test_state_at_a_time_ignores_the_other_times(self, n_variants):
        # the times 0, 0.5, ..., 10 alone and inside the grid of step 0.0125:
        # each state is computed from its own time only, bit for bit
        params = dyn.default_sir_params(n_variants)
        coarse = np.arange(21) * 0.5
        fine = grid(10.0, 0.0125)
        fine[::40] = coarse
        alone, inside = dyn.solve_sir(params, coarse), dyn.solve_sir(params, fine)
        for name in ("susceptible", "cumulative_susceptible", "recovered", "total_infected"):
            assert np.array_equal(getattr(alone, name), getattr(inside, name)[::40]), name
        assert np.array_equal(alone.p(), inside.p(slice(None, None, 40)))

    @given(st.sampled_from(["default", "grouped"]),
           st.lists(st.floats(0.0, 20.0), min_size=1, max_size=30), st.data())
    @settings(max_examples=30, deadline=None)
    def test_each_row_is_its_time_alone(self, model, values, data):
        # the series steps move with the state, not with the times asked for:
        # in any order and with repeats, row i is solve_sir at times[i] alone
        params = (dyn.default_sir_params(10) if model == "default"
                  else dyn.grouped_sir_params([3, 4, 3]))
        repeats = data.draw(st.lists(st.sampled_from(values), max_size=10))
        times = np.array(data.draw(st.permutations(values + repeats)))
        traj = dyn.solve_sir(params, times)
        for i, t in enumerate(times):
            alone = dyn.solve_sir(params, [t])
            for name in STATE_NAMES:
                assert getattr(traj, name)[i] == getattr(alone, name)[0], (t, name)
            assert np.array_equal(traj.p(i), alone.p(0)), t

    @pytest.mark.parametrize("params, t_end, steps", [
        (dyn.default_sir_params(10), 10.0, 9),
        (dyn.default_sir_params(1000), 10.0, 9),
        (dyn.default_sir_params(10), 100.0, 18),
        (dyn.grouped_sir_params([3, 4, 3]), 20.0, 12),
        (fast_params(6.0, 8.0), 10.0, 18),
        (fast_params(20.0, 22.0), 2.0, 18),
        (dyn.SirParams(np.zeros(2), [0.5, 40.0], 0.8, [0.01, 0.05], 0.14), 10.0, 11),
    ], ids=["N9", "N999", "N9-t100", "grouped", "fast", "fastest", "no-infection"])
    def test_steps_follow_the_reference_loop(self, params, t_end, steps):
        # the step rule written out on its own over the variants: the same
        # steps, and the same states within 1e-13, relative above 1
        times = grid(t_end, 0.0125)
        starts, want = reference_taylor_sir(params, times)
        got = series_steps(params, t_end)
        assert starts.size == got.size == steps + 1
        assert np.max(np.abs(got - starts) / np.maximum(starts, 1.0)) <= 1e-13
        traj = dyn.solve_sir(params, times)
        got = np.column_stack([getattr(traj, name) for name in STATE_NAMES])
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) <= 1e-13

    @pytest.mark.parametrize("n_variants, digest", [
        (10, "97e8dcc645e76d505598f6a1b44c5627215be9ccb1d6a501c47a4473a11f7289"),
        (1000, "d1c8238693fc2707ce0be7e47f255ef9a23767bfd15130906826879a749912b9"),
    ], ids=["N9", "N999"])
    def test_states_match_pinned_digest(self, n_variants, digest):
        # a change meant to touch only Python overhead must keep every byte;
        # a declared rounding-level change updates these digests
        traj = dyn.solve_sir(dyn.default_sir_params(n_variants), grid(10.0, 0.0125))
        h = hashlib.sha256()
        for state in (traj.susceptible, traj.cumulative_susceptible, traj.recovered,
                      traj.total_infected):
            h.update(state.tobytes())
        assert h.hexdigest() == digest

    def test_matches_extended_precision_reference(self):
        # mpmath's Taylor-series integrator on the reduced (S, X, R) system at
        # 20 digits, with the sums over variants taken over the closed form I;
        # Taylor degree 20 rather than mpmath's 33 at 20 digits gives the same
        # values here in about two thirds of the time
        mpmath = pytest.importorskip("mpmath")
        params = dyn.default_sir_params(10)
        traj = dyn.solve_sir(params, [0.5, 1.0, 1.5, 2.0])
        with mpmath.workdps(20):
            log_i0 = [mpmath.log(x) for x in params.i0.tolist()]
            gamma = [mpmath.mpf(x) for x in params.gamma.tolist()]
            epsilon = [mpmath.mpf(x) for x in params.epsilon.tolist()]

            def rates(t, y):
                s, x, _ = y
                infected = [mpmath.exp(a + g * x - e * t)
                            for a, g, e in zip(log_i0, gamma, epsilon)]
                return [-s * mpmath.fdot(gamma, infected), s, mpmath.fdot(epsilon, infected)]

            reference = mpmath.odefun(rates, 0, [mpmath.mpf(params.s0), 0, mpmath.mpf(params.r0)],
                                      degree=20)
            for k, t in enumerate(traj.times.tolist()):
                got = (traj.susceptible[k], traj.cumulative_susceptible[k], traj.recovered[k])
                for name, value, want in zip("SXR", got, reference(t)):
                    assert abs(value - float(want)) <= 1e-13 * abs(float(want)), (t, name)


def interleaved_params():
    """Rate pairs A, B, A, C, B with unequal i0: the distinct pairs in order of
    first occurrence are not the sorted ones."""
    return dyn.SirParams([2.5, 1.5, 2.5, 2.0, 1.5], [1.1, 0.9, 1.1, 1.0, 0.9], 0.9,
                         [0.01, 0.02, 0.03, 0.015, 0.025], 0.0)


def per_variant_rows(params):
    """`dyn.rate_rows` with one row per variant: the sums over variants
    taken term by term, the reference of the row reduction."""
    return np.log(params.i0), params.gamma, params.epsilon


class TestRatePairRows:
    """solve_sir sums over one row per distinct rate pair; it matches
    solve_sir on the per-variant sums within 1e-13 relative."""

    @pytest.mark.parametrize("params", [
        dyn.grouped_sir_params([9, 9, 8, 8, 8, 8]),
        dyn.grouped_sir_params([167, 167, 167, 167, 166, 166]),
        interleaved_params(),
        dyn.grouped_sir_params([50]),
    ], ids=["elbow-scan", "model-scan", "interleaved", "one-group"])
    def test_solve_sir_matches_per_variant_sums(self, params, monkeypatch):
        traj = dyn.solve_sir(params, grid(10.0, 0.0125))
        monkeypatch.setattr(dyn, "rate_rows", per_variant_rows)
        ref = dyn.solve_sir(params, grid(10.0, 0.0125))
        for name in ("susceptible", "cumulative_susceptible", "recovered", "total_infected"):
            got, want = getattr(traj, name), getattr(ref, name)
            assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) <= 1e-13, name
        assert traj.params is params and traj.p().shape == (traj.times.size, params.n_variants)
        assert np.max(np.abs(traj.p() - ref.p()) / ref.p()) <= 1e-13

    def test_one_group_keeps_its_shares(self):
        # one rate pair, one row: the shares stay at i0 / sum(i0) exactly
        traj = dyn.solve_sir(dyn.grouped_sir_params([50]), grid(10.0, 0.0125))
        p, _, g_tt = traj.replicator()
        assert p.shape == (traj.times.size, 50) and np.all(p == 1.0 / 50)
        assert np.max(g_tt) < 1e-30

    def test_rows_in_order_of_first_occurrence(self):
        # A, B, A, C, B integrates bit for bit as the three variants A, B, C
        # with the summed i0, not as the sorted pairs B, C, A
        merged = dyn.SirParams([2.5, 1.5, 2.0], [1.1, 0.9, 1.0], 0.9,
                               [0.01 + 0.03, 0.02 + 0.025, 0.015], 0.0)
        traj = dyn.solve_sir(interleaved_params(), grid(5.0, 0.0125))
        ref = dyn.solve_sir(merged, grid(5.0, 0.0125))
        for name in ("susceptible", "cumulative_susceptible", "recovered", "total_infected"):
            assert np.array_equal(getattr(traj, name), getattr(ref, name)), name

    def test_distinct_pairs_are_the_variants(self, monkeypatch):
        # every pair distinct: the rows are the variants, bit for bit
        for params in (dyn.default_sir_params(10), fast_params(6.0, 8.0)):
            traj = dyn.solve_sir(params, grid(5.0, 0.0125))
            with monkeypatch.context() as patch:
                patch.setattr(dyn, "rate_rows", per_variant_rows)
                ref = dyn.solve_sir(params, grid(5.0, 0.0125))
            for name in ("susceptible", "cumulative_susceptible", "recovered", "total_infected"):
                assert np.array_equal(getattr(traj, name), getattr(ref, name)), name


def first_row(params):
    """Trajectory at t = 0 and 0.01, whose row 0 is the initial condition."""
    return dyn.solve_sir(params, [0.0, 0.01])


class TestCouplings:
    def test_no_susceptible_means_pure_decay(self):
        params = dyn.SirParams([1.5, 2.5], [0.9, 1.1], 0.0, [0.5, 0.5], 0.0)
        assert np.array_equal(couplings(first_row(params)), [[-0.9, -1.1], [-0.9, -1.1]])

    def test_hand_value(self):
        params = dyn.SirParams([2.0, 3.0], [1.0, 1.0], 0.5, [0.25, 0.25], 0.0)
        assert np.allclose(couplings(first_row(params), 0), [0.0, 0.5])

    def test_out_of_range_susceptible(self):
        # the susceptible level enters from outside only as s0
        with pytest.raises(ValueError, match="s0 = 1.5 outside"):
            dyn.SirParams([2.0, 2.0], [1.0, 1.0], 1.5, [0.1, 0.1], -0.7)

    def test_mean_coupling_examples(self):
        # p = (0.25, 0.75) with couplings (4, 0), then equal couplings (2, 2)
        for params, want in ((dyn.SirParams([10.0, 2.0], [1.0, 1.0], 0.5, [0.125, 0.375]), 1.0),
                             (dyn.SirParams([6.0, 6.0], [1.0, 1.0], 0.5, [0.15, 0.35]), 2.0)):
            traj = first_row(params)
            assert np.dot(traj.p(0), couplings(traj, 0)) == pytest.approx(want, rel=1e-15)

    def test_fisher_equals_coupling_variance_on_grid(self, desk_traj):
        p, _, g = desk_traj.replicator()
        d = couplings(desk_traj)
        var_d = np.sum(p * (d - np.sum(p * d, axis=1)[:, None]) ** 2, axis=1)
        assert np.all(g >= 0.0)
        mask = var_d > 1e-30
        assert np.max(np.abs(g[mask] / var_d[mask] - 1.0)) < 1e-10

    def test_weighted_rate_identity(self, desk_traj):
        # tangency written through couplings: sum p*(d - <d>) = 0
        p, d = desk_traj.p(), couplings(desk_traj)
        resid = np.sum(p * (d - np.sum(p * d, axis=1)[:, None]), axis=1)
        assert np.max(np.abs(resid)) < 1e-12


class TestTrajectoryAt:
    def test_initial_condition_exact(self, desk_traj):
        params = desk_traj.params
        expected = params.i0 / params.i0.sum()
        assert desk_traj.times[0] == 0.0
        assert np.allclose(desk_traj.p(0), expected, atol=1e-15)
        assert desk_traj.susceptible[0] == params.s0

    def test_time_between_grid_points(self, desk_traj):
        # 0.1004 lies between two points of the desk grid of step 1e-3, and
        # between their states
        traj = dyn.solve_sir(desk_traj.params, [0.1004])
        for name in ("susceptible", "cumulative_susceptible", "recovered"):
            low, high = sorted(getattr(desk_traj, name)[100:102])
            assert low < getattr(traj, name)[0] < high, name

    def test_velocity_is_tangent(self, desk_traj):
        assert abs(dyn.solve_sir(desk_traj.params, [3.21]).replicator(0)[1].sum()) < 1e-10

    def test_out_of_range(self, desk_traj):
        for t in (-0.5, float("nan")):
            with pytest.raises(ValueError, match=f"times\\[1\\] = {t} is not a finite time"):
                dyn.solve_sir(desk_traj.params, [1.0, t])


class TestCsvExport:
    """trajectory.csv, as the model-trajectory experiment writes it."""

    def test_round_trip(self, tmp_path):
        text = "experiment = model-trajectory\nN = 4\nt_end = 2\nell = 2\n"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        cli.run(str(cfg), str(tmp_path / "out"))
        path = tmp_path / "out" / "trajectory.csv"
        params, dt, t_end = cli._model(cli.parse_config(text))
        traj = dyn.solve_sir(params, cli._instants(dt / 10, t_end))  # every dt/10
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
        assert header == ["t", "S", "X"]
        assert traj.times.size == 81
        expected = np.column_stack((traj.times, traj.susceptible, traj.cumulative_susceptible))
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data, expected)  # 17 digits read back exactly

    def test_bytes_match_csv_writer(self, tmp_path):
        # cells that are negative (couplings), zero (t = 0) and in exponent
        # form (the share of a variant that starts at 1e-7), next to a string
        # column and an integer column
        params = dyn.SirParams([2.0, 2.0, 0.5], [1.0, 1.0, 1.5], 0.9,
                               [1e-7, 0.04, 0.06 - 1e-7], 0.0)
        traj = dyn.solve_sir(params, grid(1.0, 0.01))
        header = (["quantity", "k", "t", "S"]
                  + [f"{name}_{i}" for name in ("p", "pdot", "d") for i in (1, 2, 3)]
                  + ["mean_d"])
        rows = [[f"row_{k}", k, traj.times[k], traj.susceptible[k]] + list(traj.p(k))
                + list(traj.replicator(k)[1]) + list(couplings(traj, k))
                + [np.dot(traj.p(k), couplings(traj, k))]
                for k in range(0, traj.times.size, 7)]
        path = tmp_path / "fast.csv"
        cli.write_csv(path, header, zip(*rows))

        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow(row[:2] + [f"{x:.17g}" for x in row[2:]])
        assert path.read_bytes() == ref.read_bytes()
        lines = path.read_text().splitlines()
        cells = [c for line in lines[1:] for c in line.split(",")]
        assert any(c.startswith("-") for c in cells)
        assert "0" in cells
        assert any("e-" in c for c in cells)
        assert lines[2].startswith("row_7,7,0.07")
