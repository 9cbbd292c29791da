"""Acceptance gate: one test per criterion, stated tolerances, fixed seeds.

Each test prints one `ACCEPTANCE <nn> ...: PASS/FAIL` line (visible with
`pytest -v -rA`).
"""

import itertools
import time

import numpy as np
import pytest

from infodyn import cli
from infodyn import clustering as cl
from infodyn import dynamics as dyn
from infodyn import filtering as flt
from infodyn import rng
from infodyn import sampling as smp
from infodyn import theory as th
from infodyn.simplex import fisher_information, shahshahani_distance_sq
from conftest import delta_g_coupling_form, grid, infected, sufficiency_residuals

DT = 0.25
STEP = 1e-3  # of the desk grid, the times of the desk trajectory
STRIDE = 250  # DT in rows of the desk grid
N_VARIANTS = 10
N_DOF = N_VARIANTS - 1


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_traj():
    return dyn.solve_sir(dyn.default_sir_params(N_VARIANTS), grid(10.0, STEP))


@pytest.fixture(scope="module")
def desk_f3(desk_traj):
    return cl.kmeans(cl.kmeans_features(desk_traj, STRIDE * np.arange(41)), 3)


def row(t):
    """The row of the time t of the desk grid."""
    return round(t / STEP)


def two_point_p(traj, t):
    """Distributions at t - DT/2 and t + DT/2, one row each."""
    k = row(t)
    return traj.p(np.array([k - STRIDE // 2, k + STRIDE // 2]))


def sample_grid(traj, rows, n, seed):
    """Counts at the trajectory's rows, the k-th from the sub-stream (seed, k)."""
    return rng.sample_block(traj.p(rows), n,
                            rng.derive_key(seed, np.arange(len(rows), dtype=np.uint64)))


def fisher_mc(traj, t, n, reps, seed):
    return smp.monte_carlo_components(lambda c: smp.fisher_hat(c / n, DT)[:, 0], reps, seed,
                                      two_point_p(traj, t), n)


def test_criterion_01_distance_mean():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    started = time.perf_counter()
    devs = []
    for i, n in enumerate((100, 1000, 10000)):
        est = smp.monte_carlo_components(lambda c: shahshahani_distance_sq(p, c / n), 2000,
                                         rng.derive_key(101, i), p, n)
        devs.append(abs(est.mean - 3.0 / n) / est.se)
    elapsed = time.perf_counter() - started
    ok = all(d <= 3.0 for d in devs) and elapsed < 10.0
    report(1, "distance mean N/n", ok,
           f"deviations {['%.2f SE' % d for d in devs]}, runtime {elapsed:.1f}s")


def test_criterion_02_distance_variance():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    rels = []
    for i, n in enumerate((1000, 10000)):
        est = smp.monte_carlo_components(lambda c: shahshahani_distance_sq(p, c / n), 10000,
                                         rng.derive_key(202, i), p, n)
        _, var_th = th.distance_moments(p, n)
        rels.append(abs(est.var - var_th) / var_th)
    ok = all(r <= 0.15 for r in rels)
    report(2, "distance variance 2N/n^2", ok,
           f"relative deviations {['%.1f%%' % (100 * r) for r in rels]}")


def test_criterion_03_fisher_bias(desk_traj):
    g_tt = float(desk_traj.replicator(row(5.0))[2])
    started = time.perf_counter()
    devs = []
    for i, n in enumerate((10**4, 10**5)):
        est = fisher_mc(desk_traj, 5.0, n, 500, seed=rng.derive_key(303, i))
        resid = est.mean - g_tt - th.fisher_bias(N_DOF, n, DT)
        devs.append(abs(resid) / est.se)
    elapsed = time.perf_counter() - started
    ok = all(d <= 3.0 for d in devs) and elapsed < 60.0
    report(3, "fisher bias 2N/(n dt^2)", ok,
           f"residuals {['%.2f SE' % d for d in devs]}, runtime {elapsed:.1f}s")


def test_criterion_04_second_order_bias():
    # Constant distribution: g_tt = 0, so the estimator's mean minus the
    # leading bias is the n^-2 term N/(n^2 dt^2) plus higher orders.  Its
    # size at n = 10^3 (~1.4e-4) is far below the Monte Carlo SE (~1.8e-3),
    # so the series term is checked against the exact mean's residual, and
    # the Monte Carlo mean against the exact mean.
    n, reps = 1000, 5000
    p = np.array([1.0 - 9 * 0.006] + [0.006] * 9)

    def term_error(size):
        exact_resid = th.fisher_null_mean(p, size, DT) - th.fisher_bias(N_DOF, size, DT)
        return abs(N_DOF / (size**2 * DT**2) - exact_resid) / abs(exact_resid)

    err_1k, err_4k = term_error(n), term_error(4 * n)
    est = smp.monte_carlo_components(lambda c: smp.fisher_hat(c / n, DT)[:, 0], reps, 2027,
                                     np.stack([p, p]), n)
    mc_dev = abs(est.mean - th.fisher_null_mean(p, n, DT)) / est.se
    ok = err_1k <= 0.05 and err_4k <= 0.001 and mc_dev <= 3.0
    report(
        4, "second-order bias term", ok,
        f"series n^-2 term vs exact residual: {100 * err_1k:.2f}% at "
        f"n={n} (<= 5%), {100 * err_4k:.3f}% at n={4 * n} (<= 0.1%); "
        f"mc mean vs exact mean {mc_dev:.2f} SE (<= 3, R={reps}). "
        f"The exact mean is theory.fisher_null_mean.",
    )


def test_criterion_05_fisher_variance(desk_traj):
    n, reps, t = 10**4, 2000, 2.0
    g_tt = float(desk_traj.replicator(row(t))[2])
    est = fisher_mc(desk_traj, t, n, reps, seed=505)
    _, var_th = th.fisher_prediction(g_tt, N_DOF, n, DT)
    rel = abs(est.var - var_th) / var_th
    report(5, "fisher variance law", rel <= 0.15,
           f"mc {est.var:.3e} vs theory {var_th:.3e} ({100 * rel:.1f}%)")


def test_criterion_06_clustered_bias_and_ratio(desk_traj, desk_f3):
    n, reps, t = 10**4, 2000, 5.0
    k = row(t)
    p, pdot, g_tt = desk_traj.replicator(k)
    g_tt = float(g_tt)
    q, qdot = cl.aggregate(p, desk_f3), cl.aggregate(pdot, desk_f3)
    g_f = float(np.sum(qdot * qdot / q))
    ell = desk_f3.n_clusters
    est_cl = smp.monte_carlo_components(
        lambda c: smp.fisher_hat(cl.aggregate(c, desk_f3) / n, DT)[:, 0], reps, 606,
        two_point_p(desk_traj, t), n)
    est_un = fisher_mc(desk_traj, t, n, reps, seed=607)
    bias_cl = est_cl.mean - g_f
    bias_un = est_un.mean - g_tt
    bias_th = 2.0 * (ell - 1) / (n * DT**2)
    dev = abs(bias_cl - bias_th) / est_cl.se
    ratio = bias_un / bias_cl
    ratio_rel = abs(ratio - 4.5) / 4.5
    ok = dev <= 3.0 and ratio_rel <= 0.20
    report(6, "clustered bias and N/(l-1) ratio", ok,
           f"clustered bias dev {dev:.2f} SE; ratio {ratio:.2f} vs 4.5 "
           f"({100 * ratio_rel:.1f}%)")


def test_criterion_07_info_rate_moments(desk_traj, desk_f3):
    n, reps, t = 10**4, 1000, 5.0
    k = row(t)
    p = desk_traj.p(k)
    rate = desk_traj.info_rate_curve(k)
    q = cl.aggregate(p, desk_f3)
    cluster_rate = cl.aggregate(desk_traj.replicator(k)[1], desk_f3) / q
    p_grid = two_point_p(desk_traj, t)
    var = smp.monte_carlo_components(lambda c: smp.info_rate_hat(c / n, DT)[:, 0], reps, 707,
                                     p_grid, n)
    clu = smp.monte_carlo_components(
        lambda c: smp.info_rate_hat(cl.aggregate(c, desk_f3) / n, DT)[:, 0], reps, 708, p_grid, n)

    worst_mean = worst_var = 0.0
    for est, rates, probs in ((var, rate, p), (clu, cluster_rate, q)):
        m_th, v_th = th.info_rate_moments(rates, probs, n, DT)
        worst_mean = max(worst_mean, np.max(np.abs(est.mean - m_th) / est.se))
        worst_var = max(worst_var, np.max(np.abs(est.var - v_th) / v_th))
    ok = worst_mean <= 3.0 and worst_var <= 0.15
    report(7, "information-rate moments", ok,
           f"worst mean dev {worst_mean:.2f} SE, worst variance dev "
           f"{100 * worst_var:.1f}%")


def test_criterion_08_exact_identities(desk_traj):
    gen = np.random.default_rng(808)
    worst = 0.0
    for _ in range(1000):
        size = int(gen.integers(3, 9))
        w = gen.integers(1, 100, size=size).astype(float)
        p = w / w.sum()
        d = gen.normal(size=size) * 3.0
        pdot_raw = p * (d - np.dot(p, d))
        pdot = pdot_raw - pdot_raw.sum() / size
        ell = int(gen.integers(2, size + 1))
        labels = np.concatenate([np.arange(1, ell + 1),
                                 gen.integers(1, ell + 1, size=size - ell)])
        gen.shuffle(labels)
        f = cl.Clustering(labels)
        g = fisher_information(p, pdot)
        direct = g - cl.clustered_fisher(p, pdot, f)
        dgp = cl.delta_g_prob_form(p, pdot, f)
        dgc = delta_g_coupling_form(p, d, f)
        assert dgp >= 0.0 and dgc >= 0.0
        tol = 1e-10 * abs(direct) + 8e-16 * g
        worst = max(worst, abs(dgp - direct) / (tol + 1e-300) * 1e-10,
                    abs(dgc - direct) / (tol + 1e-300) * 1e-10)
        assert abs(dgp - direct) <= tol
        assert abs(dgc - direct) <= tol

    # identity clustering is bitwise-identical on both estimator routes
    counts = sample_grid(desk_traj, 3000 + STRIDE * np.arange(5), 800, seed=88)
    ident = cl.Clustering(range(1, N_VARIANTS + 1))
    assert np.array_equal(smp.fisher_hat(cl.aggregate(counts, ident) / 800, DT),
                          smp.fisher_hat(counts / 800, DT))
    k = row(4.0)
    p4, pdot4, _ = desk_traj.replicator(k)
    assert cl.clustered_fisher(p4, pdot4, ident) == fisher_information(p4, pdot4)

    # refinement monotonicity on 1000 random refinement pairs
    for _ in range(1000):
        size = int(gen.integers(3, 9))
        w = gen.integers(1, 100, size=size).astype(float)
        p = w / w.sum()
        d = gen.normal(size=size) * 3.0
        pdot_raw = p * (d - np.dot(p, d))
        pdot = pdot_raw - pdot_raw.sum() / size
        ell = int(gen.integers(1, size))
        labels = np.concatenate([np.arange(1, ell + 1),
                                 gen.integers(1, ell + 1, size=size - ell)])
        gen.shuffle(labels)
        coarse = cl.Clustering(labels)
        next_label, fine = 1, np.zeros(size, dtype=int)
        for a in range(ell):
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
        refined = cl.Clustering(fine)
        assert cl.clustered_fisher(p, pdot, refined) >= \
            cl.clustered_fisher(p, pdot, coarse) - 1e-12
    report(8, "exact identities", True,
           f"delta forms, bitwise identity, refinement monotonicity "
           f"(worst relative gap {worst:.2e})")


def test_criterion_09_sufficiency():
    traj = dyn.solve_sir(dyn.grouped_sir_params([2, 2, 2]), grid(10.0, STEP))
    f = cl.Clustering([1, 1, 2, 2, 3, 3])
    residual = sufficiency_residuals(traj, f)
    members = np.zeros((6, 3))
    members[np.arange(6), f.labels] = 1.0
    p, pdot, g_tt = traj.replicator()
    q, qdot = p @ members, pdot @ members
    delta = g_tt - np.sum(qdot * qdot / q, axis=1)
    worst_delta = float(np.max(np.abs(delta)))
    ok = residual < 1e-8 and worst_delta < 1e-10
    report(9, "sufficient clustering", ok,
           f"max |dr/dt| {residual:.2e}, max |delta g| {worst_delta:.2e}")


def test_criterion_10_conservation_and_step_independence(desk_traj):
    # R is integrated; the infected fractions are reconstructed from X
    total = (desk_traj.susceptible + infected(desk_traj).sum(axis=1)
             + desk_traj.recovered)
    drift = float(np.max(np.abs(total - 1.0)))

    # the series steps do not depend on the times asked for: a grid step is
    # not a discretisation error, and halving it leaves the common times' states
    params = desk_traj.params
    coarse, fine = (dyn.solve_sir(params, grid(2.0, step)) for step in (0.05, 0.025))
    gap = float(np.max(np.abs(infected(coarse) - infected(fine, slice(None, None, 2)))))
    ok = drift < 1e-9 and gap <= 1e-15
    report(10, "conservation and step independence", ok,
           f"drift {drift:.2e}, gap between grid steps {gap:.1e}")


def test_criterion_11_elbow():
    traj = dyn.solve_sir(dyn.grouped_sir_params([9, 9, 8, 8, 8, 8]), grid(10.0, STEP))
    feats = cl.kmeans_features(traj, STRIDE * np.arange(41))
    k = row(1.0)
    p, pdot, _ = traj.replicator(k)
    curve = [(ell, cl.delta_g_prob_form(p, pdot, cl.kmeans(feats, ell)))
             for ell in range(4, 11)]
    ell_star = cl.elbow_select(curve)
    report(11, "elbow at six constructed groups", ell_star == 6,
           f"selected {ell_star}; curve {[(e, round(d, 7)) for e, d in curve]}")


def test_criterion_12_filtering(desk_traj):
    n = 250000
    rows = 2500 + STRIDE * np.arange(31)
    counts = sample_grid(desk_traj, rows, n, seed=1212)
    true_rates = desk_traj.info_rate_curve(rows[:-1] + STRIDE // 2)
    phat = counts / n
    raw = smp.info_rate_hat(phat, DT)
    filt = smp.info_rate_hat(flt.filter_probs(phat, flt.gaussian_kernel()), DT)
    rmse_raw = np.sqrt(np.mean((raw - true_rates) ** 2, axis=0))
    rmse_filt = np.sqrt(np.mean((filt - true_rates) ** 2, axis=0))
    ok = bool(np.all(rmse_filt < rmse_raw))
    report(12, "filtering shrinks rate error", ok,
           f"worst ratio {float(np.max(rmse_filt / rmse_raw)):.2f} (< 1 required "
           f"per variant)")


def test_criterion_13_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment = fisher-bias-vs-t\nt0 = 4.875\ncount = 2\nn = 5000,20000\n"
                   "replications = 60\nseed = 13\n")
    cli.run(str(cfg), str(tmp_path / "a"))
    cli.run(str(cfg), str(tmp_path / "b"))
    blobs = []
    for sub in ("a", "b"):
        files = {}
        for name in sorted((tmp_path / sub).iterdir()):
            files[name.name] = name.read_bytes()
        blobs.append(files)
    ok = blobs[0] == blobs[1]
    report(13, "byte-identical reruns", ok,
           f"artifacts {sorted(blobs[0])}")
