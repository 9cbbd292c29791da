"""Config-driven experiment runner.

Reads a flat key=value config, runs one named experiment at desk scale,
and writes plot-ready CSV files plus a manifest.json recording the config
hash, the effective seed, and the artifact list.  Outputs are a pure
function of (config, seed): rerunning produces byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import clustering as cl
from . import dynamics as dyn
from . import filtering as flt
from . import rng
from . import sampling as smp
from . import theory as th
from .simplex import Distribution, TangentVector

KNOWN_KEYS = {
    "experiment", "N", "n", "dt", "t0", "t_end", "fine_step", "replications",
    "ell", "seed", "gamma", "epsilon", "s0", "i0", "r0", "p", "t", "count",
    "groups", "output_stride", "half_width", "shape",
}

EXPERIMENTS = {}


def experiment(name):
    def register(fn):
        EXPERIMENTS[name] = fn
        return fn
    return register


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} (known: {sorted(KNOWN_KEYS)})")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        cfg[key] = value
    if "experiment" not in cfg:
        raise ConfigError("config must set 'experiment'")
    return cfg


def _get(cfg, key, default, conv):
    if key not in cfg:
        return default
    try:
        return conv(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {cfg[key]!r} ({exc})") from exc


def _int_list(text: str) -> list[int]:
    values = [int(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError("empty list")
    return values


def _float_list(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError("empty list")
    return values


def _distribution(text: str) -> Distribution:
    """Comma-list distribution with every entry positive."""
    p = Distribution(_float_list(text))
    p.require_interior()
    return p


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _model(cfg) -> tuple[dyn.Trajectory, float]:
    """Integrate the configured model; returns (trajectory, sampling step dt)."""
    n_var = _get(cfg, "N", 9, int) + 1
    dt = _get(cfg, "dt", 0.25, float)
    t_end = _get(cfg, "t_end", 10.0, float)
    fine_step = _get(cfg, "fine_step", dt / 250.0, float)
    s0 = _get(cfg, "s0", 0.9445, float)
    r0 = _get(cfg, "r0", 0.0, float)
    if "groups" in cfg:
        params = dyn.grouped_sir_params(_int_list(cfg["groups"]), s0=s0, r0=r0)
    elif "gamma" in cfg or "epsilon" in cfg or "i0" in cfg:
        base = dyn.default_sir_params(n_var, s0=s0, r0=r0)
        gamma = np.array(_get(cfg, "gamma", list(base.gamma), _float_list))
        epsilon = np.array(_get(cfg, "epsilon", list(base.epsilon), _float_list))
        i0 = np.array(_get(cfg, "i0", list(base.i0), _float_list))
        params = dyn.SirParams(gamma, epsilon, s0, i0, r0)
    else:
        params = dyn.default_sir_params(n_var, s0=s0, r0=r0)
    return dyn.integrate_sir(params, t_end, fine_step), dt


def _full_grid(traj: dyn.Trajectory, dt: float) -> smp.SampleGrid:
    """Instants 0, dt, 2 dt, ... up to the last one not after t_end (within a
    relative 1e-9, so that rounding in t_end / dt does not drop an instant)."""
    return smp.SampleGrid(0.0, dt, math.floor(traj.t_end / dt * (1.0 + 1e-9)) + 1)


def _config_grid(cfg, dt: float, t0: float, count: int) -> smp.SampleGrid:
    """Grid from the `t0` and `count` keys, with the given defaults."""
    return smp.SampleGrid(_get(cfg, "t0", t0, float), dt, _get(cfg, "count", count, int))


def _two_point_grid(t: float, dt: float) -> smp.SampleGrid:
    return smp.SampleGrid(t - dt / 2.0, dt, 2)


def _on_sample(traj, grid, n, estimator):
    """Replication estimator: sample the trajectory from the replication seed,
    then apply `estimator` to the sampled trajectory."""
    return lambda rep_seed: estimator(smp.sample_trajectory(traj, grid, n, rep_seed))


def _distance_sq(p: Distribution, n: int):
    """Replication estimator: squared Shahshahani distance from p of the
    frequencies of n draws from p.  p must be interior."""
    def draw(rep_seed):
        counts = rng.sample_counts(p.probs, n, rng.stream(rep_seed))
        diff = counts / n - p.probs
        return float(np.sum(diff * diff / p.probs))
    return draw


def _mean_var_rows(label: str, est: smp.MonteCarloEstimate, mean_th, var_th) -> list:
    """Mean row and variance row of one estimate; `label` has a {} for the
    moment name.  The variance SE var*sqrt(2/(R-1)) holds for normal data."""
    var = est.std**2
    return [(label.format("mean"), est.mean, est.standard_error, mean_th),
            (label.format("var"), var, var * np.sqrt(2.0 / (est.replications - 1)), var_th)]


@experiment("distance-moments")
def run_distance_moments(cfg, outdir, seed):
    p = _get(cfg, "p", Distribution([0.1, 0.2, 0.3, 0.4]), _distribution)
    ns = _get(cfg, "n", [100, 1000, 10000], _int_list)
    reps = _get(cfg, "replications", 2000, int)
    rows = []
    for i, n in enumerate(ns):
        est = smp.monte_carlo(_distance_sq(p, n), reps, seed=rng.derive_key(seed, i))
        mean_th, var_th = th.distance_moments(len(p) - 1, n)
        rows.append((n, est.mean, est.standard_error, est.std**2, mean_th, var_th))
    write_csv(os.path.join(outdir, "distance_moments.csv"),
              ["n", "mc_mean", "mc_se", "mc_var", "theory_mean", "theory_var"], rows)
    return ["distance_moments.csv"]


@experiment("model-trajectory")
def run_model_trajectory(cfg, outdir, seed):
    traj, dt = _model(cfg)
    stride = _get(cfg, "output_stride", 25, int)
    grid = _config_grid(cfg, dt, 0.0, _full_grid(traj, dt).count)
    ell = _get(cfg, "ell", 3, int)
    rows = slice(None, None, stride)
    f = cl.kmeans(cl.kmeans_features(traj, grid), ell)
    dyn.trajectory_to_csv(traj, os.path.join(outdir, "trajectory.csv"), rows)
    cl.clustering_to_csv(f, os.path.join(outdir, "clustering.csv"))

    labels = f.labels0()
    members = np.zeros((traj.n_variants, f.n_clusters))
    members[np.arange(traj.n_variants), labels] = 1.0
    q = traj.p(rows) @ members
    qdot = traj.pdot(rows) @ members
    g_f = np.sum(qdot * qdot / q, axis=1)
    write_csv(os.path.join(outdir, "fisher.csv"), ["t", "g_tt", "g_f"],
              zip(traj.times[rows], traj.fisher_curve(rows), g_f))
    return ["trajectory.csv", "clustering.csv", "fisher.csv"]


@experiment("fisher-bias-vs-n")
def run_fisher_bias_vs_n(cfg, outdir, seed):
    traj, dt = _model(cfg)
    t = _get(cfg, "t", 5.0, float)
    ns = _get(cfg, "n", [10000, 30000, 100000], _int_list)
    reps = _get(cfg, "replications", 500, int)
    g_tt = float(traj.fisher_curve(traj.index_at(t)))
    N = traj.n_variants - 1
    grid = _two_point_grid(t, dt)
    rows = []
    for i, n in enumerate(ns):
        draw = _on_sample(traj, grid, n, lambda s: smp.fisher_hat(s)[0])
        est = smp.monte_carlo(draw, reps, seed=rng.derive_key(seed, i))
        pred = th.fisher_prediction(g_tt, N, n, dt)
        rows.append((n, est.mean, est.standard_error, pred.expected_value, pred.std))
    write_csv(os.path.join(outdir, "fisher_bias_vs_n.csv"),
              ["n", "mc_mean", "mc_se", "theory_mean", "theory_sd"], rows)
    return ["fisher_bias_vs_n.csv"]


@experiment("fisher-bias-vs-t")
def run_fisher_bias_vs_t(cfg, outdir, seed):
    traj, dt = _model(cfg)
    n = _get(cfg, "n", 100000, int)
    reps = _get(cfg, "replications", 500, int)
    grid = _config_grid(cfg, dt, 0.0, _full_grid(traj, dt).count)
    N = traj.n_variants - 1
    ests = smp.monte_carlo_components(_on_sample(traj, grid, n, smp.fisher_hat), reps, seed=seed)
    g = traj.fisher_curve(traj.index_at(grid.midpoints()))
    rows = []
    for k, est in enumerate(ests):
        t_mid = grid.midpoint(k)
        pred = th.fisher_prediction(float(g[k]), N, n, dt)
        rows.append((t_mid, est.mean, est.standard_error, pred.expected_value, pred.std))
    write_csv(os.path.join(outdir, "fisher_bias_vs_t.csv"),
              ["t", "mc_mean", "mc_se", "theory_mean", "theory_sd"], rows)
    return ["fisher_bias_vs_t.csv"]


@experiment("info-rate-moments")
def run_info_rate_moments(cfg, outdir, seed):
    traj, dt = _model(cfg)
    t = _get(cfg, "t", 5.0, float)
    ns = _get(cfg, "n", [1000, 10000, 100000], _int_list)
    reps = _get(cfg, "replications", 1000, int)
    ell = _get(cfg, "ell", 3, int)
    grid = _two_point_grid(t, dt)
    k_mid = traj.index_at(t)
    p_mid = traj.p(k_mid)
    rate = traj.info_rate_curve(k_mid)
    f = cl.kmeans(cl.kmeans_features(traj, _full_grid(traj, dt)), ell)
    q_mid = cl.aggregate(p_mid, f)
    qdot = cl.aggregate(traj.pdot(k_mid), f)
    cluster_rate = qdot / q_mid

    var_rows, clu_rows = [], []
    for i, n in enumerate(ns):
        draw = _on_sample(traj, grid, n, lambda s: smp.info_rate_hat(s)[0])
        ests = smp.monte_carlo_components(draw, reps, seed=rng.derive_key(seed, 2 * i))
        for mu, est in enumerate(ests):
            m_th, v_th = th.info_rate_moments(float(rate[mu]), float(p_mid[mu]), n, dt)
            var_rows.append((n, mu + 1, est.mean, est.standard_error, est.std**2, m_th, v_th))
        draw = _on_sample(traj, grid, n, lambda s: smp.cluster_info_rate_hat(s, f)[0])
        ests = smp.monte_carlo_components(draw, reps, seed=rng.derive_key(seed, 2 * i + 1))
        for a, est in enumerate(ests):
            m_th, v_th = th.cluster_info_rate_moments(float(cluster_rate[a]), float(q_mid[a]), n, dt)
            clu_rows.append((n, a + 1, est.mean, est.standard_error, est.std**2, m_th, v_th))

    header = ["n", "idx", "mc_mean", "mc_se", "mc_var", "theory_mean", "theory_var"]
    write_csv(os.path.join(outdir, "info_rate_variants.csv"), header, var_rows)
    write_csv(os.path.join(outdir, "info_rate_clusters.csv"), header, clu_rows)
    cl.clustering_to_csv(f, os.path.join(outdir, "clustering.csv"))
    return ["info_rate_variants.csv", "info_rate_clusters.csv", "clustering.csv"]


@experiment("filtering-comparison")
def run_filtering_comparison(cfg, outdir, seed):
    traj, dt = _model(cfg)
    n = _get(cfg, "n", 250000, int)
    grid = _config_grid(cfg, dt, 2.5, 31)
    kernel = flt.gaussian_kernel(_get(cfg, "half_width", 3, int),
                                 _get(cfg, "shape", 4.0 / 9.0, float))
    sampled = smp.sample_trajectory(traj, grid, n, seed)
    true_rates = traj.info_rate_curve(traj.index_at(grid.midpoints()))
    raw = smp.info_rate_hat(sampled)
    filt_p = flt.filter_probs(sampled.counts / n, kernel)
    filt = smp.info_rate_between(filt_p[:-1], filt_p[1:], dt)
    rmse_raw = np.sqrt(np.mean((raw - true_rates) ** 2, axis=0))
    rmse_filt = np.sqrt(np.mean((filt - true_rates) ** 2, axis=0))
    write_csv(os.path.join(outdir, "filtering_rmse.csv"),
              ["mu", "rmse_raw", "rmse_filtered"],
              [(mu + 1, float(rr), float(rf))
               for mu, (rr, rf) in enumerate(zip(rmse_raw, rmse_filt))])
    return ["filtering_rmse.csv"]


@experiment("elbow-scan")
def run_elbow_scan(cfg, outdir, seed):
    if "groups" not in cfg:
        cfg = dict(cfg, groups="9,9,8,8,8,8")
    traj, dt = _model(cfg)
    t_eval = _get(cfg, "t", 1.0, float)
    ells = _get(cfg, "ell", list(range(4, 11)), _int_list)
    feats = cl.kmeans_features(traj, _full_grid(traj, dt))
    k_eval = traj.index_at(t_eval)
    p = Distribution(traj.p(k_eval))
    pdot = TangentVector(traj.pdot(k_eval))
    curve = [(ell, cl.delta_g_prob_form(p, pdot, cl.kmeans(feats, ell))) for ell in ells]
    ell_star = cl.elbow_select(curve)
    cl.delta_curve_to_csv(curve, os.path.join(outdir, "elbow_curve.csv"))
    with open(os.path.join(outdir, "elbow_summary.csv"), "w", newline="") as fh:
        fh.write("ell_star," + str(ell_star) + "\n")
    return ["elbow_curve.csv", "elbow_summary.csv"]


@experiment("theory-vs-mc")
def run_theory_vs_mc(cfg, outdir, seed):
    traj, dt = _model(cfg)
    t = _get(cfg, "t", 5.0, float)
    n = _get(cfg, "n", 10000, int)
    reps = _get(cfg, "replications", 1000, int)
    ell = _get(cfg, "ell", 3, int)
    N = traj.n_variants - 1
    grid = _two_point_grid(t, dt)
    k_mid = traj.index_at(t)
    g_tt = float(traj.fisher_curve(k_mid))
    f = cl.kmeans(cl.kmeans_features(traj, _full_grid(traj, dt)), ell)
    p_mid = traj.p(k_mid)
    q = cl.aggregate(p_mid, f)
    qdot = cl.aggregate(traj.pdot(k_mid), f)
    g_f = float(np.sum(qdot * qdot / q))
    p4 = _get(cfg, "p", Distribution([0.1, 0.2, 0.3, 0.4]), _distribution)
    rows = []

    est = smp.monte_carlo(_distance_sq(p4, 1000), reps, seed=rng.derive_key(seed, 0))
    rows += _mean_var_rows("distance_{}", est, *th.distance_moments(len(p4) - 1, 1000))

    draw = _on_sample(traj, grid, n, lambda s: smp.fisher_hat(s)[0])
    est = smp.monte_carlo(draw, reps, seed=rng.derive_key(seed, 1))
    pred = th.fisher_prediction(g_tt, N, n, dt)
    rows += _mean_var_rows("fisher_{}", est, pred.expected_value, pred.variance)

    draw = _on_sample(traj, grid, n, lambda s: smp.clustered_fisher_hat(s, f)[0])
    est = smp.monte_carlo(draw, reps, seed=rng.derive_key(seed, 2))
    pred = th.clustered_fisher_prediction(g_f, ell, n, dt)
    rows += _mean_var_rows("clustered_fisher_{}", est, pred.expected_value, pred.variance)

    rate = traj.info_rate_curve(k_mid)
    draw = _on_sample(traj, grid, n, lambda s: smp.info_rate_hat(s)[0])
    est = smp.monte_carlo_components(draw, reps, seed=rng.derive_key(seed, 3))[0]
    rows += _mean_var_rows("info_rate_{}_mu1", est,
                           *th.info_rate_moments(float(rate[0]), float(p_mid[0]), n, dt))

    write_csv(os.path.join(outdir, "theory_vs_mc.csv"),
              ["quantity", "mc_value", "mc_se", "theory_value"], rows)
    return ["theory_vs_mc.csv"]


def run(config_path, outdir, seed_override=None) -> list[str]:
    """Execute the configured experiment; returns the artifact list."""
    with open(config_path, "rb") as fh:
        raw = fh.read()
    cfg = parse_config(raw.decode("utf-8"))
    name = cfg["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; valid: {sorted(EXPERIMENTS)}")
    seed = seed_override if seed_override is not None else _get(cfg, "seed", 1, int)
    os.makedirs(outdir, exist_ok=True)
    artifacts = EXPERIMENTS[name](cfg, outdir, seed)
    manifest = {
        "experiment": name,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": seed,
        "artifacts": sorted(artifacts),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sorted(artifacts) + ["manifest.json"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="infodyn",
        description="Run a sampled-dynamics experiment from a key=value config.",
    )
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        artifacts = run(args.config, args.out, args.seed)
    except (ConfigError, FileNotFoundError, ValueError,
            dyn.IntegrationError, smp.MonteCarloError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in artifacts:
        print(os.path.join(args.out, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
