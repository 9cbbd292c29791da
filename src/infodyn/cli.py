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


def _positive(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise ValueError("must be positive and finite")
    return value


def _at_least(low: int, what: str):
    """Converter to an integer of at least `low`; `what` names the value
    in the error."""
    def conv(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"{what} must be at least {low}")
        return value
    return conv


_sample_size = _at_least(1, "sample size")
_replications = _at_least(2, "replications")
_cluster_count = _at_least(1, "cluster count")


def _int_list(text: str) -> list[int]:
    """Comma list of positive integers."""
    values = [int(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError("empty list")
    if min(values) < 1:
        raise ValueError("entries must be at least 1")
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


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row, with LF line ends; every
    CSV artifact is written here.  A float cell is written with %.17g, so it
    reads back as the same double, any other cell (a string, an integer) as
    str(); a column takes its format from its cell in the first row."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if first is not None:
            line = ",".join("%.17g" if isinstance(x, float) else "%s" for x in first) + "\n"
            fh.write(line % tuple(first))
            fh.writelines(line % tuple(row) for row in rows)


def _model(cfg) -> tuple[dyn.Trajectory, float]:
    """Integrate the configured model; returns (trajectory, sampling step dt)."""
    n_var = _get(cfg, "N", 9, _at_least(1, "N")) + 1
    dt = _get(cfg, "dt", 0.25, _positive)
    t_end = _get(cfg, "t_end", 10.0, _positive)
    fine_step = _get(cfg, "fine_step", dt / 20.0, _positive)
    s0 = _get(cfg, "s0", 0.9445, float)
    r0 = _get(cfg, "r0", 0.0, float)
    if "groups" in cfg:
        params = dyn.grouped_sir_params(_get(cfg, "groups", None, _int_list), s0=s0, r0=r0)
    elif "gamma" in cfg or "epsilon" in cfg or "i0" in cfg:
        base = dyn.default_sir_params(n_var, s0=s0, r0=r0)
        gamma = np.array(_get(cfg, "gamma", list(base.gamma), _float_list))
        epsilon = np.array(_get(cfg, "epsilon", list(base.epsilon), _float_list))
        i0 = np.array(_get(cfg, "i0", list(base.i0), _float_list))
        params = dyn.SirParams(gamma, epsilon, s0, i0, r0)
    else:
        params = dyn.default_sir_params(n_var, s0=s0, r0=r0)
    return dyn.solve_sir(params, t_end, fine_step), dt


def _full_grid(traj: dyn.Trajectory, dt: float) -> smp.SampleGrid:
    """Instants 0, dt, 2 dt, ... up to the last one not after t_end, by the
    rule of the model grid."""
    return smp.SampleGrid(0.0, dt, dyn.grid_steps(traj.t_end, dt) + 1)


def _config_grid(cfg, dt: float, t0: float, count: int) -> smp.SampleGrid:
    """Grid from the `t0` and `count` keys, with the given defaults."""
    return smp.SampleGrid(_get(cfg, "t0", t0, float), dt,
                          _get(cfg, "count", count, _at_least(2, "number of sampling instants")))


def _two_point_grid(t: float, dt: float) -> smp.SampleGrid:
    return smp.SampleGrid(t - dt / 2.0, dt, 2)


def _grid_p(traj: dyn.Trajectory, grid: smp.SampleGrid) -> np.ndarray:
    """Distributions at the grid instants, one row each, for sampling; raises
    for an instant outside the trajectory, naming it."""
    return traj.p(traj.index_at(grid.times()))


def _write_clustering(f: cl.Clustering, outdir) -> None:
    """`clustering.csv`: one `mu,label` row per variant, both 1-based."""
    write_csv(os.path.join(outdir, "clustering.csv"), ["mu", "label"],
              enumerate(f.assignment, start=1))


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
    reps = _get(cfg, "replications", 2000, _replications)
    rows = []
    for i, n in enumerate(ns):
        est = smp.monte_carlo_components(lambda c: smp.distance_sq_hat(c, n, p.probs), reps,
                                         rng.derive_key(seed, i), p.probs, n)
        mean_th, var_th = th.distance_moments(len(p) - 1, n)
        rows.append((n, est.mean, est.standard_error, est.std**2, mean_th, var_th))
    write_csv(os.path.join(outdir, "distance_moments.csv"),
              ["n", "mc_mean", "mc_se", "mc_var", "theory_mean", "theory_var"], rows)
    return ["distance_moments.csv"]


@experiment("model-trajectory")
def run_model_trajectory(cfg, outdir, seed):
    traj, dt = _model(cfg)
    stride = _get(cfg, "output_stride", 2, _at_least(1, "output stride"))
    grid = _config_grid(cfg, dt, 0.0, _full_grid(traj, dt).count)
    ell = _get(cfg, "ell", 3, _cluster_count)
    rows = slice(None, None, stride)
    f = cl.kmeans(cl.kmeans_features(traj, grid), ell)
    m = traj.n_variants
    header = (["t", "S"] + [f"{name}_{i}" for name in ("p", "pdot", "d") for i in range(1, m + 1)]
              + ["mean_d"])
    table = np.column_stack((traj.times[rows], traj.susceptible[rows], traj.p(rows),
                             traj.pdot(rows), traj.couplings(rows), traj.mean_coupling(rows)))
    write_csv(os.path.join(outdir, "trajectory.csv"), header, map(np.ndarray.tolist, table))
    _write_clustering(f, outdir)

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
    reps = _get(cfg, "replications", 500, _replications)
    g_tt = float(traj.fisher_curve(traj.index_at(t)))
    N = traj.n_variants - 1
    p_grid = _grid_p(traj, _two_point_grid(t, dt))
    rows = []
    for i, n in enumerate(ns):
        est = smp.monte_carlo_components(lambda c: smp.fisher_hat(c, n, dt)[:, 0], reps,
                                         rng.derive_key(seed, i), p_grid, n)
        pred = th.fisher_prediction(g_tt, N, n, dt)
        rows.append((n, est.mean, est.standard_error, pred.expected_value, pred.std))
    write_csv(os.path.join(outdir, "fisher_bias_vs_n.csv"),
              ["n", "mc_mean", "mc_se", "theory_mean", "theory_sd"], rows)
    return ["fisher_bias_vs_n.csv"]


@experiment("fisher-bias-vs-t")
def run_fisher_bias_vs_t(cfg, outdir, seed):
    traj, dt = _model(cfg)
    n = _get(cfg, "n", 100000, _sample_size)
    reps = _get(cfg, "replications", 500, _replications)
    grid = _config_grid(cfg, dt, 0.0, _full_grid(traj, dt).count)
    N = traj.n_variants - 1
    est = smp.monte_carlo_components(lambda c: smp.fisher_hat(c, n, dt), reps, seed,
                                     _grid_p(traj, grid), n)
    g = traj.fisher_curve(traj.index_at(grid.midpoints()))
    rows = []
    for k in range(grid.count - 1):
        pred = th.fisher_prediction(float(g[k]), N, n, dt)
        rows.append((grid.midpoint(k), est[k].mean, est[k].standard_error,
                     pred.expected_value, pred.std))
    write_csv(os.path.join(outdir, "fisher_bias_vs_t.csv"),
              ["t", "mc_mean", "mc_se", "theory_mean", "theory_sd"], rows)
    return ["fisher_bias_vs_t.csv"]


@experiment("info-rate-moments")
def run_info_rate_moments(cfg, outdir, seed):
    traj, dt = _model(cfg)
    t = _get(cfg, "t", 5.0, float)
    ns = _get(cfg, "n", [1000, 10000, 100000], _int_list)
    reps = _get(cfg, "replications", 1000, _replications)
    ell = _get(cfg, "ell", 3, _cluster_count)
    k_mid = traj.index_at(t)
    p_grid = _grid_p(traj, _two_point_grid(t, dt))
    p_mid = traj.p(k_mid)
    rate = traj.info_rate_curve(k_mid)
    f = cl.kmeans(cl.kmeans_features(traj, _full_grid(traj, dt)), ell)
    q_mid = cl.aggregate(p_mid, f)
    qdot = cl.aggregate(traj.pdot(k_mid), f)
    cluster_rate = qdot / q_mid

    var_rows, clu_rows = [], []
    for i, n in enumerate(ns):
        est = smp.monte_carlo_components(lambda c: smp.info_rate_hat(c, n, dt)[:, 0], reps,
                                         rng.derive_key(seed, 2 * i), p_grid, n)
        for mu in range(traj.n_variants):
            m_th, v_th = th.info_rate_moments(float(rate[mu]), float(p_mid[mu]), n, dt)
            e = est[mu]
            var_rows.append((n, mu + 1, e.mean, e.standard_error, e.std**2, m_th, v_th))
        est = smp.monte_carlo_components(lambda c: smp.cluster_info_rate_hat(c, n, dt, f)[:, 0],
                                         reps, rng.derive_key(seed, 2 * i + 1), p_grid, n)
        for a in range(f.n_clusters):
            m_th, v_th = th.info_rate_moments(float(cluster_rate[a]), float(q_mid[a]), n, dt)
            e = est[a]
            clu_rows.append((n, a + 1, e.mean, e.standard_error, e.std**2, m_th, v_th))

    header = ["n", "idx", "mc_mean", "mc_se", "mc_var", "theory_mean", "theory_var"]
    write_csv(os.path.join(outdir, "info_rate_variants.csv"), header, var_rows)
    write_csv(os.path.join(outdir, "info_rate_clusters.csv"), header, clu_rows)
    _write_clustering(f, outdir)
    return ["info_rate_variants.csv", "info_rate_clusters.csv", "clustering.csv"]


@experiment("filtering-comparison")
def run_filtering_comparison(cfg, outdir, seed):
    traj, dt = _model(cfg)
    n = _get(cfg, "n", 250000, _sample_size)
    grid = _config_grid(cfg, dt, 2.5, 31)
    kernel = flt.gaussian_kernel(_get(cfg, "half_width", 3, _at_least(0, "half width")),
                                 _get(cfg, "shape", 4.0 / 9.0, _positive))
    counts = rng.sample_block(_grid_p(traj, grid), n,
                              rng.derive_key(seed, np.arange(grid.count, dtype=np.uint64)))
    true_rates = traj.info_rate_curve(traj.index_at(grid.midpoints()))
    raw = smp.info_rate_hat(counts, n, dt)
    filt_p = flt.filter_probs(counts / n, kernel)
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
    write_csv(os.path.join(outdir, "elbow_curve.csv"), ["ell", "delta_g"], curve)
    write_csv(os.path.join(outdir, "elbow_summary.csv"), ["ell_star", str(ell_star)], [])
    return ["elbow_curve.csv", "elbow_summary.csv"]


@experiment("theory-vs-mc")
def run_theory_vs_mc(cfg, outdir, seed):
    traj, dt = _model(cfg)
    t = _get(cfg, "t", 5.0, float)
    n = _get(cfg, "n", 10000, _sample_size)
    reps = _get(cfg, "replications", 1000, _replications)
    ell = _get(cfg, "ell", 3, _cluster_count)
    N = traj.n_variants - 1
    k_mid = traj.index_at(t)
    p_grid = _grid_p(traj, _two_point_grid(t, dt))
    g_tt = float(traj.fisher_curve(k_mid))
    f = cl.kmeans(cl.kmeans_features(traj, _full_grid(traj, dt)), ell)
    p_mid = traj.p(k_mid)
    q = cl.aggregate(p_mid, f)
    qdot = cl.aggregate(traj.pdot(k_mid), f)
    g_f = float(np.sum(qdot * qdot / q))
    p4 = _get(cfg, "p", Distribution([0.1, 0.2, 0.3, 0.4]), _distribution)
    rows = []

    est = smp.monte_carlo_components(lambda c: smp.distance_sq_hat(c, 1000, p4.probs), reps,
                                     rng.derive_key(seed, 0), p4.probs, 1000)
    rows += _mean_var_rows("distance_{}", est, *th.distance_moments(len(p4) - 1, 1000))

    est = smp.monte_carlo_components(lambda c: smp.fisher_hat(c, n, dt)[:, 0], reps,
                                     rng.derive_key(seed, 1), p_grid, n)
    pred = th.fisher_prediction(g_tt, N, n, dt)
    rows += _mean_var_rows("fisher_{}", est, pred.expected_value, pred.variance)

    est = smp.monte_carlo_components(lambda c: smp.clustered_fisher_hat(c, n, dt, f)[:, 0], reps,
                                     rng.derive_key(seed, 2), p_grid, n)
    pred = th.fisher_prediction(g_f, ell - 1, n, dt)  # ell clusters: ell - 1 degrees of freedom
    rows += _mean_var_rows("clustered_fisher_{}", est, pred.expected_value, pred.variance)

    rate = traj.info_rate_curve(k_mid)
    # the whole (R, M) rate array is summarised, then variant 1 is taken:
    # a column reduction is not bit-equal to the same reduction of a 1-D copy
    est = smp.monte_carlo_components(lambda c: smp.info_rate_hat(c, n, dt)[:, 0], reps,
                                     rng.derive_key(seed, 3), p_grid, n)[0]
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
