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
from .simplex import (fisher_information, require_interior, self_information_rate,
                      shahshahani_distance_sq)

# experiment name -> (function, the config keys it reads)
EXPERIMENTS = {}

# the keys of the model, which every experiment but distance-moments reads
_MODEL_KEYS = ("N", "dt", "t_end", "fine_step", "s0", "r0", "groups", "gamma", "epsilon",
               "i0")


def experiment(name, *keys):
    """Register an experiment that reads `keys`, and `experiment` and `seed`,
    which every run reads; run rejects a config that sets any other key."""
    def register(fn):
        EXPERIMENTS[name] = fn, frozenset(("experiment", "seed") + keys)
        return fn
    return register


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    cfg, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r} (known: {sorted(KNOWN_KEYS)})")
        if key in lines:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {lines[key]}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        cfg[key], lines[key] = value, lineno
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


def _time(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise ValueError("must be a finite time of at least 0")
    return value


def _fraction(name: str):
    """Converter to a float in [0, 1]; `name` names the value in the error."""
    def conv(text: str) -> float:
        value = float(text)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"initial fraction {name} = {value} outside [0, 1]")
        return value
    return conv


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise ValueError("must lie in [0, 2**64)")
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


def _entries(text: str) -> list[str]:
    """The entries of a comma list; an empty entry is an error."""
    entries = text.split(",")
    if not all(entry.strip() for entry in entries):
        raise ValueError("empty entry in the comma list")
    return entries


def _int_list(text: str) -> list[int]:
    """Comma list of positive integers."""
    values = [int(x) for x in _entries(text)]
    if min(values) < 1:
        raise ValueError("entries must be at least 1")
    return values


def _float_list(text: str) -> list[float]:
    return [float(x) for x in _entries(text)]


def _per_variant(size: int, positive: bool):
    """Converter to a comma list of `size` finite floats, each positive or,
    if not `positive`, at least 0."""
    def conv(text: str) -> np.ndarray:
        values = np.array(_float_list(text))
        if values.size != size:
            raise ValueError(f"{values.size} entries for N + 1 = {size} variants")
        bad = ~np.isfinite(values) | (values <= 0 if positive else values < 0)
        if bad.any():
            idx = int(np.argmax(bad))
            raise ValueError(f"entry {idx} = {values[idx]} must be finite and "
                             + ("positive" if positive else "at least 0"))
        return values
    return conv


def _distribution(text: str) -> np.ndarray:
    """Comma-list distribution as a read-only array: at least two entries,
    every one positive, summing to 1 within 1e-9; a sum off by more than
    1e-12 (float accumulation) is renormalised."""
    p = np.array(_float_list(text))
    if p.size < 2:
        raise ValueError("a distribution needs at least 2 entries")
    require_interior(p)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    if abs(total - 1.0) > 1e-12:
        p = p / total
    p.flags.writeable = False
    return p


DEFAULT_P = _distribution("0.1,0.2,0.3,0.4")


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


def _scan_counts(text: str) -> list[int]:
    """Comma list of at least 4 strictly increasing cluster counts."""
    values = _int_list(text)
    if len(values) < 4 or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("need at least 4 strictly increasing cluster counts")
    return values


# the keys that `groups` replaces: it fixes the variants and their rates
_UNGROUPED_KEYS = ("N", "gamma", "epsilon", "i0")

# the experiments that evaluate the model half a sampling step from the
# sampling instants (at midpoints, or at t - dt/2 and t + dt/2)
_HALF_STEP_EXPERIMENTS = {"fisher-bias-vs-n", "fisher-bias-vs-t", "info-rate-moments",
                          "filtering-comparison", "theory-vs-mc"}


def _model(cfg, ells=()) -> tuple[dyn.Trajectory, float]:
    """Parse the model keys, check that the sampling step dt (or dt/2, for
    the experiments that need it) is a whole number of fine steps, and check
    each cluster count of `ells`, the value of `ell`, against the variant
    count; then integrate the model.  Returns (trajectory, sampling step dt)."""
    n_var = _get(cfg, "N", 9, _at_least(1, "N")) + 1
    dt = _get(cfg, "dt", 0.25, _positive)
    t_end = _get(cfg, "t_end", 10.0, _positive)
    fine_step = _get(cfg, "fine_step", dt / 20.0, _positive)
    span, what = ((dt / 2.0, f"dt/2 = {dt / 2.0:g} (dt = {dt:g})")
                  if cfg["experiment"] in _HALF_STEP_EXPERIMENTS else (dt, f"dt = {dt:g}"))
    steps = span / fine_step
    if round(steps) < 1 or abs(steps - round(steps)) > 1e-9:
        raise ConfigError(f"bad value for 'fine_step': {what} is not a whole number of "
                          f"fine steps {fine_step:g}")
    s0 = _get(cfg, "s0", dyn.DEFAULT_S0, _fraction("s0"))
    r0 = _get(cfg, "r0", 0.0, _fraction("r0"))
    if s0 + r0 >= 1.0:
        raise ConfigError(f"bad value for 's0': s0 = {s0} and r0 = {r0} leave no initial "
                          "infected fraction (s0 + r0 must be < 1)")
    if "groups" in cfg:
        clash = [key for key in _UNGROUPED_KEYS if key in cfg]
        if clash:
            raise ConfigError(f"keys 'groups' and {clash[0]!r} cannot both be set: "
                              "'groups' fixes the variants and their rates")
        params = dyn.grouped_sir_params(_get(cfg, "groups", None, _int_list), s0=s0, r0=r0)
    else:
        base = dyn.default_sir_params(n_var, s0=s0, r0=r0)
        rates = _per_variant(n_var, positive=False)
        params = dyn.SirParams(_get(cfg, "gamma", base.gamma, rates),
                               _get(cfg, "epsilon", base.epsilon, rates), s0,
                               _get(cfg, "i0", base.i0, _per_variant(n_var, positive=True)), r0)
    n_var = params.gamma.size
    for ell in ells:
        if ell > n_var:
            raise ConfigError(f"bad value for 'ell': {ell} clusters for {n_var} variants "
                              f"(need 1 <= n_clusters <= {n_var})")
    return dyn.solve_sir(params, t_end, fine_step), dt


def _row(traj: dyn.Trajectory, t: float, key: str) -> int:
    """Model-grid row of the time `t`, the value of `key`; a time off the grid
    or outside [0, t_end] raises a ConfigError naming `key`."""
    try:
        return traj.index_at(t)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {key} must lie on the model grid "
                          f"({exc})") from exc


def _grid(traj: dyn.Trajectory, dt: float, t0: float = 0.0, count: int | None = None):
    """Model-grid rows of the sampling instants t0, t0 + dt, ...: `count` of
    them or, by default, every one up to the last row; a larger `count` is an
    error.  _model has checked that dt is a whole number of grid steps."""
    stride = round(dt / traj.step)
    first = _row(traj, t0, "t0")
    fits = (traj.times.size - 1 - first) // stride + 1
    if fits < 2 and first == 0:
        raise ConfigError(f"bad value for 't_end': {traj.t_end} is less than one sampling "
                          f"step dt = {dt}")
    if fits < 2:
        raise ConfigError(f"bad value for 't0': {t0} is less than one step dt = {dt} "
                          f"before t_end = {traj.t_end}")
    if count is None:
        count = fits
    elif count > fits:
        raise ConfigError(f"bad value for 'count': {count} instants from t0 = {t0} at step "
                          f"dt = {dt} end at {t0 + (count - 1) * dt}, after t_end = "
                          f"{traj.t_end} (at most {fits} fit)")
    return first + stride * np.arange(count)


def _grid_keys(cfg, t0: float = 0.0, count: int | None = None) -> tuple:
    """The `t0` and `count` keys, with the given defaults for _grid."""
    return (_get(cfg, "t0", t0, _time),
            _get(cfg, "count", count, _at_least(2, "number of sampling instants")))


def _at_t(cfg, ells=()) -> tuple:
    """Parse `t` and the model keys, integrate the model, and locate t:
    returns (trajectory, dt, model-grid row of t, the (2, M) distributions
    at t - dt/2 and t + dt/2).  `ells` is passed to _model, which has made
    dt/2 a whole number of grid steps."""
    t = _get(cfg, "t", 5.0, _time)
    traj, dt = _model(cfg, ells)
    k = _row(traj, t, "t")
    half = round(dt / traj.step) // 2
    if not half <= k <= traj.times.size - 1 - half:
        raise ConfigError(f"bad value for 't': t - dt/2 = {t - dt / 2.0:g} and t + dt/2 = "
                          f"{t + dt / 2.0:g} must lie in [0, t_end = {traj.t_end:g}]")
    return traj, dt, k, traj.p(np.array([k - half, k + half]))


def _clusters(traj: dyn.Trajectory, dt: float, k: int, ell: int) -> tuple:
    """K-means into ell clusters on the full sampling grid; returns the
    clustering and the cluster sums q and qdot at model-grid row k."""
    f = cl.kmeans(cl.kmeans_features(traj, _grid(traj, dt)), ell)
    return f, cl.aggregate(traj.p(k), f), cl.aggregate(traj.pdot(k), f)


def _write_clustering(f: cl.Clustering, outdir) -> None:
    """`clustering.csv`: one `mu,label` row per variant, both 1-based."""
    write_csv(os.path.join(outdir, "clustering.csv"), ["mu", "label"],
              enumerate((f.labels + 1).tolist(), start=1))


def _mean_var_rows(label: str, est: smp.MonteCarloEstimate, mean_th, var_th) -> list:
    """Mean row and variance row of a scalar estimate; `label` has a {} for
    the moment name.  The variance SE var*sqrt(2/(R-1)) holds for normal data."""
    var = est.std * est.std
    return [(label.format("mean"), est.mean, est.standard_error, mean_th),
            (label.format("var"), var, var * np.sqrt(2.0 / (est.replications - 1)), var_th)]


def _component_rows(n: int, est: smp.MonteCarloEstimate, mean_th, var_th) -> list:
    """`n, idx, mc_mean, mc_se, mc_var, theory_mean, theory_var` rows, one per
    component of a vector estimate and of the closed-form columns (idx from 1)."""
    return [(n, idx, mean, se, std * std, m_th, v_th) for idx, (mean, se, std, m_th, v_th)
            in enumerate(zip(est.mean, est.standard_error, est.std, mean_th, var_th), start=1)]


@experiment("distance-moments", "p", "n", "replications")
def run_distance_moments(cfg, outdir, seed):
    p = _get(cfg, "p", DEFAULT_P, _distribution)
    ns = _get(cfg, "n", [100, 1000, 10000], _int_list)
    reps = _get(cfg, "replications", 2000, _replications)
    rows = []
    for i, n in enumerate(ns):
        est = smp.monte_carlo_components(lambda c: shahshahani_distance_sq(p, c / n), reps,
                                         rng.derive_key(seed, i), p, n)
        mean_th, var_th = th.distance_moments(p.size - 1, n)
        rows.append((n, est.mean, est.standard_error, est.std * est.std, mean_th, var_th))
    write_csv(os.path.join(outdir, "distance_moments.csv"),
              ["n", "mc_mean", "mc_se", "mc_var", "theory_mean", "theory_var"], rows)
    return ["distance_moments.csv"]


@experiment("model-trajectory", "output_stride", "t0", "count", "ell", *_MODEL_KEYS)
def run_model_trajectory(cfg, outdir, seed):
    stride = _get(cfg, "output_stride", 2, _at_least(1, "output stride"))
    t0, count = _grid_keys(cfg)
    ell = _get(cfg, "ell", 3, _cluster_count)
    traj, dt = _model(cfg, [ell])
    f = cl.kmeans(cl.kmeans_features(traj, _grid(traj, dt, t0, count)), ell)
    rows = slice(None, None, stride)
    m = traj.n_variants
    header = (["t", "S"] + [f"{name}_{i}" for name in ("p", "pdot", "d") for i in range(1, m + 1)]
              + ["mean_d"])
    p, pdot, d, mean_d, g_tt = traj.replicator(rows)
    table = np.column_stack((traj.times[rows], traj.susceptible[rows], p, pdot, d, mean_d))
    write_csv(os.path.join(outdir, "trajectory.csv"), header, map(np.ndarray.tolist, table))
    _write_clustering(f, outdir)
    write_csv(os.path.join(outdir, "fisher.csv"), ["t", "g_tt", "g_f"],
              zip(traj.times[rows], g_tt, cl.clustered_fisher(p, pdot, f)))
    return ["trajectory.csv", "clustering.csv", "fisher.csv"]


@experiment("fisher-bias-vs-n", "n", "replications", "t", *_MODEL_KEYS)
def run_fisher_bias_vs_n(cfg, outdir, seed):
    ns = _get(cfg, "n", [10000, 30000, 100000], _int_list)
    reps = _get(cfg, "replications", 500, _replications)
    traj, dt, k, p2 = _at_t(cfg)
    g_tt = traj.fisher_curve(k)
    rows = []
    for i, n in enumerate(ns):
        est = smp.monte_carlo_components(lambda c: smp.fisher_hat(c / n, dt)[:, 0], reps,
                                         rng.derive_key(seed, i), p2, n)
        mean_th, var_th = th.fisher_prediction(g_tt, traj.n_variants - 1, n, dt)
        rows.append((n, est.mean, est.standard_error, mean_th, np.sqrt(var_th)))
    write_csv(os.path.join(outdir, "fisher_bias_vs_n.csv"),
              ["n", "mc_mean", "mc_se", "theory_mean", "theory_sd"], rows)
    return ["fisher_bias_vs_n.csv"]


@experiment("fisher-bias-vs-t", "n", "replications", "t0", "count", *_MODEL_KEYS)
def run_fisher_bias_vs_t(cfg, outdir, seed):
    n = _get(cfg, "n", 100000, _sample_size)
    reps = _get(cfg, "replications", 500, _replications)
    t0, count = _grid_keys(cfg)
    traj, dt = _model(cfg)
    rows = _grid(traj, dt, t0, count)
    est = smp.monte_carlo_components(lambda c: smp.fisher_hat(c / n, dt), reps, seed,
                                     traj.p(rows), n)
    mid = (rows[:-1] + rows[1:]) // 2  # _model made dt/2 a whole number of grid steps
    mean_th, var_th = th.fisher_prediction(traj.fisher_curve(mid), traj.n_variants - 1, n, dt)
    write_csv(os.path.join(outdir, "fisher_bias_vs_t.csv"),
              ["t", "mc_mean", "mc_se", "theory_mean", "theory_sd"],
              zip(traj.times[mid], est.mean, est.standard_error, mean_th, np.sqrt(var_th)))
    return ["fisher_bias_vs_t.csv"]


@experiment("info-rate-moments", "n", "replications", "ell", "t", *_MODEL_KEYS)
def run_info_rate_moments(cfg, outdir, seed):
    ns = _get(cfg, "n", [1000, 10000, 100000], _int_list)
    reps = _get(cfg, "replications", 1000, _replications)
    ell = _get(cfg, "ell", 3, _cluster_count)
    traj, dt, k, p2 = _at_t(cfg, [ell])
    f, q, qdot = _clusters(traj, dt, k, ell)
    rate, p = traj.info_rate_curve(k), traj.p(k)
    var_rows, clu_rows = [], []
    for i, n in enumerate(ns):
        est = smp.monte_carlo_components(lambda c: smp.info_rate_hat(c / n, dt)[:, 0], reps,
                                         rng.derive_key(seed, 2 * i), p2, n)
        var_rows += _component_rows(n, est, *th.info_rate_moments(rate, p, n, dt))
        est = smp.monte_carlo_components(lambda c: smp.cluster_info_rate_hat(c, n, dt, f)[:, 0],
                                         reps, rng.derive_key(seed, 2 * i + 1), p2, n)
        clu_rows += _component_rows(n, est, *th.info_rate_moments(
            self_information_rate(q, qdot), q, n, dt))
    header = ["n", "idx", "mc_mean", "mc_se", "mc_var", "theory_mean", "theory_var"]
    write_csv(os.path.join(outdir, "info_rate_variants.csv"), header, var_rows)
    write_csv(os.path.join(outdir, "info_rate_clusters.csv"), header, clu_rows)
    _write_clustering(f, outdir)
    return ["info_rate_variants.csv", "info_rate_clusters.csv", "clustering.csv"]


@experiment("filtering-comparison", "n", "t0", "count", "half_width", "shape", *_MODEL_KEYS)
def run_filtering_comparison(cfg, outdir, seed):
    n = _get(cfg, "n", 250000, _sample_size)
    t0, count = _grid_keys(cfg, 2.5, 31)
    kernel = flt.gaussian_kernel(
        _get(cfg, "half_width", flt.DEFAULT_HALF_WIDTH, _at_least(0, "half width")),
        _get(cfg, "shape", flt.DEFAULT_SHAPE, _positive))
    traj, dt = _model(cfg)
    rows = _grid(traj, dt, t0, count)
    counts = rng.sample_block(traj.p(rows), n,
                              rng.derive_key(seed, np.arange(rows.size, dtype=np.uint64)))
    true_rates = traj.info_rate_curve((rows[:-1] + rows[1:]) // 2)
    phat = counts / n
    raw = smp.info_rate_hat(phat, dt)
    filt = smp.info_rate_hat(flt.filter_probs(phat, kernel), dt)
    rmse_raw = np.sqrt(np.mean((raw - true_rates) ** 2, axis=0))
    rmse_filt = np.sqrt(np.mean((filt - true_rates) ** 2, axis=0))
    write_csv(os.path.join(outdir, "filtering_rmse.csv"),
              ["mu", "rmse_raw", "rmse_filtered"],
              zip(range(1, traj.n_variants + 1), rmse_raw, rmse_filt))
    return ["filtering_rmse.csv"]


@experiment("elbow-scan", "t", "ell", *_MODEL_KEYS)
def run_elbow_scan(cfg, outdir, seed):
    if not cfg.keys() & {"groups", *_UNGROUPED_KEYS}:
        cfg = dict(cfg, groups="9,9,8,8,8,8")
    t_eval = _get(cfg, "t", 1.0, _time)
    ells = _get(cfg, "ell", list(range(4, 11)), _scan_counts)
    traj, dt = _model(cfg, ells)
    k_eval = _row(traj, t_eval, "t")
    feats = cl.kmeans_features(traj, _grid(traj, dt))
    p, pdot = traj.p(k_eval), traj.pdot(k_eval)
    curve = [(ell, cl.delta_g_prob_form(p, pdot, cl.kmeans(feats, ell))) for ell in ells]
    ell_star = cl.elbow_select(curve)
    write_csv(os.path.join(outdir, "elbow_curve.csv"), ["ell", "delta_g"], curve)
    write_csv(os.path.join(outdir, "elbow_summary.csv"), ["ell_star", str(ell_star)], [])
    return ["elbow_curve.csv", "elbow_summary.csv"]


@experiment("theory-vs-mc", "n", "replications", "ell", "p", "t", *_MODEL_KEYS)
def run_theory_vs_mc(cfg, outdir, seed):
    n = _get(cfg, "n", 10000, _sample_size)
    reps = _get(cfg, "replications", 1000, _replications)
    ell = _get(cfg, "ell", 3, _cluster_count)
    p4 = _get(cfg, "p", DEFAULT_P, _distribution)
    traj, dt, k, p2 = _at_t(cfg, [ell])
    f, q, qdot = _clusters(traj, dt, k, ell)

    est = smp.monte_carlo_components(lambda c: shahshahani_distance_sq(p4, c / 1000), reps,
                                     rng.derive_key(seed, 0), p4, 1000)
    rows = _mean_var_rows("distance_{}", est, *th.distance_moments(p4.size - 1, 1000))

    est = smp.monte_carlo_components(lambda c: smp.fisher_hat(c / n, dt)[:, 0], reps,
                                     rng.derive_key(seed, 1), p2, n)
    rows += _mean_var_rows("fisher_{}", est, *th.fisher_prediction(
        traj.fisher_curve(k), traj.n_variants - 1, n, dt))

    est = smp.monte_carlo_components(lambda c: smp.clustered_fisher_hat(c, n, dt, f)[:, 0], reps,
                                     rng.derive_key(seed, 2), p2, n)
    # ell clusters: ell - 1 degrees of freedom
    rows += _mean_var_rows("clustered_fisher_{}", est, *th.fisher_prediction(
        fisher_information(q, qdot), ell - 1, n, dt))

    est = smp.monte_carlo_components(lambda c: smp.info_rate_hat(c / n, dt)[:, 0, 0], reps,
                                     rng.derive_key(seed, 3), p2, n)
    rows += _mean_var_rows("info_rate_{}_mu1", est, *th.info_rate_moments(
        traj.info_rate_curve(k)[0], traj.p(k)[0], n, dt))

    write_csv(os.path.join(outdir, "theory_vs_mc.csv"),
              ["quantity", "mc_value", "mc_se", "theory_value"], rows)
    return ["theory_vs_mc.csv"]


# every key some experiment reads
KNOWN_KEYS = frozenset().union(*(keys for _, keys in EXPERIMENTS.values()))


def run(config_path, outdir, seed_override=None) -> list[str]:
    """Execute the configured experiment; returns the artifact list."""
    with open(config_path, "rb") as fh:
        raw = fh.read()
    cfg = parse_config(raw.decode("utf-8"))
    name = cfg["experiment"]
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; valid: {sorted(EXPERIMENTS)}")
    fn, keys = EXPERIMENTS[name]
    unread = next((key for key in cfg if key not in keys), None)
    if unread is not None:
        raise ConfigError(f"key {unread!r} is not read by experiment {name!r} "
                          f"(it reads: {sorted(keys)})")
    if seed_override is not None:
        cfg["seed"] = str(seed_override)
    seed = _get(cfg, "seed", 1, _seed)
    os.makedirs(outdir, exist_ok=True)
    artifacts = fn(cfg, outdir, seed)
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
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed, an integer in [0, 2**64)")
    args = parser.parse_args(argv)
    try:
        artifacts = run(args.config, args.out, args.seed)
    except (ConfigError, OSError, ValueError,
            dyn.IntegrationError, smp.MonteCarloError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in artifacts:
        print(os.path.join(args.out, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
