"""Config-driven experiment runner.

Reads a flat key=value config, runs one named experiment at desk scale,
and writes plot-ready CSV files plus a manifest.json recording the config
hash, the effective seed, and the artifact list.  Outputs are a pure
function of (config, seed): rerunning produces byte-identical files.

Every Monte Carlo table ends with MC_COLUMNS: the fields of the
sampling.MonteCarloEstimate that sampling.monte_carlo_components computes,
written as they are, then the closed-form mean and variance from theory.
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
from . import sampling as smp
from . import theory as th
from .simplex import self_information_rate, shahshahani_distance_sq

# experiment name -> (fn(cfg, seed) -> {artifact: (header, columns)}, the keys it reads)
EXPERIMENTS = {}

# the keys of the model, which every experiment reads
_MODEL_KEYS = ("N", "dt", "t_end", "groups")


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


def _within(kind, low, high, message: str):
    """Converter of a config value to `kind` in [low, high); any other
    value, NaN included, raises ValueError(message)."""
    def conv(text: str):
        value = kind(text)
        if not low <= value < high:
            raise ValueError(message)
        return value
    return conv


# from the least positive double, 5e-324: every positive finite float, not -0.0
_positive = _within(float, math.nextafter(0.0, 1.0), math.inf, "must be positive and finite")
_time = _within(float, 0.0, math.inf, "must be a finite time of at least 0")
_seed = _within(int, 0, 1 << 64, "must lie in [0, 2**64)")
# a sample size; numpy draws none of 2**63 or more
_positive_int = _within(int, 1, 1 << 63, "must be an integer in [1, 2**63)")
# N, the dimension of the simplex of the N + 1 variants
_dimension = _within(int, 1, math.inf, "N must be at least 1")
_replications = _within(int, 2, math.inf, "replications must be at least 2")
_cluster_count = _within(int, 1, math.inf, "cluster count must be at least 1")
_instant_count = _within(int, 2, math.inf, "number of sampling instants must be at least 2")


def _int_list(text: str) -> list[int]:
    """Comma list of integers in [1, 2**63); an empty entry is an error."""
    entries = text.split(",")
    if not all(entry.strip() for entry in entries):
        raise ValueError("empty entry in the comma list")
    return [_positive_int(x) for x in entries]


def write_csv(path, header, columns) -> None:
    """Write a header line and one line per row of `columns`, with LF line
    ends, as UTF-8; every CSV artifact is written here.  A column is a
    sequence of cells or a 2-D array of several columns.  A float cell is
    written as '%.17g' % v writes it, so it reads back as the same double;
    any other cell (a string, an integer) as str()."""
    formats, blocks, rows = [], [], 0
    for col in columns:
        col = np.asarray(col)
        rows = len(col)
        col = col.reshape(rows, -1)
        formats += ["%.17g" if col.dtype.kind == "f" else "%s"] * col.shape[1]
        blocks.append(col.astype(object))
    cells = np.hstack(blocks).ravel().tolist() if blocks else []
    line = ",".join(formats) + "\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n" + line * rows % tuple(cells)).encode())


def _scan_counts(text: str) -> list[int]:
    """Comma list of at least 4 strictly increasing cluster counts."""
    values = _int_list(text)
    if len(values) < 4 or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("need at least 4 strictly increasing cluster counts")
    return values


def _model(cfg, ells=()) -> tuple:
    """Parse the model keys and check each count of `ells` (the value of
    `ell`) against the variant count.  Returns (params, dt, t_end)."""
    dt = _get(cfg, "dt", 0.25, _positive)
    t_end = _get(cfg, "t_end", 10.0, _positive)
    if t_end > dyn.MAX_TIME:
        raise ConfigError(f"bad value for 't_end': {t_end:g} is past MAX_TIME: times must be "
                          f"at most {dyn.MAX_TIME:g}")
    if "groups" in cfg:
        if "N" in cfg:
            raise ConfigError("keys 'groups' and 'N' cannot both be set: "
                              "'groups' fixes the variants and their rates")
        params = _get(cfg, "groups", None, lambda text: dyn.grouped_sir_params(_int_list(text)))
    else:
        params = dyn.default_sir_params(_get(cfg, "N", 9, _dimension) + 1)
    n_var = params.gamma.size
    for ell in ells:
        if ell > n_var:
            raise ConfigError(f"bad value for 'ell': {ell} clusters for {n_var} variants "
                              f"(need 1 <= n_clusters <= {n_var})")
    return params, dt, t_end


def _instants(dt: float, t_end: float, t0: float = 0.0, count: int | None = None,
              of: str = ""):
    """The sampling instants t0 + j dt: `count` of them or, by default, every
    one up to t_end (within a relative 1e-9 of the span).  Fewer than two, a
    larger `count`, more by default than an array of float64 can hold (dt
    may be as small as the smallest double, or 0), or instants that round
    to equal times is an error.  `of` ends the refusal of too many times,
    naming the step where it is not the config's dt."""
    steps = (t_end - t0) / dt * (1.0 + 1e-9) if dt else math.inf
    if count is None and not steps < np.iinfo(np.intp).max / 8:
        raise ConfigError(f"bad value for 'dt': steps of {dt:g} from {t0:g} to t_end = "
                          f"{t_end:g} are {steps:.3g} times, more than an array can hold{of}")
    fits = math.floor(steps) + 1 if steps < math.inf else math.inf
    if fits < 2 and t0 == 0.0:
        raise ConfigError(f"bad value for 't_end': {t_end} is less than one sampling "
                          f"step dt = {dt}")
    if fits < 2:
        raise ConfigError(f"bad value for 't0': {t0} is less than one step dt = {dt} "
                          f"before t_end = {t_end}")
    if count is None:
        count = fits
    elif count > fits:
        raise ConfigError(f"bad value for 'count': {count} instants from t0 = {t0} at step "
                          f"dt = {dt} end at {t0 + (count - 1) * dt}, after t_end = "
                          f"{t_end} (at most {fits} fit)")
    times = t0 + dt * np.arange(count)
    if not np.all(times[1:] > times[:-1]):
        raise ConfigError(f"bad value for 'dt': instants {dt:g} apart from t0 = {t0:g} "
                          f"round to equal times")
    return times


def _inside(t_end: float, times, what: str) -> None:
    """Refuse the key 't' unless `times`, which `what` names, lie in [0,
    t_end], within a relative 1e-9 at t_end but not past dynamics.MAX_TIME."""
    if not (0.0 <= min(times) and max(times) <= min(t_end * (1.0 + 1e-9), dyn.MAX_TIME)):
        raise ConfigError(f"bad value for 't': {what} must lie in [0, t_end = {t_end:g}]")


def _solve(cfg, params, *times) -> tuple:
    """One solve_sir call at all of `times`, each a time or an array of them.
    Returns the trajectory and, for each entry, its row or the slice of its
    rows.  An IntegrationError names the key of the rates, and a time past
    dynamics.MAX_TIME names t_end, which bounds every time a run asks for."""
    rows, start = [], 0
    for t in times:
        size = np.size(t)
        rows.append(slice(start, start + size) if np.ndim(t) else start)
        start += size
    try:
        return dyn.solve_sir(params, np.hstack(times)), rows
    except ValueError as exc:
        raise ConfigError(f"bad value for 't_end': {exc}") from exc
    except dyn.IntegrationError as exc:
        key = "groups" if "groups" in cfg else "N"
        raise ConfigError(f"bad value for {key!r}: the rates of its variants cannot be "
                          f"integrated, and 'dt' and 't_end' do not change the series steps: "
                          f"{exc}") from exc


def _fisher(traj: dyn.Trajectory, rows: slice, f: cl.Clustering) -> tuple:
    """(g_tt, g_f) at a slice of the trajectory's rows: the Fisher information
    of the variants and of the clusters of f.  Blocks of max(1,
    sampling.CHUNK_COUNTS // M) rows are reduced one after another, so no
    (rows, M) table is held; each row reduces as it would alone, bit for bit."""
    size = max(1, smp.CHUNK_COUNTS // traj.params.n_variants)
    g_tt, g_f = [], []
    for start in range(rows.start, rows.stop, size):
        p, pdot, g = traj.replicator(slice(start, min(start + size, rows.stop)))
        g_tt.append(g)
        g_f.append(cl.clustered_fisher(p, pdot, f))
    return np.concatenate(g_tt), np.concatenate(g_f)


def _clustering_table(f: cl.Clustering) -> tuple:
    """`clustering.csv`: one `mu,label` row per variant, both 1-based."""
    return ["mu", "label"], [np.arange(1, f.labels.size + 1), f.labels + 1]


# the last columns of every Monte Carlo table: the estimate's fields, then
# their closed-form mean and variance
MC_COLUMNS = [*(f"mc_{name}" for name in smp.MonteCarloEstimate._fields),
              "theory_mean", "theory_var"]


def _mc_columns(est: smp.MonteCarloEstimate, mean_th, var_th, part=slice(None)) -> list:
    """The MC_COLUMNS of the components in `part` of an estimate (the one
    value of a scalar estimate) against their closed-form mean and variance."""
    return [*(np.atleast_1d(field)[part] for field in est), np.atleast_1d(mean_th),
            np.atleast_1d(var_th)]


def _mc_table(lead: list, blocks: list) -> tuple:
    """A Monte Carlo table: the `lead` columns, then MC_COLUMNS, one block of
    rows per entry of `blocks` (its lead columns, then _mc_columns)."""
    return [*lead, *MC_COLUMNS], [np.concatenate(col) for col in zip(*blocks)]


@experiment("model-trajectory", "ell", *_MODEL_KEYS)
def run_model_trajectory(cfg, seed):
    ell = _get(cfg, "ell", 3, _cluster_count)
    params, dt, t_end = _model(cfg, [ell])
    _instants(dt, t_end, count=2)  # a t_end under one step is refused naming dt itself
    # its size is checked before any grid is built
    every = _instants(dt / 10.0, t_end, of=f"; the step is dt/10 for dt = {dt}")
    traj, (grid, rows) = _solve(cfg, params, _instants(dt, t_end), every)
    f = cl.kmeans(cl.kmeans_features(traj, grid), ell)
    m = params.n_variants
    times = traj.times[rows]
    # the state alone: with the rates of variants.csv, p = softmax(log i0 +
    # gamma X - epsilon t), d = gamma S - epsilon, <d> = sum(p d) and pdot =
    # p (d - <d>) follow from it bit for bit
    return {"trajectory.csv": (["t", "S", "X"], [times, traj.susceptible[rows],
                                                 traj.cumulative_susceptible[rows]]),
            "variants.csv": (["mu", "gamma", "epsilon", "i0", "label"],
                             [np.arange(1, m + 1), params.gamma, params.epsilon, params.i0,
                              f.labels + 1]),
            "fisher.csv": (["t", "g_tt", "g_f"], [times, *_fisher(traj, rows, f)])}


@experiment("fisher-bias-vs-t", "n", "replications", "t0", "count", "ell", *_MODEL_KEYS)
def run_fisher_bias_vs_t(cfg, seed):
    ns = _get(cfg, "n", [100000], _int_list)
    reps = _get(cfg, "replications", 500, _replications)
    t0 = _get(cfg, "t0", 0.0, _time)
    count = _get(cfg, "count", None, _instant_count)
    ell = _get(cfg, "ell", 3, _cluster_count)
    params, dt, t_end = _model(cfg, [ell])
    grid = _instants(dt, t_end)
    instants = _instants(dt, t_end, t0, count)
    traj, (grid, rows, mid) = _solve(cfg, params, grid, instants, instants[:-1] + dt / 2.0)
    f = cl.kmeans(cl.kmeans_features(traj, grid), ell)
    p, m = traj.p(rows), params.n_variants
    g_tt, g_f = _fisher(traj, mid, f)
    times, size = traj.times[mid], instants.size - 1
    # the variant rows (ell = M) over g_tt, then the cluster rows over g_f
    parts = ((slice(size), m, g_tt), (slice(size, 2 * size), ell, g_f))
    fisher = smp.with_clusters(lambda ph: smp.fisher_hat(ph, dt), f)
    # each replication's Fisher values, then, on the same counts, the squared
    # distance D_k of its variant frequencies from p_k at every instant
    ests = smp.monte_carlo_per_n(lambda c, n: np.concatenate(
        (fisher(c, n), shahshahani_distance_sq(p, c / n)), axis=-1), reps, seed, p, ns)
    blocks = [[times, np.full(size, n), np.full(size, n_cats),
               *_mc_columns(est, *th.fisher_prediction(g, n_cats - 1, n, dt), part)]
              for n, est in zip(ns, ests) for part, n_cats, g in parts]
    distances = [[instants, np.full(size + 1, n), *_mc_columns(
        est, *th.distance_moments(p, n), slice(2 * size, None))] for n, est in zip(ns, ests)]
    return {"fisher_bias_vs_t.csv": _mc_table(["t", "n", "ell"], blocks),
            "distance_moments.csv": _mc_table(["t", "n"], distances)}


@experiment("info-rate-moments", "n", "replications", "ell", "t", *_MODEL_KEYS)
def run_info_rate_moments(cfg, seed):
    ns = _get(cfg, "n", [1000, 10000, 100000], _int_list)
    reps = _get(cfg, "replications", 1000, _replications)
    ell = _get(cfg, "ell", 3, _cluster_count)
    t = _get(cfg, "t", 5.0, _time)
    params, dt, t_end = _model(cfg, [ell])
    grid = _instants(dt, t_end)
    pair = [t - dt / 2.0, t + dt / 2.0]
    _inside(t_end, pair, f"t - dt/2 = {pair[0]!r} and t + dt/2 = {pair[1]!r}")
    traj, (grid, k, ends) = _solve(cfg, params, grid, t, pair)
    f = cl.kmeans(cl.kmeans_features(traj, grid), ell)
    (p, pdot, _), m = traj.replicator(k), params.n_variants
    q, qdot = cl.aggregate(p, f), cl.aggregate(pdot, f)
    rate, clu_rate = traj.info_rate_curve(k), self_information_rate(q, qdot)
    p2 = traj.p(ends)  # at t - dt/2 and t + dt/2
    rates = smp.with_clusters(lambda ph: smp.info_rate_hat(ph, dt)[:, 0], f)
    ests = smp.monte_carlo_per_n(rates, reps, seed, p2, ns)
    variants, clusters = [], []
    for n, est in zip(ns, ests):
        variants.append([np.full(m, n), np.arange(1, m + 1), *_mc_columns(
            est, *th.info_rate_moments(rate, p, n, dt), slice(m))])
        clusters.append([np.full(ell, n), np.arange(1, ell + 1), *_mc_columns(
            est, *th.info_rate_moments(clu_rate, q, n, dt), slice(m, None))])
    return {"info_rate_variants.csv": _mc_table(["n", "idx"], variants),
            "info_rate_clusters.csv": _mc_table(["n", "idx"], clusters),
            "clustering.csv": _clustering_table(f)}


@experiment("filtering-comparison", "n", "t0", "count", *_MODEL_KEYS)
def run_filtering_comparison(cfg, seed):
    n = _get(cfg, "n", 250000, _positive_int)
    t0 = _get(cfg, "t0", 2.5, _time)
    count = _get(cfg, "count", 31, _instant_count)
    if count <= flt.DEFAULT_HALF_WIDTH:  # offsets past count - 1 reach no further instant
        raise ConfigError(f"bad value for 'count': {count} sampling instants do not exceed the "
                          f"Gaussian kernel's half width {flt.DEFAULT_HALF_WIDTH}")
    kernel = flt.gaussian_kernel()
    params, dt, t_end = _model(cfg)
    instants = _instants(dt, t_end, t0, count)
    traj, (rows, mid) = _solve(cfg, params, instants, instants[:-1] + dt / 2.0)
    counts = smp.sample_trajectory(traj.p(rows), n, seed)
    true_rates = traj.info_rate_curve(mid)
    phat = counts / n
    raw = smp.info_rate_hat(phat, dt)
    filt = smp.info_rate_hat(flt.filter_probs(phat, kernel), dt)
    rmse_raw = np.sqrt(np.mean((raw - true_rates) ** 2, axis=0))
    rmse_filt = np.sqrt(np.mean((filt - true_rates) ** 2, axis=0))
    return {"filtering_rmse.csv": (["mu", "rmse_raw", "rmse_filtered"],
                                   [np.arange(1, params.n_variants + 1), rmse_raw, rmse_filt])}


@experiment("elbow-scan", "t", "ell", *_MODEL_KEYS)
def run_elbow_scan(cfg, seed):
    if not cfg.keys() & {"groups", "N"}:
        cfg = dict(cfg, groups="9,9,8,8,8,8")
    t = _get(cfg, "t", 1.0, _time)
    ells = _get(cfg, "ell", list(range(4, 11)), _scan_counts)
    params, dt, t_end = _model(cfg, ells)
    grid = _instants(dt, t_end)
    _inside(t_end, [t], f"t = {t!r}")
    traj, (grid, k) = _solve(cfg, params, grid, t)
    scores = cl.principal_scores(cl.kmeans_features(traj, grid))
    p, pdot, _ = traj.replicator(k)
    curve = [(ell, cl.delta_g_prob_form(p, pdot, cl.lloyd(scores, ell))) for ell in ells]
    ell_star = cl.elbow_select(curve)
    return {"elbow_curve.csv": (["ell", "delta_g"], zip(*curve)),
            "elbow_summary.csv": (["ell_star"], [[ell_star]])}


# every key some experiment reads
KNOWN_KEYS = frozenset().union(*(keys for _, keys in EXPERIMENTS.values()))


def run(config_path, outdir, seed_override=None) -> list[str]:
    """Execute the configured experiment, then create `outdir` and write its
    tables and the manifest; returns the artifact list.  A run that fails
    before the experiment returns creates and writes nothing; an `outdir`
    that exists, or lies below a path that exists, and is no directory fails
    before the experiment starts."""
    target = head = os.path.abspath(outdir)
    while not os.path.lexists(head):  # the filesystem root always exists
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        if head == target:
            raise NotADirectoryError(f"--out {outdir!r} exists and is not a directory")
        raise NotADirectoryError(f"--out {outdir!r} lies below {head!r}, "
                                 "which is not a directory")
    with open(config_path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode().removeprefix("\ufeff")  # a leading byte-order mark is skipped
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--config {config_path!r} is not UTF-8: byte {exc.start} "
                          f"(0x{raw[exc.start]:02x}) {exc.reason}") from exc
    cfg = parse_config(text)
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
    tables = fn(cfg, seed)
    os.makedirs(outdir, exist_ok=True)
    for artifact, (header, columns) in tables.items():
        write_csv(os.path.join(outdir, artifact), header, columns)
    manifest = {
        "experiment": name,
        "config_sha256": hashlib.sha256(raw).hexdigest(),
        "seed": seed,
        "artifacts": sorted(tables),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sorted(tables) + ["manifest.json"]


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
    except (ConfigError, OSError, ValueError, smp.MonteCarloError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'MemoryError'}); the variants (N, groups) "
              f"and the number of times (t_end / dt) set what a run holds", file=sys.stderr)
        return 2
    for name in artifacts:
        print(os.path.join(args.out, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
