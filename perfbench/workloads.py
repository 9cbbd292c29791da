"""Workload definitions: each workload is a list of experiment configs.

Configs are plain ``key = value`` text for ``infodyn.cli.run``.  They are a
pure function of (workload, seed, seconds): the seed only selects the
random streams, so the amount of work per invocation is the same for every
seed, and ``seconds`` only sets how many invocations a run makes.
"""

from __future__ import annotations

import hashlib

# One invocation of `fisher-bias-vs-t`: 10 variants, 41 instants.  Many
# narrow draws, so stream derivation and the sampler loop dominate.
TIMEGRID = dict(experiment="fisher-bias-vs-t", N=9, n=100000, count=41, replications=400)

# One invocation of `info-rate-moments`: 1000 variants, one n, two
# Monte Carlo blocks (per variant and per cluster).  Few wide draws.
WIDE = dict(experiment="info-rate-moments", N=999, t=5, t_end=6, n=100000, ell=10,
            replications=60)

# One model-scan cycle: no Monte Carlo, integration of 1000 variants,
# K-means, CSV output and filtering.
SCAN = (
    dict(experiment="model-trajectory", N=999, ell=10),
    dict(experiment="elbow-scan", groups="167,167,167,167,166,166",
         ell="4,5,6,7,8,9,10,11,12"),
    dict(experiment="filtering-comparison", N=999),
)

# name -> (configs of one cycle, nominal seconds of one cycle).  The nominal
# costs were measured with infodyn 0.1.0 and numpy 2.4.6 on a 2-core shared
# machine while it ran slow; on the same machine a cycle took from 0.6 to
# 1.5 times that.  A run makes round(seconds / nominal) cycles, so the work
# of a run is fixed for a given --seconds and does not depend on how fast
# the machine happens to be.
WORKLOADS = {
    "mc-timegrid": ((TIMEGRID,), 1.6),
    "mc-wide": ((WIDE,), 1.5),
    "model-scan": (SCAN, 7.0),
}

# Small versions of every experiment, run once before timing so that lazy
# imports and first-call costs land in set-up, not in the first invocation.
WARMUP = {
    "fisher-bias-vs-t": dict(experiment="fisher-bias-vs-t", N=9, t_end=2, count=5,
                             replications=2),
    "info-rate-moments": dict(experiment="info-rate-moments", N=9, t=1, t_end=2, n=1000,
                              ell=3, replications=2),
    "model-trajectory": dict(experiment="model-trajectory", N=9, t_end=2, ell=3),
    "elbow-scan": dict(experiment="elbow-scan", t_end=2),
    "filtering-comparison": dict(experiment="filtering-comparison", N=9, t0=0.5, count=7,
                                 t_end=2),
}


def derived_seed(workload: str, seed: int, index: int) -> int:
    """63-bit invocation seed named by (workload, seed, index)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def config_text(cfg: dict, seed: int) -> str:
    lines = [f"{key} = {value}" for key, value in cfg.items()]
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


def cycles(workload: str, seconds: float) -> int:
    _, nominal = WORKLOADS[workload]
    return max(1, round(seconds / nominal))


def invocations(workload: str, seed: int, n_cycles: int) -> list[tuple[str, int, str, int]]:
    """(experiment, invocation seed, config text, replications) for n_cycles cycles."""
    cycle, _ = WORKLOADS[workload]
    out = []
    for _ in range(n_cycles):
        for cfg in cycle:
            s = derived_seed(workload, seed, len(out))
            out.append((cfg["experiment"], s, config_text(cfg, s), replications(cfg)))
    return out


def replications(cfg: dict) -> int:
    """Monte Carlo replications one invocation draws.

    `info-rate-moments` runs two blocks (per variant, per cluster) for its
    one n; `fisher-bias-vs-t` one block; `filtering-comparison` draws a
    single sampled trajectory, counted as one replication; the others draw
    none.
    """
    return {"info-rate-moments": 2 * cfg.get("replications", 0),
            "fisher-bias-vs-t": cfg.get("replications", 0),
            "filtering-comparison": 1}.get(cfg["experiment"], 0)
