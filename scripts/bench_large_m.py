"""In-process timings of the model path at many variants.

    python3 scripts/bench_large_m.py --root . --repeats 5

Imports infodyn from <root>/src, so the same script measures any checkout.
Prints one JSON object: under "host" the Python and numpy versions and the
BLAS thread variables it set, then the medians (and the raw samples) of:

- `solve_sir` on the grouped model of six rate groups at M = 1000 and 10**5
  variants, at the 41 sampling instants 0, 0.25, ..., 10 (dt = 0.25,
  t_end = 10), and on the default model at M = 1000, every rate pair
  distinct, at the 81 times 0, 0.125, ..., 10 that filtering-comparison
  asks for (its 41 instants and their midpoints);
- `kmeans_features` at M = 10**5 on those 41 instants: traced
  (tracemalloc) peak;
- the runs of RUNS at M = 10**5 (six groups): an elbow-scan at ell =
  4..7, a model-trajectory at the default dt, t_end and ell, and a
  fisher-bias-vs-t Monte Carlo run over the 41 instants at n = 10**5 with
  4 replications, each through `cli.run`: wall time, tracemalloc peak, and
  the ru_maxrss of a fresh process that runs only it.

Each sample runs in its own process: a run's sample, so that ru_maxrss is
that run's, and a `solve_sir` sample, the median of SOLVE_CALLS calls
after one untimed call, since one process can settle at about twice the
time of another for the same call.  A run's time and traced peak come from
separate processes, since tracing slows the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

# timed solve_sir calls per process, after one untimed call
SOLVE_CALLS = 5
SOLVE_MODELS = ("grouped_M1000", "grouped_M100000", "default_M1000")


def groups(m: int) -> list[int]:
    """Six rate groups of sizes as equal as M allows, larger ones first."""
    return [m // 6 + (i < m % 6) for i in range(6)]


# the config text of each run at M = 10**5
LARGE = "groups = " + ",".join(map(str, groups(10 ** 5))) + "\nseed = 1\n"
RUNS = {"elbow_scan": "experiment = elbow-scan\nell = 4,5,6,7\n" + LARGE,
        "model_trajectory": "experiment = model-trajectory\n" + LARGE,
        "fisher_bias_vs_t": "experiment = fisher-bias-vs-t\ncount = 41\nn = 100000\n"
                            "replications = 4\n" + LARGE}


def run_once(text: str, trace: bool) -> dict:
    """One `cli.run` of the config `text`, in this process."""
    from infodyn import cli

    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        if trace:
            tracemalloc.start()
        start = time.perf_counter()
        cli.run(cfg, os.path.join(tmp, "out"))
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20 if trace else None
        tracemalloc.stop()
    return {"seconds": seconds, "traced_peak_mb": peak,
            "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def solve_once(model: str) -> float:
    """One solve_sir sample of `model` (one of SOLVE_MODELS), in this process."""
    import numpy as np

    from infodyn import dynamics as dyn

    kind, m = model.split("_M")
    if kind == "grouped":
        params, times = dyn.grouped_sir_params(groups(int(m))), np.arange(41) * 0.25
    else:
        params, times = dyn.default_sir_params(int(m)), np.arange(81) * 0.125
    dyn.solve_sir(params, times)
    seconds = []
    for _ in range(SOLVE_CALLS):
        start = time.perf_counter()
        dyn.solve_sir(params, times)
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)


def kmeans_peak() -> dict:
    """Traced peak of kmeans_features at M = 10**5 on the 41 instants."""
    import numpy as np

    from infodyn import clustering as cl
    from infodyn import dynamics as dyn

    traj = dyn.solve_sir(dyn.grouped_sir_params(groups(10 ** 5)), np.arange(41) * 0.25)
    tracemalloc.start()
    cl.kmeans_features(traj, slice(None))
    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    return {"kmeans_features_M100000_traced_peak_mb": [peak]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=".", help="checkout whose src/ is measured")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--run", choices=RUNS, help=argparse.SUPPRESS)
    parser.add_argument("--trace", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--solve", choices=SOLVE_MODELS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    os.environ.update(blas)  # single-threaded BLAS, as in perfbench; children inherit it
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    if args.run:  # one sample of a run, in this process only
        print(json.dumps(run_once(RUNS[args.run], args.trace)))
        return 0
    if args.solve:  # one solve_sir sample, in this process only
        print(json.dumps(solve_once(args.solve)))
        return 0

    def sample(*flags):
        return json.loads(subprocess.run([sys.executable, __file__, "--root", args.root, *flags],
                                         check=True, capture_output=True, text=True).stdout)

    import numpy as np

    host = {"python": platform.python_version(), "numpy": np.__version__, **blas}
    samples = kmeans_peak()
    for model in SOLVE_MODELS:
        samples[f"solve_sir_{model}_s"] = [sample("--solve", model) for _ in range(args.repeats)]
    for name in RUNS:
        runs = [sample("--run", name, *trace) for _ in range(args.repeats)
                for trace in ([], ["--trace"])]
        samples[f"{name}_M100000_s"] = [r["seconds"] for r in runs[::2]]
        samples[f"{name}_M100000_traced_peak_mb"] = [r["traced_peak_mb"] for r in runs[1::2]]
        samples[f"{name}_M100000_ru_maxrss_mb"] = [r["ru_maxrss_mb"] for r in runs[::2]]
    print(json.dumps({"host": host,
                      "median": {k: statistics.median(v) for k, v in samples.items()},
                      "samples": samples}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
