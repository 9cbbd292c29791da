"""infodyn benchmark: Monte Carlo throughput, model-scan latency, per-module self time.

    python3 perfbench/run.py --workload mc-timegrid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(worker.py) that import infodyn from ``src/`` and call
``infodyn.cli.run(config, outdir, seed)`` back to back: a closed loop with
one client, one process at a time, single-threaded BLAS.  With ``--trace 0``
it prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics
of a traced pass next to an untraced pass over the same invocations.
Every invocation's outputs are checked; the last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# set-up is sampled in this many fresh processes; the last one also runs
# the timed invocations
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0
# |sum of span self times - traced wall time| allowed per traced invocation
SELF_SUM_TOL_S = 1e-3

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("run_p50_s", "s", "lower"),
    ("reps_per_s", "replications/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in tracing.span_names():
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    out += [(name, "count", "higher" if name.endswith("replications") else "lower")
            for name in tracing.COUNT_NAMES]
    out += [
        ("theory.z_abs_max", "z", "lower"),
        ("theory.z_rows", "count", "higher"),
        ("cli.artifact_bytes", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("failed_frac", "ratio", "lower"),
    ]
    return out


def _spawn(args, root: str, workdir: str, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, "--workdir", workdir,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=root,
                              stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: worker did not finish within {WORKER_TIMEOUT_S:g} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _workload_digest(records) -> str:
    h = hashlib.sha256()
    for i, rec in enumerate(records):
        for name, digest in sorted(rec["digests"].items()):
            h.update(f"{i}/{name}:{digest}\n".encode())
    return h.hexdigest()


def end_to_end(setups, result) -> dict:
    records = result["plain"]
    times = [r["seconds"] for r in records]
    wall = sum(times)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "run_p50_s": statistics.median(times),
        "reps_per_s": result["replications"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result) -> dict:
    plain, traced = result["plain"], result["traced"]
    out = {}
    for name, (calls, self_s) in result["spans"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    out.update(result["counts"])
    out["theory.z_abs_max"] = max((r["z_abs_max"] for r in traced), default=0.0)
    out["theory.z_rows"] = sum(r["z_rows"] for r in traced)
    out["cli.artifact_bytes"] = sum(r["bytes"] for r in traced)
    out["trace.overhead_s"] = (sum(r["seconds"] for r in traced)
                               - sum(r["seconds"] for r in plain))
    out["failed_frac"] = sum(not r["ok"] for r in plain + traced) / len(plain + traced)
    return out


def trace_problems(result) -> list[str]:
    """Determinism and self-time consistency of a traced run.

    A traced invocation whose artifacts differ from the untraced ones is
    marked failed.
    """
    problems = []
    plain, traced = result["plain"], result["traced"]
    for a, b in zip(plain, traced):
        if b["ok"] and a["digests"] != b["digests"]:
            b["ok"] = False
            b["problems"].append("traced artifacts differ from the untraced ones")
    traced_wall = sum(r["seconds"] for r in traced)
    self_sum = sum(self_s for _, self_s in result["spans"].values())
    if abs(self_sum - traced_wall) > SELF_SUM_TOL_S * len(traced):
        problems.append(f"span self times sum to {self_sum:.6f} s, "
                        f"traced wall time is {traced_wall:.6f} s")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "infodyn", "cli.py")):
        print(f"error: {root} holds no infodyn sources (src/infodyn); "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as workdir:
        if args.trace:
            result = _spawn(args, root, workdir, "--trace")
        else:
            setups = [_spawn(args, root, workdir, "--probe")["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            result = _spawn(args, root, workdir)
            setups.append(result["setup_s"])

    problems = trace_problems(result) if args.trace else []
    records = result["plain"] + result.get("traced", [])
    problems += [p for r in records for p in r["problems"]]
    failed = sum(not r["ok"] for r in records)
    if args.trace:
        metrics, specs = per_layer(result), per_layer_metrics()
    else:
        metrics, specs = end_to_end(setups, result), END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"python {platform.python_version()}  numpy {result['numpy']}  "
          f"nproc {os.cpu_count()}  BLAS threads 1")
    print(f"invocations {len(result['plain'])} untraced"
          + (f", {len(result['traced'])} traced" if args.trace else "")
          + f"; failed {failed}; failed_frac {failed / len(records):.4g}")
    if not args.trace:
        print(f"run_p50_s is the median of {len(result['plain'])} invocations; "
              f"setup_s the median of {SETUP_SAMPLES} processes")
    print(f"artifact digest {_workload_digest(result['plain'])}")
    for name, digest in sorted(result["plain"][0]["digests"].items()):
        print(f"  invocation 0  {name}  sha256 {digest}")
    for name, unit, better in specs:
        print(f"{name:48s} {metrics[name]:>16.6g} {unit:16s} ({better} is better)")
    for problem in problems:
        print(f"FAILED: {problem}")

    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
