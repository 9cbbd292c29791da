"""One benchmark process: set up, run a workload's invocations, report as JSON.

Started by run.py with the checkout root; imports infodyn from the
checkout's ``src/`` and drives it only through ``infodyn.cli.run(config,
outdir, seed)``.  Set-up (interpreter start, imports, config generation,
warm-up) is timed from the moment the parent spawned the process.  With
``--probe`` the process stops after set-up; with ``--trace`` it runs the
invocations untraced, then again traced, and compares the artifacts.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import checks
import tracing
import workloads


def _load_infodyn(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "infodyn", "cli.py")):
        raise SystemExit(f"error: no infodyn sources under {src}")
    sys.path.insert(0, src)
    import infodyn.cli
    if not os.path.abspath(infodyn.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: infodyn imported from {infodyn.cli.__file__}, not {src}")
    return infodyn.cli


def run_invocations(cli, invocations, workdir: str, label: str) -> list[dict]:
    """Time cli.run on each (experiment, seed, config path); check its outputs.

    Only the cli.run call is timed.  Each output directory is removed after
    it has been checked and hashed.
    """
    records = []
    for i, (experiment, seed, cfg_path) in enumerate(invocations):
        outdir = os.path.join(workdir, f"{label}-{i}")
        start = time.perf_counter()
        try:
            returned = cli.run(cfg_path, outdir, seed)
        except Exception:
            seconds = time.perf_counter() - start
            traceback.print_exc()
            records.append(dict(experiment=experiment, seconds=seconds, ok=False,
                                problems=["raised"], digests={}, bytes=0,
                                z_abs_max=0.0, z_rows=0))
            shutil.rmtree(outdir, ignore_errors=True)
            continue
        seconds = time.perf_counter() - start
        result = checks.check_outputs(outdir, returned)
        for problem in result.problems[:5]:
            print(f"invocation {label}-{i} ({experiment}, seed {seed}): {problem}",
                  file=sys.stderr)
        records.append(dict(experiment=experiment, seconds=seconds, ok=result.ok,
                            problems=result.problems[:5], digests=checks.digests(outdir),
                            bytes=result.artifact_bytes, z_abs_max=result.z_abs_max,
                            z_rows=result.z_rows))
        shutil.rmtree(outdir)
    return records


def _write_config(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, f"{name}.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True,
                        help="directory for configs and outputs, removed by the parent")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent when it spawned this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    cli = _load_infodyn(args.root)
    import numpy

    n_cycles = workloads.cycles(args.workload, args.seconds)
    if args.trace:
        # the traced run makes two passes, so each gets half the cycles
        n_cycles = (n_cycles + 1) // 2
    items = workloads.invocations(args.workload, args.seed, n_cycles)

    workdir = tempfile.mkdtemp(dir=args.workdir)
    invocations = [(experiment, seed, _write_config(workdir, f"config-{i}", text))
                   for i, (experiment, seed, text, _) in enumerate(items)]
    for experiment in dict.fromkeys(experiment for experiment, _, _ in invocations):
        text = workloads.config_text(workloads.WARMUP[experiment], 1)
        path = _write_config(workdir, f"warmup-{experiment}", text)
        cli.run(path, os.path.join(workdir, f"warmup-{experiment}"), 1)
    # CLOCK_MONOTONIC is system-wide on Linux, so this spans the process start
    setup_s = time.monotonic() - args.spawned
    result = dict(setup_s=setup_s, numpy=numpy.__version__)
    if not args.probe:
        result["plain"] = run_invocations(cli, invocations, workdir, "plain")
        result["replications"] = sum(reps for _, _, _, reps in items)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            try:
                result["traced"] = run_invocations(cli, invocations, workdir, "traced")
            finally:
                undo()
            result["spans"] = {name: [tracer.calls[name], tracer.self_s[name]]
                               for name in tracing.span_names()}
            result["counts"] = {name: tracer.counts[name] for name in tracing.COUNT_NAMES}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
