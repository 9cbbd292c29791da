#!/usr/bin/env python3
"""Run every experiment config in scripts/configs/ into out/<name>/.

Each config goes through the `infodyn` command line, so a bad config or
--seed prints `error: ...` and exits 2.
"""

import argparse
import os
import pathlib
import sys
import time

# one OpenBLAS thread, set before numpy loads OpenBLAS: at two threads the
# clustering SVD of a run can stall for a quarter of a second, and the
# outputs are the same bytes at one thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from infodyn import cli  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="base output directory")
    parser.add_argument("--seed", default=None, help="override every config seed")
    args = parser.parse_args()

    configs = sorted((pathlib.Path(__file__).parent / "configs").glob("*.cfg"))
    if not configs:
        print("no configs found", file=sys.stderr)
        return 1
    base = pathlib.Path(args.out)
    for cfg in configs:
        outdir = base / cfg.stem
        started = time.perf_counter()
        seed = [] if args.seed is None else ["--seed", args.seed]
        status = cli.main(["--config", str(cfg), "--out", str(outdir)] + seed)
        if status:
            return status
        print(f"{cfg.stem}: done in {time.perf_counter() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
