#!/usr/bin/env python3
"""Run every experiment config in scripts/configs/ into out/<name>/."""

import argparse
import pathlib
import sys
import time

from infodyn import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="base output directory")
    parser.add_argument("--seed", type=int, default=None, help="override every config seed")
    args = parser.parse_args()

    configs = sorted((pathlib.Path(__file__).parent / "configs").glob("*.cfg"))
    if not configs:
        print("no configs found", file=sys.stderr)
        return 1
    base = pathlib.Path(args.out)
    for cfg in configs:
        outdir = base / cfg.stem
        started = time.perf_counter()
        artifacts = cli.run(str(cfg), str(outdir), args.seed)
        print(f"{cfg.stem}: {len(artifacts)} artifacts in {outdir} "
              f"({time.perf_counter() - started:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
