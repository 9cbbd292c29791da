"""Output checks applied to every invocation, and artifact digests.

An invocation passes when every artifact that manifest.json lists exists,
every numeric CSV cell is finite, and every Monte Carlo row with a positive
standard error lies within Z_MAX standard errors of its closed form.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# |mc - theory| / mc_se above this fails the invocation.  The Monte Carlo
# means are averages of 60 to 400 replications, so z is close to Student t;
# a run checks up to ~25000 rows, and P(|z| > 7) per row is about 3e-9 for
# t with 59 degrees of freedom, while a wrong closed form or a biased
# sampler gives z far beyond 7 on many rows at once.
Z_MAX = 7.0

MC_COLUMNS = (("mc_mean", "theory_mean"), ("mc_value", "theory_value"))


class CheckResult:
    def __init__(self):
        self.problems = []
        self.z_abs_max = 0.0
        self.z_rows = 0
        self.artifact_bytes = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _check_csv(path: str, result: CheckResult) -> None:
    name = os.path.basename(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        result.problems.append(f"{name}: empty")
        return
    header, body = rows[0], rows[1:]
    pair = next(((header.index(mc), header.index(th)) for mc, th in MC_COLUMNS
                 if mc in header and th in header), None)
    se_col = header.index("mc_se") if "mc_se" in header else None
    for lineno, row in enumerate(body, start=2):
        values = [_as_float(cell) for cell in row]
        bad = [header[i] if i < len(header) else str(i)
               for i, v in enumerate(values) if v is not None and not math.isfinite(v)]
        if bad:
            result.problems.append(f"{name}:{lineno}: non-finite {bad}")
            continue
        if pair is None or se_col is None:
            continue
        mc, th, se = values[pair[0]], values[pair[1]], values[se_col]
        if mc is None or th is None or se is None or se <= 0:
            continue
        z = abs(mc - th) / se
        result.z_rows += 1
        result.z_abs_max = max(result.z_abs_max, z)
        if z > Z_MAX:
            result.problems.append(f"{name}:{lineno}: |z| = {z:.2f} > {Z_MAX}")


def check_outputs(outdir: str, returned) -> CheckResult:
    """Check one invocation's output directory; `returned` is cli.run's list."""
    result = CheckResult()
    manifest_path = os.path.join(outdir, "manifest.json")
    try:
        with open(manifest_path) as fh:
            listed = json.load(fh)["artifacts"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.problems.append(f"manifest.json unreadable: {exc}")
        return result
    for name in sorted(set(listed) | set(returned) | {"manifest.json"}):
        path = os.path.join(outdir, name)
        if not os.path.isfile(path):
            result.problems.append(f"{name}: listed but missing")
            continue
        result.artifact_bytes += os.path.getsize(path)
        if name.endswith(".csv"):
            _check_csv(path, result)
    return result


def digests(outdir: str) -> dict[str, str]:
    """SHA-256 of every file in an output directory, by file name."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
