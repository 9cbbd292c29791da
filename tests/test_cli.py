import ast
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infodyn import cli
from infodyn import filtering as flt
from infodyn import rng
from infodyn import sampling as smp
from infodyn import theory as th
from infodyn.simplex import self_information_rate, shahshahani_distance_sq
from conftest import infected

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "scripts" / "configs"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# SHA-256 of every file each shipped config writes at its own seed,
# manifest.json included, computed with numpy 2.4.6.  Any change to these
# bytes is an output change, to be declared in CHANGES.md with the new digests.
SHIPPED_DIGESTS = {
    "elbow_scan": {
        "elbow_curve.csv":
            "cf19d23ebc82aa9ba0767bd9a992b23462b66f769eef03d65a92636068a848e6",
        "elbow_summary.csv":
            "54b9750212b1b94adb6be5152e187bc0baffbd75489e1b7cbcf792bfd6bf3f83",
        "manifest.json":
            "b56e334398be0cd5e6f71f2d49644a3cb0a458f200c58efcd2473e76ea8fef9e",
    },
    "filtering_comparison": {
        "filtering_rmse.csv":
            "0fc17b08451dbb636a7335f0e7da545addb0c5e1f5d011f1759d509f43369126",
        "manifest.json":
            "79dfcf655bb27738a1b95cb75d30b86b8c0ce8210737b86f0271d0bbcb01290e",
    },
    "fisher_bias_vs_n": {
        "distance_moments.csv":
            "ee7d68fd0599a8c0c79b1822c9b5a432ec3a63f099e0b06de94a53665e65ecd9",
        "fisher_bias_vs_t.csv":
            "4f24bd9fdbf034c17791687c06f7ff532988fc84a6d3a239973d662e8ceaf764",
        "manifest.json":
            "0f44fea2837e9e4cc637a45541664242f016c1bb3a127659a423f690d235dbcc",
    },
    "fisher_bias_vs_t": {
        "distance_moments.csv":
            "f9ddab0248b79d647ff3485550af49180954714ed5c33d2c4e4e5b7b1637623b",
        "fisher_bias_vs_t.csv":
            "25e01007dd936c4dcab7465042b42ae84fc95436597b585cb34e3e755e06af70",
        "manifest.json":
            "699d5b723344d520cb22d7bd3f8b9d3926924f993d8ba6568cb81a9bff339ed7",
    },
    "info_rate_moments": {
        "clustering.csv":
            "00b98abb8565694bb0eca1d1dddcf1c72d7c603f09315fa133100c5261f02276",
        "info_rate_clusters.csv":
            "ac1312c23f33c486bcc72a944886c4e84f363ae3d78fe0e3b4448de52f1ce13b",
        "info_rate_variants.csv":
            "e6da1002c24c5b781ea5ddc0952a1c7224b949e854368aa22b0b6a81f3b13b5b",
        "manifest.json":
            "457f1c4284ce822a110d0a4cd6c6b18da55b967efb37ce32caefd1e072b9a0b7",
    },
    "model_trajectory": {
        "fisher.csv":
            "4fd3bdef8300ce91f2927bd92eb3fdcec54f9361bc7b0bab3013804331d0b307",
        "manifest.json":
            "72bf0d16579131676370d00bb3da4b0ec9bf4e1c74157e8309bbf13c2ecf124f",
        "trajectory.csv":
            "89653cad3430e00d9832e11d342f6a6780d8e8c77e4586a6288f9dea117acb72",
        "variants.csv":
            "d5895847812ed635f928a0e9b1c253f8b1f5b2b837f2be2bacb6fe22fd069fb2",
    },
}


# Shipped files that hold no model-derived or closed-form number (the rates
# of variants.csv are set, not integrated); SAMPLED_DIGESTS pins them whole.
MODEL_FREE = {"clustering.csv", "variants.csv", "elbow_summary.csv", "manifest.json"}

# SHA-256 of the random half of each shipped output, from sampled_bytes: the
# mc_* columns of each CSV, and the model-free files whole.  A declared
# change of the model numbers leaves these; a moved multinomial count does not.
SAMPLED_DIGESTS = {
    "elbow_scan": {
        "elbow_summary.csv":
            "54b9750212b1b94adb6be5152e187bc0baffbd75489e1b7cbcf792bfd6bf3f83",
        "manifest.json":
            "b56e334398be0cd5e6f71f2d49644a3cb0a458f200c58efcd2473e76ea8fef9e",
    },
    "filtering_comparison": {
        "manifest.json":
            "79dfcf655bb27738a1b95cb75d30b86b8c0ce8210737b86f0271d0bbcb01290e",
    },
    "fisher_bias_vs_n": {
        "distance_moments.csv":
            "82b48bf824c87f8d14e8c2654f5af2153a9277ed74acb5eccf7fb283c0f9535a",
        "fisher_bias_vs_t.csv":
            "3a7735e22ff8d4259785b7c9827944178ef87efe84fe09c70e40d51353fee072",
        "manifest.json":
            "0f44fea2837e9e4cc637a45541664242f016c1bb3a127659a423f690d235dbcc",
    },
    "fisher_bias_vs_t": {
        "distance_moments.csv":
            "a38c928aaf10146ec69b5f674d0413538f083118934762460eda1761c93503c7",
        "fisher_bias_vs_t.csv":
            "003d3ac93120c79ee55828f6070283268a8744ba23ae2d1bbe0bbff44c6a52c3",
        "manifest.json":
            "699d5b723344d520cb22d7bd3f8b9d3926924f993d8ba6568cb81a9bff339ed7",
    },
    "info_rate_moments": {
        "clustering.csv":
            "00b98abb8565694bb0eca1d1dddcf1c72d7c603f09315fa133100c5261f02276",
        "info_rate_clusters.csv":
            "ebfe6ee89a87a643560b9d061f24f6b6e2a52f6ded12087572d7b1ad75cc3a17",
        "info_rate_variants.csv":
            "a464fd56625a6522a0006dd819a21687d6b0eeba149878e5480004660bd4a311",
        "manifest.json":
            "457f1c4284ce822a110d0a4cd6c6b18da55b967efb37ce32caefd1e072b9a0b7",
    },
    "model_trajectory": {
        "manifest.json":
            "72bf0d16579131676370d00bb3da4b0ec9bf4e1c74157e8309bbf13c2ecf124f",
        "variants.csv":
            "d5895847812ed635f928a0e9b1c253f8b1f5b2b837f2be2bacb6fe22fd069fb2",
    },
}


def sampled_bytes(name, blob):
    """The bytes of a shipped file that no model number reaches, or None."""
    if name in MODEL_FREE:
        return blob
    rows = [line.split(",") for line in blob.decode().splitlines()]
    cols = [j for j, key in enumerate(rows[0]) if key.startswith("mc_")]
    if not cols:
        return None
    return "\n".join(",".join(row[j] for j in cols) for row in rows).encode()


def load_perfbench(name):
    """A module of perfbench/, which is not a package."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the model of a quick fisher-bias-vs-t run: 4 variants, 5 instants, 2 clusters
SMALL_MODEL = "N = 3\nt_end = 1\nell = 2\n"


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_all(outdir):
    blobs = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


class TestConfigParsing:
    def test_basic(self):
        cfg = cli.parse_config("experiment = fisher-bias-vs-t\nn = 10,20 # desk\n")
        assert cfg == {"experiment": "fisher-bias-vs-t", "n": "10,20"}

    def test_rejects_unknown_key(self):
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.parse_config("experiment = info-rate-moments\nbogus = 1\n")

    def test_rejects_missing_experiment(self):
        with pytest.raises(cli.ConfigError, match="experiment"):
            cli.parse_config("n = 10\n")

    def test_rejects_malformed_line(self):
        with pytest.raises(cli.ConfigError, match="line 1"):
            cli.parse_config("just some words\n")

    def test_list_values(self):
        assert cli._int_list("10, 20") == [10, 20]
        for text in (" , ", "10, 20,", "100,,1000", ",5"):
            with pytest.raises(ValueError, match="empty entry"):
                cli._int_list(text)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_is_valid(self, path):
        cfg = cli.parse_config(path.read_text())  # rejects unknown keys
        assert set(cfg) <= cli.EXPERIMENTS[cfg["experiment"]][1]

    def test_every_experiment_has_a_shipped_config(self):
        names = {cli.parse_config(p.read_text())["experiment"] for p in CONFIGS.glob("*.cfg")}
        assert names == set(cli.EXPERIMENTS)

    def test_shipped_configs_set_every_key_read(self):
        # a key comes with a shipped run that sets it, so the pinned digests
        # cover it; the model keys and the seed keep their defaults there
        shipped = {}
        for path in CONFIGS.glob("*.cfg"):
            cfg = cli.parse_config(path.read_text())
            shipped.setdefault(cfg["experiment"], set()).update(cfg)
        assert set(shipped) == set(cli.EXPERIMENTS)
        free = {"experiment", "seed", *cli._MODEL_KEYS}
        unset = {name: sorted(keys - free - shipped[name])
                 for name, (_, keys) in cli.EXPERIMENTS.items()}
        assert {name: keys for name, keys in unset.items() if keys} == {}

    def test_library_inputs_are_passed_by_some_call(self):
        # the library counterpart of the test above: every optional
        # parameter (a default or a *args) of a public function, class or
        # method of an infodyn module is passed by some call in src/ or
        # scripts/, so a run can reach what it changes; calls are matched by
        # the callee's name alone
        calls = {}
        for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    passed = (math.inf if starred else len(node.args),
                              {k.arg for k in node.keywords})
                    calls.setdefault(name, []).append(passed)

        def optional(fn, skip):
            """(name, position) of each optional parameter of fn; the
            position of a keyword-only one is inf, of the first of *args
            its own index."""
            args = fn.args
            positional = args.posonlyargs + args.args
            params = [(a.arg, i - skip) for i, a in enumerate(positional)
                      if i >= len(positional) - len(args.defaults)]
            params += [(a.arg, math.inf) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            if args.vararg:
                params.append(("*" + args.vararg.arg, len(positional) - skip))
            return params

        unpassed = []
        for path in (ROOT / "src" / "infodyn").glob("*.py"):
            for node in ast.parse(path.read_text()).body:
                public = not getattr(node, "name", "_").startswith("_")
                if isinstance(node, ast.FunctionDef) and public:
                    functions = [(node.name, node, 0)]
                elif isinstance(node, ast.ClassDef) and public:
                    functions = [(node.name if fn.name == "__init__" else fn.name, fn, 1)
                                 for fn in node.body if isinstance(fn, ast.FunctionDef)
                                 and (fn.name == "__init__" or not fn.name.startswith("_"))]
                else:
                    continue
                for name, fn, skip in functions:
                    for param, position in optional(fn, skip):
                        if not any(count > position or param in keywords
                                   for count, keywords in calls.get(name, [])):
                            unpassed.append(f"{path.stem}.{name}({param})")
        assert unpassed == []

    def test_model_keys_are_set_by_some_run(self):
        # a model key comes with a shipped config, benchmark workload or
        # warm-up that sets it; dt, the sampling step of every closed form,
        # may keep its default everywhere
        wl = load_perfbench("workloads")
        runs = [cli.parse_config(path.read_text()) for path in CONFIGS.glob("*.cfg")]
        runs += [cfg for cycle, _ in wl.WORKLOADS.values() for cfg in cycle]
        runs += wl.WARMUP.values()
        assert set(cli._MODEL_KEYS) - {"dt"} - set().union(*runs) == set()

    def test_benchmark_configs_are_accepted(self):
        # every config the benchmark sends, cycles and warm-ups, sets only
        # keys its experiment reads; a removed key fails here, not in a
        # benchmark run
        wl = load_perfbench("workloads")
        sent = [cfg for cycle, _ in wl.WORKLOADS.values() for cfg in cycle]
        sent += wl.WARMUP.values()
        for cfg in sent:
            parsed = cli.parse_config(wl.config_text(cfg, 1))
            assert set(parsed) <= cli.EXPERIMENTS[parsed["experiment"]][1], cfg


class TestRunner:
    def test_unknown_experiment(self, tmp_path):
        cfg = write_cfg(tmp_path, "experiment = no-such-thing\n")
        with pytest.raises(cli.ConfigError, match="valid"):
            cli.run(cfg, str(tmp_path / "out"))

    def test_exit_codes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = no-such-thing\n")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["out", "out-below-a-file", "config"])
    def test_file_system_error_names_the_path(self, tmp_path, capsys, monkeypatch, bad):
        # --out an existing regular file or a path below one, --config a
        # directory: no traceback; an --out below a file is refused, and the
        # file kept, before a long experiment runs
        def fail(*args):
            raise AssertionError("the experiment was called")

        _, keys = cli.EXPERIMENTS["fisher-bias-vs-t"]
        monkeypatch.setitem(cli.EXPERIMENTS, "fisher-bias-vs-t", (fail, keys))
        cfg = write_cfg(tmp_path, "experiment = fisher-bias-vs-t\ncount = 41\n"
                                  "replications = 50\n")
        out = tmp_path / "out"
        flag = out
        if bad == "config":
            cfg = path = str(tmp_path / "configs")
            os.mkdir(cfg)
        else:
            out.write_text("kept\n")
            path = str(out)
            if bad == "out-below-a-file":
                flag = out / "sub" / "dir"
        assert cli.main(["--config", cfg, "--out", str(flag)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(path) in err
        assert not out.is_dir()  # no output directory, so no artifact
        if bad == "out":
            assert err == f"error: --out {path!r} exists and is not a directory\n"
        elif bad == "out-below-a-file":
            assert err == (f"error: --out {str(flag)!r} lies below {path!r}, "
                           "which is not a directory\n")
        if bad != "config":
            assert out.read_text() == "kept\n"

    def test_manifest_contents(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = fisher-bias-vs-t\n" + SMALL_MODEL + "n = 100\nreplications = 50\n"
            "seed = 9\n",
        )
        out = tmp_path / "out"
        artifacts = cli.run(cfg, str(out))
        assert "manifest.json" in artifacts
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "fisher-bias-vs-t"
        assert manifest["seed"] == 9
        assert manifest["artifacts"] == ["distance_moments.csv", "fisher_bias_vs_t.csv"]
        assert len(manifest["config_sha256"]) == 64

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = fisher-bias-vs-t\n" + SMALL_MODEL + "n = 200\nreplications = 50\n"
            "seed = 1\n",
        )
        cli.run(cfg, str(tmp_path / "a"))
        cli.run(cfg, str(tmp_path / "b"), seed_override=2)
        a = (tmp_path / "a" / "distance_moments.csv").read_bytes()
        b = (tmp_path / "b" / "distance_moments.csv").read_bytes()
        assert a != b
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest["seed"] == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = fisher-bias-vs-t\nn = 2000\ncount = 3\nreplications = 60\nseed = 5\n",
        )
        cli.run(cfg, str(tmp_path / "a"))
        cli.run(cfg, str(tmp_path / "b"))
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    @pytest.mark.parametrize(
        "experiment", ["fisher-bias-vs-t", "filtering-comparison", "info-rate-moments"])
    def test_empty_list_rejected(self, tmp_path, capsys, experiment):
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\nn = ,\n")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "bad value for 'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["filtering-comparison"])
    def test_single_n_rejects_list(self, tmp_path, capsys, experiment):
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\nn = 1000,5\n")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "bad value for 'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ("experiment = filtering-comparison\ncount = 1\n", "sampling instants"),
        ("experiment = model-trajectory\nell = 20\n", "n_clusters"),
        ("experiment = elbow-scan\ngroups = 50\n", "no elbow"),
        ("experiment = model-trajectory\ns0 = 1.05\n", "unknown key 's0'"),
        ("experiment = model-trajectory\ndt = 0\n", "bad value for 'dt'"),
        ("experiment = model-trajectory\nfine_step = nan\n", "unknown key 'fine_step'"),
        ("experiment = model-trajectory\nt_end = inf\n", "bad value for 't_end'"),
        ("experiment = model-trajectory\noutput_stride = 2\n", "unknown key 'output_stride'"),
        ("experiment = info-rate-moments\nt = 1.9\n",
         "bad value for 't': t - dt/2 = 1.775 and t + dt/2 = 2.025 must lie in [0, t_end = 2]"),
        ("experiment = filtering-comparison\nshape = 0.5\n", "unknown key 'shape'"),
        ("experiment = filtering-comparison\nhalf_width = 3\n", "unknown key 'half_width'"),
        # the kernel's offsets past count - 1 reach no further instant
        ("experiment = filtering-comparison\ncount = 3\n",
         "bad value for 'count': 3 sampling instants do not exceed the Gaussian kernel's "
         "half width 3"),
        ("experiment = fisher-bias-vs-t\nn = 0\n", "bad value for 'n'"),
        ("experiment = info-rate-moments\nn = 0\n", "bad value for 'n'"),
        ("experiment = model-trajectory\nN = 0\n", "bad value for 'N'"),
        ("experiment = model-trajectory\nN = -3\n", "bad value for 'N'"),
        ("experiment = fisher-bias-vs-t\nreplications = 1\n", "bad value for 'replications'"),
        ("experiment = fisher-bias-vs-t\ncount = 1\n", "bad value for 'count'"),
        ("experiment = model-trajectory\nell = 0\n", "bad value for 'ell'"),
        ("experiment = elbow-scan\nell = 0,4,5,6\n", "bad value for 'ell'"),
        ("experiment = elbow-scan\ngroups = 9,0\n", "bad value for 'groups'"),
        ("experiment = model-trajectory\ngroups = 1\n",
         "bad value for 'groups': '1' (need at least 2 variants)"),
        ("experiment = model-trajectory\nN = 3\ngamma = nan,1,1,1\n", "unknown key 'gamma'"),
        ("experiment = model-trajectory\nepsilon = 1,1,-1,1,1,1,1,1,1,1\n",
         "unknown key 'epsilon'"),
        ("experiment = model-trajectory\nN = 1\ni0 = 0.05,inf\n", "unknown key 'i0'"),
        ("experiment = model-trajectory\nr0 = -1\n", "unknown key 'r0'"),
        ("experiment = info-rate-moments\nt = inf\n", "bad value for 't'"),
        ("experiment = elbow-scan\nt = nan\n", "bad value for 't'"),
        ("experiment = elbow-scan\nt = 20\n",
         "bad value for 't': t = 20.0 must lie in [0, t_end = 2]"),
        # more than a relative 1e-9 after t_end
        ("experiment = elbow-scan\nt = 2.0000001\n",
         "bad value for 't': t = 2.0000001 must lie in [0, t_end = 2]"),
        ("experiment = filtering-comparison\nt0 = -1\n", "bad value for 't0'"),
        ("experiment = info-rate-moments\nt = 100\n",
         "bad value for 't': t - dt/2 = 99.875 and t + dt/2 = 100.125 must lie in [0, t_end = 2]"),
        # 5e-13 after t_end, within an absolute 1e-12 of it
        ("experiment = elbow-scan\ndt = 1e-12\nt_end = 1e-11\nt = 1.05e-11\n",
         "bad value for 't': t = 1.05e-11 must lie in [0, t_end = 1e-11]"),
        ("experiment = filtering-comparison\nt0 = 1.9\n",
         "bad value for 't0': 1.9 is less than one step dt = 0.25 before t_end = 2.0"),
        ("experiment = filtering-comparison\nt0 = 3\n", "bad value for 't0'"),
        ("experiment = elbow-scan\ngroups = 9,9\nN = 20\n",
         "keys 'groups' and 'N' cannot both be set"),
        ("experiment = elbow-scan\nN = 3\n",
         "bad value for 'ell': 5 clusters for 4 variants"),
        ("experiment = elbow-scan\nell = 4,5,6\n", "bad value for 'ell'"),
        ("experiment = elbow-scan\nell = 4,6,5,7\n", "bad value for 'ell'"),
        ("experiment = elbow-scan\ngroups = 2,2,2\nell = 4,5,6,7\n",
         "bad value for 'ell': 7 clusters for 6 variants"),
        ("experiment = info-rate-moments\nN = 3\nell = 5\n",
         "bad value for 'ell': 5 clusters for 4 variants"),
        ("experiment = fisher-bias-vs-t\np = 0.1,0.2,0.3,0.4\n", "unknown key 'p'"),
        ("experiment = info-rate-moments\nt = 0\n", "bad value for 't'"),
        ("experiment = info-rate-moments\nt = 2\n", "bad value for 't'"),
        ("experiment = fisher-bias-vs-t\ncount = 100\n",
         "bad value for 'count': 100 instants from t0 = 0.0 at step dt = 0.25 end at 24.75"),
        ("experiment = filtering-comparison\nt0 = 1\ncount = 6\n", "bad value for 'count'"),
        # any t0 is a sampling instant; 31 of them from 0.01 do not fit
        ("experiment = filtering-comparison\nt0 = 0.01\n",
         "bad value for 'count': 31 instants from t0 = 0.01 at step dt = 0.25 end at 7.51, "
         "after t_end = 2.0 (at most 8 fit)"),
        ("experiment = filtering-comparison\nt0 = 1.76\ncount = 5\n",
         "bad value for 't0': 1.76 is less than one step dt = 0.25 before t_end = 2.0"),
        ("experiment = filtering-comparison\nt = 3\n",
         "key 't' is not read by experiment 'filtering-comparison'"),
        ("experiment = model-trajectory\nn = 100\n",
         "key 'n' is not read by experiment 'model-trajectory'"),
        # fisher-bias-vs-n is now a config of fisher-bias-vs-t: a config that
        # names it is refused by its experiment, before its keys are looked at
        ("experiment = fisher-bias-vs-n\nell = 3\n",
         "unknown experiment 'fisher-bias-vs-n'"),
        ("experiment = fisher-bias-vs-t\nt = 3\nell = 4\n",
         "key 't' is not read by experiment 'fisher-bias-vs-t'"),
        ("experiment = info-rate-moments\ncount = 4\n",
         "key 'count' is not read by experiment 'info-rate-moments'"),
        ("experiment = filtering-comparison\nreplications = 10\n",
         "key 'replications' is not read by experiment 'filtering-comparison'"),
        ("experiment = elbow-scan\ncount = 5\n",
         "key 'count' is not read by experiment 'elbow-scan'"),
        ("experiment = info-rate-moments\nt0 = 1\n",
         "key 't0' is not read by experiment 'info-rate-moments'"),
        # theory-vs-mc's comparisons are rows of the other Monte Carlo tables
        ("experiment = theory-vs-mc\nell = 3\n", "unknown experiment 'theory-vs-mc'"),
        # fisher-bias-vs-t clusters into ell = 3 by default, more than N + 1 = 2
        ("experiment = fisher-bias-vs-t\nN = 1\n",
         "bad value for 'ell': 3 clusters for 2 variants"),
        ("experiment = model-trajectory\nt0 = 1\n",
         "key 't0' is not read by experiment 'model-trajectory'"),
        ("experiment = model-trajectory\ncount = 4\n",
         "key 'count' is not read by experiment 'model-trajectory'"),
        ("experiment = fisher-bias-vs-t\nt0 = -1\n", "bad value for 't0'"),
        # an unread key is rejected before its value is read
        ("experiment = model-trajectory\nt0 = -1\n",
         "key 't0' is not read by experiment 'model-trajectory'"),
        ("experiment = fisher-bias-vs-t\nn = 100,,1000\n",
         "bad value for 'n': '100,,1000' (empty entry"),
        # t_end set after the key, so that no line is added before it
        ("experiment = fisher-bias-vs-t\nn = 100\nn = 200\nt_end = 2\n",
         "line 3: key 'n' is already set on line 2"),
        ("experiment = elbow-scan\nt_end = 0.2\nt = 0.1\n",
         "bad value for 't_end': 0.2 is less than one sampling step dt = 0.25"),
        ("experiment = fisher-bias-vs-t\nt_end = 0.2\n",
         "bad value for 't_end': 0.2 is less than one sampling step dt = 0.25"),
        # a t_end shorter than one sampling step, refused before integrating
        ("experiment = info-rate-moments\nt_end = 1e-300\n",
         "bad value for 't_end': 1e-300 is less than one sampling step dt = 0.25"),
        ("experiment = fisher-bias-vs-t\nt_end = 10\ndt = 1e300\n",
         "bad value for 't_end': 10.0 is less than one sampling step dt = 1e+300"),
        ("experiment = filtering-comparison\nn = 9223372036854775808\n",
         "bad value for 'n': '9223372036854775808' (must be an integer in [1, 2**63))"),
        ("experiment = fisher-bias-vs-t\nn = 100,9223372036854775808\n",
         "bad value for 'n'"),
        # a t_end past dynamics.MAX_TIME, refused as it is read
        ("experiment = elbow-scan\nt_end = 1e300\n",
         "bad value for 't_end': 1e+300 is past MAX_TIME: times must be at most 2048"),
        ("experiment = elbow-scan\nt_end = 1e308\n",
         "bad value for 't_end': 1e+308 is past MAX_TIME: times must be at most 2048"),
        # ... and a t past it, though within 1e-9 of t_end, as a bad t
        ("experiment = elbow-scan\nt_end = 2048\nt = 2048.000001\n",
         "bad value for 't': t = 2048.000001 must lie in [0, t_end = 2048]"),
        ("experiment = info-rate-moments\nt_end = 2048\nt = 2047.875000001\n",
         "bad value for 't': t - dt/2 = 2047.750000001 and t + dt/2 = 2048.000000001 must "
         "lie in [0, t_end = 2048]"),
        # more times than numpy can allocate, refused before integrating, for
        # the step of the grid that has too many: model-trajectory's every
        # dt/10, or the sampling grid every dt
        ("experiment = model-trajectory\ndt = 1e-300\n",
         "bad value for 'dt': steps of 1e-301 from 0 to t_end = 2 are 2e+301 times, more "
         "than an array can hold"),
        ("experiment = model-trajectory\ndt = 1e-17\n",
         "bad value for 'dt': steps of 1e-18 from 0 to t_end = 2 are 2e+18 times, more "
         "than an array can hold"),
        ("experiment = elbow-scan\ndt = 1e-300\n",
         "bad value for 'dt': steps of 1e-300 from 0 to t_end = 2 are 2e+300 times, more "
         "than an array can hold"),
        # ... also where t_end / dt overflows to inf, or dt/10 underflows to 0
        ("experiment = model-trajectory\nt_end = 10\ndt = 1e-308\n",
         "bad value for 'dt': steps of 1e-309 from 0 to t_end = 10 are inf times"),
        ("experiment = model-trajectory\ndt = 5e-324\n",
         "bad value for 'dt': steps of 0 from 0 to t_end = 2 are inf times"),
        ("experiment = model-trajectory\ndt = 1e-323\nt_end = 1e-322\n",
         "bad value for 'dt': steps of 0 from 0 to t_end = 9.88131e-323 are inf times"),
        # a count of instants needs no grid, but instants that round to one
        # time are refused
        ("experiment = filtering-comparison\ndt = 1e-300\nt_end = 10\n",
         "bad value for 'dt': instants 1e-300 apart from t0 = 2.5 round to equal times"),
    ])
    def test_bad_input_writes_no_artifact(self, tmp_path, capsys, text, error):
        if "t_end" not in text:
            text = "t_end = 2\n" + text  # a short model
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, key, value, error", [
        # every key read through a range converter, at the first value outside
        # its range; a float key also at NaN, inf and -0.0 where -0.0 is outside
        *(("model-trajectory", key, value, "must be positive and finite")
          for key in ("dt", "t_end") for value in ("0", "-0.0", "nan", "inf", "-inf")),
        *((experiment, key, value, "must be a finite time of at least 0")
          for experiment, key in (("fisher-bias-vs-t", "t0"), ("filtering-comparison", "t0"),
                                  ("info-rate-moments", "t"), ("elbow-scan", "t"))
          for value in ("-5e-324", "nan", "inf")),
        ("fisher-bias-vs-t", "seed", "-1", "must lie in [0, 2**64)"),
        ("fisher-bias-vs-t", "seed", "18446744073709551616", "must lie in [0, 2**64)"),
        *((experiment, key, value, "must be an integer in [1, 2**63)")
          for experiment, key, values in (
              ("fisher-bias-vs-t", "n", ("0", "100,0", "9223372036854775808", "1,0")),
              ("info-rate-moments", "n", ("0,1",)),
              ("filtering-comparison", "n", ("0", "9223372036854775808")),
              ("model-trajectory", "groups", ("9,0", "9223372036854775808,1")))
          for value in values),
        ("model-trajectory", "N", "0", "N must be at least 1"),
        ("info-rate-moments", "replications", "1", "replications must be at least 2"),
        ("fisher-bias-vs-t", "replications", "1", "replications must be at least 2"),
        ("model-trajectory", "ell", "0", "cluster count must be at least 1"),
        ("info-rate-moments", "ell", "0", "cluster count must be at least 1"),
        ("fisher-bias-vs-t", "count", "1", "number of sampling instants must be at least 2"),
        ("filtering-comparison", "count", "1", "number of sampling instants must be at least 2"),
        # a value that is no number keeps the parser's own message
        ("model-trajectory", "N", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("model-trajectory", "dt", "x", "could not convert string to float: 'x'"),
    ])
    def test_range_converter_refuses(self, tmp_path, capsys, experiment, key, value, error):
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\n{key} = {value}\n")
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: bad value for {key!r}: {value!r} ({error})\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, error", [
        # the value just inside each range passes its converter: a run either
        # completes or is refused by a later check, which names its own reason
        ("experiment = model-trajectory\nt_end = 2\ndt = 5e-324\n",
         "bad value for 'dt': steps of 0 from 0 to t_end = 2 are inf times, more than an "
         "array can hold; the step is dt/10 for dt = 5e-324"),
        ("experiment = fisher-bias-vs-t\nt_end = 5e-324\n",
         "bad value for 't_end': 5e-324 is less than one sampling step dt = 0.25"),
        ("experiment = fisher-bias-vs-t\nt_end = 2\ndt = 1.7976931348623157e308\n",
         "bad value for 't_end': 2.0 is less than one sampling step dt = 1.7976931348623157e+308"),
        # model-trajectory also builds a grid of step dt/10, but names the dt it was given
        ("experiment = model-trajectory\nt_end = 5e-324\n",
         "bad value for 't_end': 5e-324 is less than one sampling step dt = 0.25"),
        ("experiment = model-trajectory\nt_end = 2\ndt = 1.7976931348623157e308\n",
         "bad value for 't_end': 2.0 is less than one sampling step dt = 1.7976931348623157e+308"),
        ("experiment = model-trajectory\ndt = 1e-17\n",
         "bad value for 'dt': steps of 1e-18 from 0 to t_end = 10 are 1e+19 times, more than an "
         "array can hold; the step is dt/10 for dt = 1e-17"),
        ("experiment = model-trajectory\nt_end = 2\nN = 1\nell = 1\n", None),
        ("experiment = model-trajectory\nt_end = 2\ngroups = 1,1\nell = 1\n", None),
        ("experiment = fisher-bias-vs-t\nt_end = 2\ncount = 2\nN = 1\nell = 1\n"
         "n = 1,9223372036854775807\nreplications = 2\nseed = 18446744073709551615\n", None),
        ("experiment = fisher-bias-vs-t\nt_end = 2\ncount = 2\nN = 1\nell = 1\nn = 100\n"
         "replications = 2\nseed = 0\n", None),
        # -0.0 is the time 0
        ("experiment = fisher-bias-vs-t\nt_end = 2\nt0 = -0.0\ncount = 2\nn = 1\n"
         "replications = 2\nN = 1\nell = 1\n", None),
        ("experiment = elbow-scan\nt_end = 2\nt = -0.0\n", None),
        ("experiment = info-rate-moments\nt_end = 2\nt = -0.0\n",
         "bad value for 't': t - dt/2 = -0.125 and t + dt/2 = 0.125 must lie in [0, t_end = 2]"),
        ("experiment = filtering-comparison\nt_end = 2\nt0 = 0\nn = 9223372036854775807\n"
         "count = 2\n",
         "bad value for 'count': 2 sampling instants do not exceed the Gaussian kernel's "
         "half width 3"),
    ])
    def test_range_converter_accepts_the_boundary(self, tmp_path, capsys, text, error):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        code = cli.main(["--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        if error is None:
            assert (code, err) == (0, "")
            seed = cli.parse_config(text).get("seed", "1")
            assert json.loads((out / "manifest.json").read_text())["seed"] == int(seed)
        else:
            assert (code, err) == (2, f"error: {error}\n")

    @pytest.mark.parametrize("text, key", [
        ("experiment = info-rate-moments\nt = 100\n", "t"),
        ("experiment = info-rate-moments\nt = 0\n", "t"),
        ("experiment = elbow-scan\nt = 20\n", "t"),
        ("experiment = filtering-comparison\nN = 99999\ncount = 400\n", "count"),
        ("experiment = fisher-bias-vs-t\nt0 = 9.9\n", "t0"),
        ("experiment = fisher-bias-vs-t\ncount = 100\n", "count"),
        ("experiment = fisher-bias-vs-t\nt_end = 0.2\n", "t_end"),
        ("experiment = model-trajectory\nt_end = 0.2\n", "t_end"),
        ("experiment = model-trajectory\ndt = 5e-324\n", "dt"),
        ("experiment = info-rate-moments\nN = 999\ndt = 5e-324\n", "dt"),
        ("experiment = elbow-scan\nt_end = 1e308\n", "t_end"),
        ("experiment = fisher-bias-vs-t\nN = 999\nt_end = 1e308\n", "t_end"),
        ("experiment = filtering-comparison\nN = 999\nt0 = 1.9\nt_end = 2\n", "t0"),
        ("experiment = fisher-bias-vs-t\nt0 = 1.9\nt_end = 2\n", "t0"),
        # within 1e-9 of t_end but past MAX_TIME
        ("experiment = elbow-scan\nt_end = 2048\nt = 2048.000001\n", "t"),
        ("experiment = info-rate-moments\nt_end = 2048\nt = 2047.875000001\n", "t"),
    ])
    def test_time_keys_are_checked_before_integrating(self, tmp_path, capsys, monkeypatch,
                                                      text, key):
        # dt, t_end and the time keys fix every time a run asks for, so a
        # time outside [0, t_end], instants that do not fit before it, or more
        # times than an array holds are refused before solve_sir runs, on
        # one line with no traceback
        def fail(*args):
            raise AssertionError("solve_sir was called")

        monkeypatch.setattr(cli.dyn, "solve_sir", fail)
        if "t_end" not in text:
            text += "t_end = 10\n"
        out = tmp_path / "out"
        assert cli.main(["--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for '{key}'") and err.count("\n") == 1, err
        assert not out.exists()

    def test_t_within_1e9_of_t_end_runs(self, tmp_path):
        # the bound at MAX_TIME refuses no t that t_end's relative 1e-9 allows
        # below it
        text = "experiment = elbow-scan\nt_end = 2\nt = 2.000000001\n"
        out = tmp_path / "out"
        assert cli.main(["--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        assert (out / "elbow_summary.csv").exists()

    def test_coarse_dt_runs_and_conserves(self, tmp_path):
        # an output step dt/10 = 2, longer than the first series steps of the
        # integrator
        text = "experiment = model-trajectory\ndt = 20\nt_end = 100\n"
        out = tmp_path / "out"
        assert cli.main(["--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        params, dt, t_end = cli._model(cli.parse_config(text))
        traj = cli.dyn.solve_sir(params, cli._instants(dt / 10, t_end))
        assert traj.times.size == 51
        drift = traj.susceptible + infected(traj).sum(axis=1) + traj.recovered - 1.0
        assert np.max(np.abs(drift)) <= 4e-15

    @pytest.mark.parametrize("model, key", [("", "N"), ("groups = 2,3\n", "groups")],
                             ids=["N", "groups"])
    def test_integration_error_names_the_rates(self, tmp_path, capsys, monkeypatch, model, key):
        # a series step below MIN_STEP: the rates set the series steps, so
        # the error names the key of the rates
        monkeypatch.setattr(cli.dyn, "STEP_TOL", 1e-300)
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "experiment = model-trajectory\nt_end = 2\n" + model)
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad value for '{key}': the rates of its variants cannot "
                              "be integrated, and 'dt' and 't_end' do not change the series "
                              "steps: series step ")
        assert err.endswith(" < MIN_STEP = 0.025 at t=0: the truncation estimate of a longer "
                            "one exceeds 1e-300\n")
        assert not out.exists()

    def test_time_past_max_time_exits_2_at_once(self, tmp_path):
        # t_end = 1e16 would ask solve_sir for t = 1e16, where a series step
        # no longer advances t; it is refused as the config is read.  The run
        # has a process of its own, so that a hang fails the test
        cfg = write_cfg(tmp_path, "experiment = elbow-scan\nt_end = 1e16\ndt = 1e15\nt = 1\n")
        out = tmp_path / "out"
        src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH", "")])))
        done = subprocess.run([sys.executable, "-m", "infodyn.cli", "--config", cfg,
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=10)
        assert done.returncode == 2
        assert done.stderr == ("error: bad value for 't_end': 1e+16 is past MAX_TIME: times "
                               "must be at most 2048\n")
        assert not out.exists()

    @pytest.mark.parametrize("exc, shown", [
        (MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)"),
         "Unable to allocate 74.5 GiB for an array with shape (10000000000,)"),
        (MemoryError(), "MemoryError")])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, exc, shown):
        # a model too large for memory: reported on one line, no traceback,
        # and no output directory, since run writes after the experiment
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli.dyn, "solve_sir", fail)
        cfg = write_cfg(tmp_path,
                        "experiment = model-trajectory\n" + SMALL_CONFIGS["model-trajectory"])
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: out of memory ({shown}); ")
        assert "(N, groups)" in err and err.count("\n") == 1
        assert not out.exists()

    def test_console_script_is_main(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["infodyn"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is cli.main

    def test_bad_input_keeps_an_existing_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = elbow-scan\nt_end = 0.2\nt = 0.1\n")
        out = tmp_path / "out"
        out.mkdir()
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        assert "bad value for 't_end'" in capsys.readouterr().err
        assert out.is_dir() and list(out.iterdir()) == []

    @pytest.mark.parametrize("cfg_seed, flag", [
        ("-1", None), ("18446744073709551616", None), ("1.5", None), ("1", "-1"),
    ])
    def test_seed_outside_u64_rejected(self, tmp_path, capsys, cfg_seed, flag):
        cfg = write_cfg(tmp_path, f"experiment = fisher-bias-vs-t\nseed = {cfg_seed}\n")
        out = tmp_path / "out"
        argv = ["--config", cfg, "--out", str(out)] + (["--seed", flag] if flag else [])
        assert cli.main(argv) == 2
        assert "bad value for 'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_failure_after_the_checks_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # run creates --out and writes only once the experiment has returned
        # every table: a failure late in model-trajectory, after its
        # trajectory and clustering are computed, leaves no file behind
        def fail(*args):
            raise ValueError("clustered_fisher failed")

        monkeypatch.setattr(cli.cl, "clustered_fisher", fail)
        cfg = write_cfg(tmp_path,
                        "experiment = model-trajectory\n" + SMALL_CONFIGS["model-trajectory"])
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        assert "clustered_fisher failed" in capsys.readouterr().err
        assert not out.exists()
        out.mkdir()  # an existing empty --out stays empty
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        assert list(out.iterdir()) == []

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # a UTF-8 BOM before the first key is not part of it; the manifest
        # hashes the file's bytes, BOM included
        raw = (b"\xef\xbb\xbfexperiment = fisher-bias-vs-t\n" + SMALL_MODEL.encode()
               + b"n = 10\nreplications = 3\n")
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(raw)
        out = tmp_path / "out"
        assert cli.run(str(cfg), str(out)) == ["distance_moments.csv", "fisher_bias_vs_t.csv",
                                               "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(raw).hexdigest()
        assert manifest["experiment"] == "fisher-bias-vs-t"

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_config_not_utf8_names_its_file(self, tmp_path, capsys, bom):
        # a Latin-1 byte in a comment: the error names the file and the
        # offset of the byte in it, byte-order mark included
        raw = bom + b"experiment = fisher-bias-vs-t\nn = 10 # caf\xe9\n"
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(raw)
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --config {str(cfg)!r} is not UTF-8: byte {raw.index(0xe9)} (0xe9) "
            "invalid continuation byte\n")
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, "experiment = fisher-bias-vs-t\n" + SMALL_MODEL
                        + "n = 10\nreplications = 3\n")
        cli.run(cfg, str(tmp_path / "out"), seed_override=(1 << 64) - 1)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == (1 << 64) - 1


# A small config of every experiment, each key of which the experiment reads.
SMALL_CONFIGS = {
    "model-trajectory": "N = 3\ndt = 0.25\nt_end = 1\nell = 2\nseed = 3\n",
    "fisher-bias-vs-t": ("N = 3\nn = 100,200\nreplications = 4\nt0 = 0.25\ncount = 3\n"
                         "t_end = 1\nell = 2\n"),
    "info-rate-moments": "N = 3\nt = 0.5\nt_end = 1\nn = 100\nreplications = 4\nell = 2\n",
    "filtering-comparison": "N = 3\nn = 1000\nt0 = 0.25\ncount = 5\nt_end = 2\n",
    "elbow-scan": "groups = 3,3,2,2,2,2\nell = 4,5,6,7\nt = 0.5\nt_end = 2\n",
}
MALFORMED = ["x", "nan", "inf", "-1", ","]


@pytest.fixture(scope="module")
def keys_read(tmp_path_factory):
    """Keys each small config sets that its experiment asks _get for."""
    tmp = tmp_path_factory.mktemp("small")
    read = {}
    get = cli._get
    for experiment, text in SMALL_CONFIGS.items():
        seen = set()

        def recording(cfg, key, default, conv):
            if key in cfg:
                seen.add(key)
            return get(cfg, key, default, conv)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_get", recording)
            cli.run(write_cfg(tmp, f"experiment = {experiment}\n" + text), str(tmp / experiment))
        assert seen <= cli.EXPERIMENTS[experiment][1], experiment
        read[experiment] = sorted(seen)
    return read


class TestConfigFuzzing:
    def test_small_configs_set_only_keys_that_are_read(self, keys_read):
        for experiment, text in SMALL_CONFIGS.items():
            assert keys_read[experiment] == sorted(cli.parse_config(
                f"experiment = {experiment}\n" + text).keys() - {"experiment"}), experiment

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_malformed_token_exits_2_naming_the_key(self, keys_read, data):
        # the token replaces the whole value, or one entry of a comma list
        experiment = data.draw(st.sampled_from(sorted(SMALL_CONFIGS)))
        cfg = cli.parse_config(f"experiment = {experiment}\n" + SMALL_CONFIGS[experiment])
        key = data.draw(st.sampled_from(keys_read[experiment]))
        token = data.draw(st.sampled_from(MALFORMED))
        entries = cfg[key].split(",")
        if len(entries) > 1 and data.draw(st.booleans()):
            entries[data.draw(st.integers(0, len(entries) - 1))] = token
            cfg[key] = ",".join(entries)
        else:
            cfg[key] = token
        text = "".join(f"{k} = {v}\n" for k, v in cfg.items())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "exp.cfg")
            with open(path, "w") as fh:
                fh.write(text)
            out = os.path.join(tmp, "out")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                status = cli.main(["--config", path, "--out", out])
            assert status == 2, text
            assert f"'{key}'" in err.getvalue(), (text, err.getvalue())
            assert not os.path.exists(out) or os.listdir(out) == [], text


# every experiment that integrates the model, each of which reads the model keys
MODEL_EXPERIMENTS = sorted(name for name, (_, keys) in cli.EXPERIMENTS.items()
                           if set(cli._MODEL_KEYS) <= keys)


def small_config(experiment, **keys):
    """The config text of SMALL_CONFIGS[experiment] with `keys` set over it."""
    cfg = cli.parse_config(f"experiment = {experiment}\n" + SMALL_CONFIGS[experiment])
    cfg.update(keys)
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


class TestModelKeys:
    @pytest.mark.parametrize("experiment", MODEL_EXPERIMENTS)
    def test_runs_at_a_sampling_step_of_a_third(self, tmp_path, experiment):
        # no multiple of dt = 1/3 but 0 is a binary fraction, and the times
        # the small configs set are not multiples of it
        cfg = write_cfg(tmp_path, small_config(experiment, dt=repr(1 / 3)))
        out = tmp_path / "out"
        artifacts = cli.run(cfg, str(out))
        assert artifacts and all((out / name).stat().st_size > 0 for name in artifacts)

    @pytest.mark.parametrize("dt", [1e-3, 0.1, 0.25, 1 / 3, 0.7, 3.0])
    def test_t_end_of_one_sampling_step(self, dt):
        # two sampling instants, and eleven output times every dt/10
        _, got, t_end = cli._model(cli.parse_config(
            f"experiment = model-trajectory\nN = 1\ndt = {dt!r}\nt_end = {dt!r}\n"))
        assert got == t_end == dt
        assert cli._instants(dt, t_end).tolist() == [0.0, dt]
        assert np.array_equal(cli._instants(dt / 10, t_end), np.arange(11) * (dt / 10))


# the sample size, replications and cluster count of a quick run, as far as
# the experiment reads them
SMALL_RUN_KEYS = {
    "fisher-bias-vs-t": "n = 1000\nreplications = 3\n",
    "info-rate-moments": "n = 1000\nreplications = 3\nell = 2\n",
    "model-trajectory": "ell = 2\n",
}


class TestExperiments:
    def test_fisher_bias_vs_n_layout(self, tmp_path):
        # the vs-n slice: one interval around t = 5, one block of rows per n,
        # the ten variants' row (ell = M) before the two clusters' row
        cfg = write_cfg(
            tmp_path,
            "experiment = fisher-bias-vs-t\nt0 = 4.875\ncount = 2\nn = 5000,20000\n"
            "replications = 40\nell = 2\nseed = 2\n",
        )
        out = tmp_path / "out"
        cli.run(cfg, str(out))
        rows = (out / "fisher_bias_vs_t.csv").read_text().strip().splitlines()
        assert rows[0] == "t,n,ell," + ",".join(cli.MC_COLUMNS)
        assert len(rows) == 5
        for row, lead in zip(rows[1:], (["5", "5000", "10"], ["5", "5000", "2"],
                                        ["5", "20000", "10"], ["5", "20000", "2"])):
            values = row.split(",")
            assert values[:3] == lead
            assert float(values[3]) > 0

    def test_fisher_clusters_of_one_variant_repeat_the_variant_rows(self, tmp_path):
        # with one cluster per variant, each cluster row is its variant
        # estimator's row summed in another order (K-means labels permute
        # the variants), so only to rounding
        cfg = write_cfg(tmp_path, "experiment = fisher-bias-vs-t\nN = 3\nell = 4\n"
                                  "n = 1000,5000\nreplications = 20\ncount = 4\nt_end = 2\n")
        out = tmp_path / "out"
        cli.run(cfg, str(out))
        header, *rows = [line.split(",") for line in
                         (out / "fisher_bias_vs_t.csv").read_text().splitlines()]
        table = np.array([[float(cell) for cell in row] for row in rows])
        assert len(table) == 2 * 2 * 3 and np.all(table[:, 2] == 4)
        for block in table.reshape(2, 2, 3, -1):  # per n: variant rows, then cluster rows
            for name in ("mc_mean", "theory_mean"):
                j = header.index(name)
                assert block[1, :, j] == pytest.approx(block[0, :, j], rel=1e-12, abs=0), name

    def test_model_trajectory_artifacts(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = model-trajectory\nN = 4\nt_end = 4\nell = 2\n",
        )
        out = tmp_path / "out"
        artifacts = cli.run(cfg, str(out))
        assert set(artifacts) == {"trajectory.csv", "variants.csv", "fisher.csv", "manifest.json"}
        fisher = np.loadtxt(out / "fisher.csv", delimiter=",", skiprows=1)
        assert np.all(fisher[:, 1] >= fisher[:, 2] - 1e-12)  # g_tt >= g_f

    def test_elbow_scan_finds_constructed_groups(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = elbow-scan\nseed = 1\n",
        )
        out = tmp_path / "out"
        cli.run(cfg, str(out))
        assert (out / "elbow_summary.csv").read_text() == "ell_star\n6\n"

    def test_info_rate_moments_rows(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = info-rate-moments\nn = 3000\nreplications = 40\nell = 2\nseed = 4\n",
        )
        out = tmp_path / "out"
        cli.run(cfg, str(out))
        rows = (out / "info_rate_variants.csv").read_text().strip().splitlines()
        assert rows[0] == "n,idx," + ",".join(cli.MC_COLUMNS)
        assert len(rows) == 1 + 10
        clusters = (out / "info_rate_clusters.csv").read_text().strip().splitlines()
        assert len(clusters) == 1 + 2

    def test_cluster_rows_share_the_variant_draws(self, tmp_path):
        # with one cluster per variant, a cluster's counts are its variant's
        # counts; one block per n gives both rows the same mc_* cells
        cfg = write_cfg(tmp_path, "experiment = info-rate-moments\nN = 3\nell = 4\n"
                                  "n = 1000,5000\nreplications = 20\nt = 1\nt_end = 2\n")
        out = tmp_path / "out"
        cli.run(cfg, str(out))

        def mc_cells(name):
            header, *rows = [line.split(",") for line in (out / name).read_text().splitlines()]
            cols = [j for j, key in enumerate(header) if key.startswith("mc_")]
            return {(row[0], row[1]): [row[j] for j in cols] for row in rows}

        label = dict(line.split(",") for line in (out / "clustering.csv").read_text().split()[1:])
        assert sorted(label.values()) == ["1", "2", "3", "4"]
        variants = mc_cells("info_rate_variants.csv")
        assert len(variants) == 8
        assert mc_cells("info_rate_clusters.csv") == {
            (n, label[mu]): cells for (n, mu), cells in variants.items()}

    def test_filtering_comparison_runs_at_the_fewest_instants(self, tmp_path):
        # one instant past the kernel's half width is the least count accepted
        count = flt.DEFAULT_HALF_WIDTH + 1
        cfg = write_cfg(tmp_path, small_config("filtering-comparison", count=str(count)))
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        rows = (out / "filtering_rmse.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4  # a header and the four variants of N = 3

    @pytest.mark.parametrize("experiment", sorted(SMALL_CONFIGS))
    def test_every_table_is_a_header_and_rows(self, tmp_path, experiment):
        # a CSV reader takes the first line as the header: each table has
        # at least one data row, as wide as the header, with no empty cell
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\n" + SMALL_CONFIGS[experiment])
        out = tmp_path / "out"
        artifacts = cli.run(cfg, str(out))
        for name in artifacts:
            if not name.endswith(".csv"):
                continue
            with open(out / name, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and len(set(header)) == len(header), name
            assert all(len(row) == len(header) and all(row) for row in rows), name

    def test_filtering_comparison_layout(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = filtering-comparison\nn = 20000\ncount = 12\nseed = 6\n",
        )
        out = tmp_path / "out"
        cli.run(cfg, str(out))
        rows = (out / "filtering_rmse.csv").read_text().strip().splitlines()
        assert rows[0] == "mu,rmse_raw,rmse_filtered"
        assert len(rows) == 11

    @pytest.mark.parametrize("experiment", ["fisher-bias-vs-t", "info-rate-moments",
                                            "model-trajectory"])
    def test_t_end_between_sampling_instants(self, tmp_path, experiment):
        # 10.2 is not a multiple of dt = 0.25: the full grid ends at t = 10
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\nt_end = 10.2\nseed = 8\n"
                                  + SMALL_RUN_KEYS[experiment])
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        if experiment == "fisher-bias-vs-t":
            # 40 intervals, of the ten variants and of the three clusters
            rows = (out / "fisher_bias_vs_t.csv").read_text().strip().splitlines()
            assert len(rows) == 1 + 2 * 40
            assert rows[40].startswith("9.875,1000,10,") and rows[-1].startswith("9.875,1000,3,")

    @pytest.mark.parametrize("t, model", [(5.01, "t_end = 6\n"),
                                          (0.45, "N = 3\ndt = 0.2\nt_end = 1\n")],
                             ids=["off-grid", "rounded-midpoint"])
    def test_off_grid_time_runs_on_a_finer_step(self, tmp_path, t, model):
        # 5.01 is no multiple of dt or of any step dividing it: the model is
        # evaluated at t, the draws at t -/+ dt/2, wherever they lie.  At dt =
        # 0.2 the midpoint (0.45 - dt/2) + dt/2 of the draws is
        # 0.44999999999999996, where every closed form of the four variants
        # of N = 3 and of their clusters differs from its value at t itself
        text = (f"experiment = info-rate-moments\nt = {t}\n{model}n = 1000\n"
                "replications = 5\nell = 2\n")
        out = tmp_path / "out"
        assert cli.main(["--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        params, dt, t_end = cli._model(cli.parse_config(text))
        grid, at_t, pair = (cli.dyn.solve_sir(params, times) for times in
                            (cli._instants(dt, t_end), [t], [t - dt / 2, t + dt / 2]))
        f = cli.cl.kmeans(cli.cl.kmeans_features(grid, slice(None)), 2)
        p, pdot, _ = at_t.replicator(0)
        q, qdot = cli.cl.aggregate(p, f), cli.cl.aggregate(pdot, f)
        cols = {}
        for name, rate, prob in (("info_rate_variants.csv", at_t.info_rate_curve(0), p),
                                 ("info_rate_clusters.csv", self_information_rate(q, qdot), q)):
            header, *rows = [line.split(",") for line in (out / name).read_text().splitlines()]
            cols[name] = {key: np.array([float(row[j]) for row in rows])
                          for j, key in enumerate(header)}
            mean, var = th.info_rate_moments(rate, prob, 1000, dt)
            assert np.array_equal(cols[name]["theory_mean"], mean), name
            assert np.array_equal(cols[name]["theory_var"], var), name
        est = cli.smp.monte_carlo_components(lambda c: cli.smp.info_rate_hat(c / 1000, dt)[:, 0],
                                             5, rng.derive_key(1, 0), pair.p(), 1000)
        assert np.array_equal(cols["info_rate_variants.csv"]["mc_mean"], est.mean)

    @given(dt=st.sampled_from([0.01, 0.1, 0.25, 0.3, 1 / 3]), t0=st.floats(0.0, 4.0),
           t_end=st.floats(0.5, 4.0))
    @example(dt=0.25, t0=0.0875, t_end=3.1)
    @example(dt=0.3, t0=2.9, t_end=3.0)  # less than one dt before t_end
    @example(dt=0.1, t0=0.0, t_end=0.3)  # 3 * 0.1 rounds to 0.30000000000000004
    @settings(max_examples=100, deadline=None)
    def test_instants_are_every_step_up_to_t_end(self, dt, t0, t_end):
        # t0, dt and t_end are decimals as a config gives them: the instants
        # t0 + k dt are every one up to t_end, within a relative 1e-9
        t0, t_end = round(t0, 4), round(t_end, 3)
        end = t_end * (1.0 + 1e-9)
        count = 0
        while t0 + count * dt <= end:
            count += 1
        if count < 2:
            key = "t0" if t0 else "t_end"  # with t0 = 0, t_end is too short
            with pytest.raises(cli.ConfigError, match=f"bad value for '{key}'"):
                cli._instants(dt, t_end, t0)
            return
        assert cli._instants(dt, t_end, t0).tolist() == [t0 + k * dt for k in range(count)]
        assert cli._instants(dt, t_end, t0, 2).tolist() == [t0, t0 + dt]

    @pytest.mark.parametrize("experiment", MODEL_EXPERIMENTS)
    def test_one_solve_sir_call_per_run(self, monkeypatch, tmp_path, experiment):
        # every experiment asks solve_sir once for all the times it uses
        calls = []
        solve = cli.dyn.solve_sir

        def counted(params, times):
            calls.append(times)
            return solve(params, times)

        monkeypatch.setattr(cli.dyn, "solve_sir", counted)
        cli.run(write_cfg(tmp_path, f"experiment = {experiment}\n" + SMALL_CONFIGS[experiment]),
                str(tmp_path / "out"))
        assert len(calls) == 1

    def test_model_integrates_once_on_its_grid(self, monkeypatch):
        # the mc-wide benchmark model: the sampling grid 0, dt, ..., t_end = 6
        # for the features, t, and t -/+ dt/2 for the draws, in one call
        calls = []
        solve = cli.dyn.solve_sir

        def counted(params, times):
            calls.append(times)
            return solve(params, times)

        monkeypatch.setattr(cli.dyn, "solve_sir", counted)
        cli.run_info_rate_moments(cli.parse_config(
            "experiment = info-rate-moments\nN = 999\nt = 5\nt_end = 6\nn = 100\n"
            "replications = 2\nell = 10\n"), 1)
        (times,) = calls
        assert times.tolist() == [0.25 * k for k in range(25)] + [5.0, 4.875, 5.125]


class TestFisherBlocks:
    @pytest.mark.parametrize("m", [2, 10, 1000])
    def test_blocks_give_the_whole_table_bit_for_bit(self, m, monkeypatch):
        # on model-trajectory's dt/10 grid (401 rows) and fisher-bias-vs-t's
        # 40 midpoints: blocks of one row, of 7 rows (a short last block),
        # and of the default size give what one whole-table replicator and
        # clustered_fisher call gives
        _, dt, t_end = cli._model({})  # dt = 0.25, t_end = 10
        grid = cli._instants(dt, t_end)
        traj, (grid, every, mid) = cli._solve({}, cli.dyn.default_sir_params(m), grid,
                                              cli._instants(dt / 10, t_end), grid[:-1] + dt / 2)
        f = cli.cl.kmeans(cli.cl.kmeans_features(traj, grid), min(3, m))
        replicator, sizes = cli.dyn.Trajectory.replicator, []

        def recorded(self, rows):
            sizes.append(rows.stop - rows.start)
            return replicator(self, rows)

        default = max(1, smp.CHUNK_COUNTS // m)
        for rows in (every, mid):
            p, pdot, g_tt = traj.replicator(rows)
            want = g_tt, cli.cl.clustered_fisher(p, pdot, f)
            for chunk, size in ((m, 1), (7 * m, 7), (smp.CHUNK_COUNTS, default)):
                monkeypatch.setattr(smp, "CHUNK_COUNTS", chunk)
                monkeypatch.setattr(cli.dyn.Trajectory, "replicator", recorded)
                sizes.clear()
                got = cli._fisher(traj, rows, f)
                monkeypatch.undo()
                for name, a, b in zip(("g_tt", "g_f"), got, want, strict=True):
                    assert np.array_equal(a, b), (m, rows, chunk, name)
                n_rows = rows.stop - rows.start
                assert sizes == [size] * (n_rows // size) + [n_rows % size] * (n_rows % size > 0)

    def test_model_trajectory_holds_no_table_over_its_rows(self, tmp_path):
        # at M = 10**4 one (401, M) table of floats is 32 MB; the run's
        # traced peak stays below it, so it holds no such table
        m = 10_000
        cfg = write_cfg(tmp_path, f"experiment = model-trajectory\nN = {m - 1}\n")
        tracemalloc.start()
        try:
            cli.run(cfg, str(tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 401 * m * 8


class TestRateBlocks:
    @pytest.mark.parametrize("source", ["shipped", "mc-wide"])
    def test_info_rate_moments_is_a_fisher_bias_vs_t_rate_block(self, source):
        # the estimates of info-rate-moments at t are, bit for bit, the rate
        # block of the two instants t -+ dt/2 drawn as fisher-bias-vs-t draws
        # from t0 = t - dt/2 with count = 2: the same instants, keys and
        # K-means clustering, and the rate estimator with the clusters joined
        if source == "shipped":
            text = (CONFIGS / "info_rate_moments.cfg").read_text()
        else:
            wl = load_perfbench("workloads")
            text = wl.config_text(wl.WIDE, 1)
        cfg = cli.parse_config(text)
        seed, t, reps, ell = (int(cfg["seed"]), float(cfg["t"]), int(cfg["replications"]),
                              int(cfg["ell"]))
        ns = [int(n) for n in cfg["n"].split(",")]
        tables = cli.EXPERIMENTS["info-rate-moments"][0](cfg, seed)
        params, dt, t_end = cli._model(cfg, [ell])
        grid = cli._instants(dt, t_end)
        instants = cli._instants(dt, t_end, t - dt / 2.0, 2)
        assert instants.tolist() == [t - dt / 2.0, t + dt / 2.0]
        traj, (grid, rows, _) = cli._solve(cfg, params, grid, instants, instants[:-1] + dt / 2.0)
        f = cli.cl.kmeans(cli.cl.kmeans_features(traj, grid), ell)
        assert np.array_equal(tables["clustering.csv"][1][1], f.labels + 1)
        ests = smp.monte_carlo_per_n(smp.with_clusters(lambda ph: smp.info_rate_hat(ph, dt), f),
                                     reps, seed, traj.p(rows), ns)
        m = params.n_variants
        for name, part in (("info_rate_variants.csv", slice(m)),
                           ("info_rate_clusters.csv", slice(m, None))):
            header, columns = tables[name]
            got = dict(zip(header, columns, strict=True))
            for field in smp.MonteCarloEstimate._fields:
                # one interval: row 0 of each (1, M + ell) estimate
                want = np.concatenate([getattr(est, field)[0, part] for est in ests])
                assert got[f"mc_{field}"].tobytes() == want.tobytes(), (source, name, field)


class TestDistanceBlocks:
    @pytest.mark.parametrize("source", ["shipped", "mc-timegrid"])
    def test_distance_cells_are_the_distance_alone(self, source):
        # the distance_moments.csv cells of a fisher-bias-vs-t run are, bit
        # for bit, a Monte Carlo run of the distance alone on the run's own
        # (K, M) p, against the exact moments at each instant: the Fisher
        # values reduced beside it on the same counts change none of them
        if source == "shipped":
            text = (CONFIGS / "fisher_bias_vs_t.cfg").read_text()
        else:
            wl = load_perfbench("workloads")
            text = wl.config_text(wl.TIMEGRID, 1)
        cfg = cli.parse_config(text)
        seed, reps, count = int(cfg["seed"]), int(cfg["replications"]), int(cfg["count"])
        ns = [int(n) for n in cfg["n"].split(",")]
        tables = cli.EXPERIMENTS["fisher-bias-vs-t"][0](cfg, seed)
        params, dt, t_end = cli._model(cfg)
        instants = cli._instants(dt, t_end, float(cfg.get("t0", 0)), count)
        traj, (rows,) = cli._solve(cfg, params, instants)
        p = traj.p(rows)
        ests = smp.monte_carlo_per_n(lambda c, n: shahshahani_distance_sq(p, c / n), reps, seed,
                                     p, ns)
        moments = [th.distance_moments(p, n) for n in ns]
        header, columns = tables["distance_moments.csv"]
        got = dict(zip(header, columns, strict=True))
        assert len(got["t"]) == count * len(ns)
        want = {"t": np.tile(instants, len(ns)), "n": np.repeat(ns, count),
                **{f"mc_{field}": np.concatenate([getattr(est, field) for est in ests])
                   for field in smp.MonteCarloEstimate._fields},
                "theory_mean": np.concatenate([mean for mean, _ in moments]),
                "theory_var": np.concatenate([var for _, var in moments])}
        assert header == list(want)
        for key, cells in want.items():
            assert got[key].tobytes() == cells.tobytes(), (source, key)

    def test_distance_cells_do_not_depend_on_ell(self, tmp_path):
        # the distance is of the variants alone: the cluster columns drawn
        # beside it, at ell = 2 or 3, leave its bytes as they are
        blobs = []
        for ell in (2, 3):
            out = tmp_path / f"ell{ell}"
            cli.run(write_cfg(tmp_path, small_config("fisher-bias-vs-t", ell=str(ell))), str(out))
            blobs.append((out / "distance_moments.csv").read_bytes())
        assert blobs[0] == blobs[1]


# the Monte Carlo tables of each experiment that writes them
MC_TABLES = {
    "fisher-bias-vs-t": ["fisher_bias_vs_t.csv", "distance_moments.csv"],
    "info-rate-moments": ["info_rate_variants.csv", "info_rate_clusters.csv"],
}


class TestVarianceCells:
    @pytest.mark.parametrize("experiment", sorted(MC_TABLES))
    def test_mc_var_is_the_product_std_times_std(self, tmp_path, experiment):
        # each variance cell reads back as x * x, the correctly rounded
        # square, of a std x that gives the row's mc_se cell as x / sqrt(R):
        # the table holds the var and se that sampling computed from one std
        text = f"experiment = {experiment}\n" + SMALL_CONFIGS[experiment]
        root = math.sqrt(int(cli.parse_config(text)["replications"]))
        cli.run(write_cfg(tmp_path, text), str(tmp_path / "o"))
        rows = []
        for name in MC_TABLES[experiment]:
            with open(tmp_path / "o" / name, newline="") as fh:
                rows += csv.DictReader(fh)
        for row in rows:
            se, var = float(row["mc_se"]), float(row["mc_var"])
            stds = [se * root]  # within 2 ulps of the std behind se
            for direction in (-math.inf, math.inf):
                x = stds[0]
                for _ in range(4):
                    x = math.nextafter(x, direction)
                    stds.append(x)
            assert any(x / root == se and x * x == var for x in stds), row
        assert rows

    def test_variance_se_matches_chi_square(self):
        # two draws of n from one static p: the Fisher estimate is pure
        # noise, and n dt^2 ghat / 2 tends to chi^2_N, whose central moments
        # give the exact Var(s^2) = (mu4 - sigma^4 (R-3)/(R-1)) / R of the
        # sample variance of R replications.  mu4 / sigma^4 = 3 + 12/N, so
        # the normal-data SE var * sqrt(2/(R-1)) is too small by about
        # sqrt(1 + 6/N) (0.58 times the exact SE at N = 3).
        p, n, dt, reps = np.array([0.1, 0.2, 0.3, 0.4]), 10000, 0.25, 20000
        dof, scale = p.size - 1, 2.0 / (n * dt * dt)
        sigma2, mu4 = 2 * dof * scale ** 2, 12 * dof * (dof + 4) * scale ** 4
        exact = math.sqrt((mu4 - sigma2 ** 2 * (reps - 3) / (reps - 1)) / reps)
        est = smp.monte_carlo_components(lambda c: smp.fisher_hat(c / n, dt)[:, 0],
                                         reps, 5, np.stack([p, p]), n)
        assert est.var == pytest.approx(sigma2, rel=0.05)
        # the fourth-moment estimate has a relative spread of about 4 % here
        assert est.var_se == pytest.approx(exact, rel=0.15)
        assert est.var * math.sqrt(2.0 / (reps - 1)) < 0.7 * exact


class TestShippedOutputs:
    def test_monte_carlo_rows_lie_near_their_closed_forms(self, tmp_path):
        # every row of every shipped Monte Carlo table, its mean against
        # mc_se and its variance against mc_var_se, within the benchmark's
        # z gate
        z_max = load_perfbench("checks").Z_MAX
        worst = {}
        for path in sorted(CONFIGS.glob("*.cfg")):
            out = tmp_path / path.stem
            for name in cli.run(str(path), str(out)):
                header, *rows = (out / name).read_text().splitlines()
                header = header.split(",")
                if "mc_mean" not in header:
                    continue
                assert header[-len(cli.MC_COLUMNS):] == cli.MC_COLUMNS, name
                table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
                col = {key: table[:, j] for j, key in enumerate(header)}
                assert np.all(col["mc_se"] > 0) and np.all(col["mc_var_se"] > 0), name
                for moment, se in (("mean", "mc_se"), ("var", "mc_var_se")):
                    z = (col[f"mc_{moment}"] - col[f"theory_{moment}"]) / col[se]
                    worst[path.stem, name, moment] = np.abs(z).max()
        assert len(worst) == 2 * 6
        assert max(worst.values()) <= z_max, worst

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_outputs_match_pinned_digests(self, tmp_path, path):
        cli.run(str(path), str(tmp_path))
        blobs = read_all(tmp_path)
        sampled = {name: sampled_bytes(name, blob) for name, blob in blobs.items()}
        assert {name: hashlib.sha256(blob).hexdigest() for name, blob in sampled.items()
                if blob is not None} == SAMPLED_DIGESTS[path.stem], (
            f"{path.name}: a Monte Carlo column or a model-free file changed")
        got = {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
        assert got == SHIPPED_DIGESTS[path.stem], (
            f"{path.name} no longer writes the pinned bytes.  The digests assume numpy's "
            f"binomial sampler as in numpy 2.4.6 (this is numpy {np.__version__}); under the "
            "same numpy, a declared output change must update SHIPPED_DIGESTS and say so in "
            "CHANGES.md.")


def reference_write_csv(path, header, rows) -> None:
    """The row writer that write_csv replaced, kept as its reference: a column
    whose cell in the first row is a float is written with %.17g, any other
    with %s."""
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if first is not None:
            line = ",".join("%.17g" if isinstance(x, float) else "%s" for x in first) + "\n"
            fh.write(line % tuple(first))
            fh.writelines(line % tuple(row) for row in rows)


def decade_values():
    """Every double next to a power of ten 10**k, k = -323 ... 308: 10.0**k
    and the correctly rounded literal 1ek, each with both neighbours."""
    out = []
    for k in range(-323, 309):
        for v in dict.fromkeys((10.0 ** k, float(f"1e{k}"))):
            out += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    return out


def tie_values():
    """Doubles k / 2**(17 - X), k odd, in the decade X = -8 ... 14: each has
    exactly 18 significant digits, the last a 5, so %.17g rounds a tie."""
    out = []
    for x_dec in range(-8, 15):
        scale = Fraction(2) ** (17 - x_dec)
        lo = math.ceil(10 ** Fraction(x_dec) * scale) | 1
        hi = math.ceil(10 ** Fraction(x_dec + 1) * scale) - 1
        for k in dict.fromkeys((lo, (lo + hi) // 2 | 1, hi - 1 + hi % 2)):
            v = math.ldexp(k, x_dec - 17)
            out += [v, -v]
    return out


def extreme_values():
    """Zeros, infinities, the ends of the double range, the integers next to
    2**53, and the neighbours of 1e-4 and 1e17, where %.17g switches between
    its fixed and exponent forms."""
    out = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, float(2 ** 53 - 1),
           float(2 ** 53 + 1), float(2 ** 53 + 2), -float(2 ** 53)]
    switch = [1e-4, 1e17, 1e16, 99999999999999999.0, 9.99999999999999999e-5]
    return out + [math.nextafter(v, t) * s for v in switch for t in (0.0, v, math.inf)
                  for s in (1.0, -1.0)]


class TestWriteCsv:
    """write_csv writes the bytes of reference_write_csv, the row writer it
    replaced."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_bit_patterns(self, data):
        rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))
        bits = data.draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=rows * cols,
                                  max_size=rows * cols))
        table = np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)
        layout = data.draw(st.sampled_from(["block", "columns", "split", "labelled"]))
        columns = {"block": [table], "columns": list(table.T),
                   "split": [table[:, 0], table[:, 1:]],
                   "labelled": [[f"q_{r}" for r in range(rows)], range(rows), table]}[layout]
        prefix = ([[f"q_{r}", r] for r in range(rows)] if layout == "labelled"
                  else [[] for _ in range(rows)])
        header = [f"c{j}" for j in range(len(prefix[0]) + cols)]
        with tempfile.TemporaryDirectory() as tmp:
            got, ref = os.path.join(tmp, "got.csv"), os.path.join(tmp, "ref.csv")
            cli.write_csv(got, header, columns)
            reference_write_csv(ref, header, (p + r for p, r in zip(prefix, table.tolist())))
            with open(got, "rb") as fh_got, open(ref, "rb") as fh_ref:
                assert fh_got.read().splitlines() == fh_ref.read().splitlines()

    def test_model_trajectory(self, tmp_path):
        # variants.csv holds the rates, initial shares and labels, and
        # fisher.csv is as the reference writer writes it; test_docs
        # rebuilds p, d and pdot from trajectory.csv and variants.csv
        text = "experiment = model-trajectory\nN = 99\n"
        cli.run(write_cfg(tmp_path, text), str(tmp_path / "out"))
        params, dt, t_end = cli._model(cli.parse_config(text), [3])
        traj = cli.dyn.solve_sir(params, cli._instants(dt, t_end))
        f = cli.cl.kmeans(cli.cl.kmeans_features(traj, slice(None)), 3)
        traj = cli.dyn.solve_sir(params, cli._instants(dt / 10, t_end))  # every dt/10
        p, pdot, g_tt = traj.replicator()
        variants = np.genfromtxt(tmp_path / "out" / "variants.csv", delimiter=",", names=True)
        assert list(variants.dtype.names) == ["mu", "gamma", "epsilon", "i0", "label"]
        for name, want in (("mu", np.arange(1, 101)), ("gamma", traj.params.gamma),
                           ("epsilon", traj.params.epsilon), ("i0", traj.params.i0),
                           ("label", f.labels + 1)):
            assert np.array_equal(variants[name], want), name
        reference_write_csv(tmp_path / "fisher.csv", ["t", "g_tt", "g_f"],
                            zip(traj.times, g_tt, cli.cl.clustered_fisher(p, pdot, f)))
        want = (tmp_path / "fisher.csv").read_bytes()
        assert (tmp_path / "out" / "fisher.csv").read_bytes() == want

    def test_mixed_cells(self, tmp_path):
        # a labelled table: a string, an integer and float columns
        rows = [("distance_mean", 1000, 0.0019500000000000001, 0.1, 1e-7),
                ("distance_var", 1000, -2.5e-6, 0.0, 123456789.25),
                ("fisher_mean", 10 ** 18, 1e300, -1e-300, math.inf),
                ("info_rate_mean_mu1", 7, math.nan, 5e-324, 2.0 ** 53 + 2)]
        header = ["quantity", "n", "mc_value", "mc_se", "theory_value"]
        cli.write_csv(tmp_path / "got.csv", header, zip(*rows))
        reference_write_csv(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_header_only(self, tmp_path):
        cli.write_csv(tmp_path / "got.csv", ["ell_star", "6"], [])
        reference_write_csv(tmp_path / "ref.csv", ["ell_star", "6"], [])
        assert (tmp_path / "got.csv").read_bytes() == b"ell_star,6\n"
        assert (tmp_path / "ref.csv").read_bytes() == b"ell_star,6\n"

    @pytest.mark.parametrize("values", [decade_values, tie_values, extreme_values],
                             ids=["decades", "ties", "extremes"])
    def test_edge_doubles_read_back_exactly(self, tmp_path, values):
        # where 17 digits are hardest to get right, each cell is what
        # '%.17g' % v writes and reads back as v, the sign of zero included
        values = np.array(values())
        cli.write_csv(tmp_path / "got.csv", ["v"], [values])
        lines = (tmp_path / "got.csv").read_text().split("\n")
        assert lines[0] == "v" and lines[-1] == ""
        assert lines[1:-1] == ["%.17g" % v for v in values.tolist()]
        read = np.array([float(cell) for cell in lines[1:-1]])
        assert np.array_equal(read.view(np.uint64), values.view(np.uint64))
