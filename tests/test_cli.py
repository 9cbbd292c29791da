import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infodyn import cli

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"

# SHA-256 of every file each shipped config writes at its own seed,
# manifest.json included, computed with numpy 2.4.6.  Any change to these
# bytes is an output change, to be declared in CHANGES.md with the new digests.
SHIPPED_DIGESTS = {
    "distance_moments": {
        "distance_moments.csv":
            "58723311fdc1f3b7aa1b3b99641c6d5506866cbe07913851d9a69b39fa1961a1",
        "manifest.json":
            "a35de6ad00d655b159cb3db6ca4e1b49d7df884a63bbae9914d524a6abc380ce",
    },
    "elbow_scan": {
        "elbow_curve.csv":
            "7d2ad650b9bab679e886c6f3a1e7913ffa21277b406694545e7c78b6d4e4bca5",
        "elbow_summary.csv":
            "0e938bd8fbe33387602074136906a7d08fa981dd412dbf9023bcfd239b5e1e72",
        "manifest.json":
            "b56e334398be0cd5e6f71f2d49644a3cb0a458f200c58efcd2473e76ea8fef9e",
    },
    "filtering_comparison": {
        "filtering_rmse.csv":
            "714227a219d06e27a2f2cdfda78af66f16ce7c62e7f542518f77b7dd76b7248a",
        "manifest.json":
            "902ed301c52b11332fe9486e33eeac441589e14b37d0e364512629e3e134f102",
    },
    "fisher_bias_vs_n": {
        "fisher_bias_vs_n.csv":
            "3ee10ca803fa11bab5391c20ed2843072247107d949457dcdc7934f9567d27da",
        "manifest.json":
            "ee4bced645cc4604b1393ac41bfdb86389000c48cb5ccb9c9778ed544c6c5d46",
    },
    "fisher_bias_vs_t": {
        "fisher_bias_vs_t.csv":
            "f133155a6947052ffae624b4ce5b4be786721a2876151ee0e1784dfcbc133a79",
        "manifest.json":
            "8b9482fcfddf325f3ff7510b10b23d05641bb6c931bbb2b944217908643a8a12",
    },
    "info_rate_moments": {
        "clustering.csv":
            "00b98abb8565694bb0eca1d1dddcf1c72d7c603f09315fa133100c5261f02276",
        "info_rate_clusters.csv":
            "b3ecee5c18b23a6a246739a4dbdce017622edce1dceef874e13d5f2ba2e37dde",
        "info_rate_variants.csv":
            "553aac0fea983406b396a0ebc99ce56ce30f74707ce3d07c58698804e50dc74c",
        "manifest.json":
            "457f1c4284ce822a110d0a4cd6c6b18da55b967efb37ce32caefd1e072b9a0b7",
    },
    "model_trajectory": {
        "clustering.csv":
            "00b98abb8565694bb0eca1d1dddcf1c72d7c603f09315fa133100c5261f02276",
        "fisher.csv":
            "8e3381a69915f08426f08abbae281fd08c46dae25476a3d13cc453ba479d4f05",
        "manifest.json":
            "cf425660d5aea4afaeb65c1bddb30b704838aec20db92393f544e431e2fedffd",
        "trajectory.csv":
            "0027523e87fcdda810c9c79aa542ece547c4a76af7480513c0137ad0166f12a1",
    },
    "theory_vs_mc": {
        "manifest.json":
            "736b5ff19274d3c86c6545ac3aedfbf91a73c37a2c9b2e01c2dea38bc3beeda7",
        "theory_vs_mc.csv":
            "7e2d7268b127b0a2c5338476233bb6a7af9df9fc82e958e03e458076652ea66c",
    },
}


# Shipped files that hold no model-derived number; SAMPLED_DIGESTS pins them whole.
MODEL_FREE = {"distance_moments.csv", "clustering.csv", "elbow_summary.csv", "manifest.json"}

# SHA-256 of the random half of each shipped output, from sampled_bytes: the
# mc_* columns of each CSV, and the model-free files whole.  A declared
# change of the model numbers leaves these; a moved multinomial count does not.
SAMPLED_DIGESTS = {
    "distance_moments": {
        "distance_moments.csv":
            "58723311fdc1f3b7aa1b3b99641c6d5506866cbe07913851d9a69b39fa1961a1",
        "manifest.json":
            "a35de6ad00d655b159cb3db6ca4e1b49d7df884a63bbae9914d524a6abc380ce",
    },
    "elbow_scan": {
        "elbow_summary.csv":
            "0e938bd8fbe33387602074136906a7d08fa981dd412dbf9023bcfd239b5e1e72",
        "manifest.json":
            "b56e334398be0cd5e6f71f2d49644a3cb0a458f200c58efcd2473e76ea8fef9e",
    },
    "filtering_comparison": {
        "manifest.json":
            "902ed301c52b11332fe9486e33eeac441589e14b37d0e364512629e3e134f102",
    },
    "fisher_bias_vs_n": {
        "fisher_bias_vs_n.csv":
            "2e0454793a37a8f9da0300ec0e30bccc2a123ac8e965e7db31c13d6dde35647f",
        "manifest.json":
            "ee4bced645cc4604b1393ac41bfdb86389000c48cb5ccb9c9778ed544c6c5d46",
    },
    "fisher_bias_vs_t": {
        "fisher_bias_vs_t.csv":
            "3c88f62c45be2bf3debe4e86f36ab5fb16df25b2d37a2e97d2484f66bc08ba72",
        "manifest.json":
            "8b9482fcfddf325f3ff7510b10b23d05641bb6c931bbb2b944217908643a8a12",
    },
    "info_rate_moments": {
        "clustering.csv":
            "00b98abb8565694bb0eca1d1dddcf1c72d7c603f09315fa133100c5261f02276",
        "info_rate_clusters.csv":
            "f427452de1b35dac77072fb4330737273bd72600263e907fdcee398b1d8e6501",
        "info_rate_variants.csv":
            "36985311afd3c5868db7f85383a5bdee3850c35dcc49e2b81f2ce97cee8e2fe9",
        "manifest.json":
            "457f1c4284ce822a110d0a4cd6c6b18da55b967efb37ce32caefd1e072b9a0b7",
    },
    "model_trajectory": {
        "clustering.csv":
            "00b98abb8565694bb0eca1d1dddcf1c72d7c603f09315fa133100c5261f02276",
        "manifest.json":
            "cf425660d5aea4afaeb65c1bddb30b704838aec20db92393f544e431e2fedffd",
    },
    "theory_vs_mc": {
        "manifest.json":
            "736b5ff19274d3c86c6545ac3aedfbf91a73c37a2c9b2e01c2dea38bc3beeda7",
        "theory_vs_mc.csv":
            "c22b520427401fa035454108a12051a8a32012d48867cffa46d265d974c9e736",
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
        cfg = cli.parse_config("experiment = distance-moments\nn = 10,20 # desk\n")
        assert cfg == {"experiment": "distance-moments", "n": "10,20"}

    def test_rejects_unknown_key(self):
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.parse_config("experiment = theory-vs-mc\nbogus = 1\n")

    def test_rejects_missing_experiment(self):
        with pytest.raises(cli.ConfigError, match="experiment"):
            cli.parse_config("n = 10\n")

    def test_rejects_malformed_line(self):
        with pytest.raises(cli.ConfigError, match="line 1"):
            cli.parse_config("just some words\n")

    def test_list_values(self):
        assert cli._int_list("10, 20") == [10, 20]
        assert cli._float_list("0.5,0.5") == [0.5, 0.5]
        for conv in (cli._int_list, cli._float_list):
            for text in (" , ", "10, 20,", "100,,1000", ",5"):
                with pytest.raises(ValueError, match="empty entry"):
                    conv(text)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_is_valid(self, path):
        cfg = cli.parse_config(path.read_text())  # rejects unknown keys
        assert set(cfg) <= cli.EXPERIMENTS[cfg["experiment"]][1]

    def test_every_experiment_has_a_shipped_config(self):
        names = {cli.parse_config(p.read_text())["experiment"] for p in CONFIGS.glob("*.cfg")}
        assert names == set(cli.EXPERIMENTS)


class TestRunner:
    def test_unknown_experiment(self, tmp_path):
        cfg = write_cfg(tmp_path, "experiment = no-such-thing\n")
        with pytest.raises(cli.ConfigError, match="valid"):
            cli.run(cfg, str(tmp_path / "out"))

    def test_exit_codes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "experiment = no-such-thing\n")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["out", "config"])
    def test_file_system_error_names_the_path(self, tmp_path, capsys, bad):
        # --out an existing regular file, --config a directory: no traceback
        cfg = write_cfg(tmp_path, "experiment = distance-moments\nn = 10\nreplications = 3\n")
        out = tmp_path / "out"
        if bad == "out":
            out.write_text("kept\n")
            path = str(out)
        else:
            cfg = path = str(tmp_path / "configs")
            os.mkdir(cfg)
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(path) in err
        assert not out.is_dir()  # no output directory, so no artifact

    def test_manifest_contents(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = distance-moments\nn = 100\nreplications = 50\nseed = 9\n",
        )
        out = tmp_path / "out"
        artifacts = cli.run(cfg, str(out))
        assert "manifest.json" in artifacts
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "distance-moments"
        assert manifest["seed"] == 9
        assert manifest["artifacts"] == ["distance_moments.csv"]
        assert len(manifest["config_sha256"]) == 64

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(
            tmp_path, "experiment = distance-moments\nn = 200\nreplications = 50\nseed = 1\n"
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
            "experiment = theory-vs-mc\nn = 2000\nreplications = 60\nseed = 5\n",
        )
        cli.run(cfg, str(tmp_path / "a"))
        cli.run(cfg, str(tmp_path / "b"))
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    @pytest.mark.parametrize("experiment", ["distance-moments", "theory-vs-mc"])
    def test_boundary_p_rejected(self, tmp_path, capsys, experiment):
        for p in ("0,0.5,0.5", "-0.1,0.6,0.5"):
            cfg = write_cfg(
                tmp_path, f"experiment = {experiment}\np = {p}\nn = 100\nreplications = 5\n"
            )
            out = tmp_path / "out"
            assert cli.main(["--config", cfg, "--out", str(out)]) == 2
            assert "bad value for 'p'" in capsys.readouterr().err, p
            assert not (out / "manifest.json").exists()

    def test_p_off_one_by_rounding_is_renormalised(self, tmp_path):
        # a sum 2e-10 off 1 is renormalised: the run writes the bytes of a
        # run given the renormalised entries
        drifted = np.array([0.2, 0.3000000002, 0.5])
        exact = ",".join("%.17g" % x for x in drifted / drifted.sum())
        blobs = []
        for p in ("0.2,0.3000000002,0.5", exact):
            text = SMALL_CONFIGS["distance-moments"].replace("p = 0.2,0.3,0.5", f"p = {p}")
            cli.run(write_cfg(tmp_path, "experiment = distance-moments\n" + text),
                    str(tmp_path / "out"))
            blobs.append({name: blob for name, blob in read_all(tmp_path / "out").items()
                          if name != "manifest.json"})
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "experiment", ["fisher-bias-vs-t", "filtering-comparison", "theory-vs-mc"])
    def test_empty_list_rejected(self, tmp_path, capsys, experiment):
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\nn = ,\n")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "bad value for 'n'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment", ["fisher-bias-vs-t", "filtering-comparison", "theory-vs-mc"])
    def test_single_n_rejects_list(self, tmp_path, capsys, experiment):
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\nn = 1000,5\n")
        assert cli.main(["--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "bad value for 'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ("experiment = model-trajectory\ncount = 1\n", "sampling instants"),
        ("experiment = model-trajectory\nell = 20\n", "n_clusters"),
        ("experiment = elbow-scan\ngroups = 50\n", "no elbow"),
        ("experiment = model-trajectory\ns0 = 1.05\n", "initial fraction s0 = 1.05 outside"),
        ("experiment = model-trajectory\ndt = 0\n", "bad value for 'dt'"),
        ("experiment = model-trajectory\nfine_step = nan\n", "bad value for 'fine_step'"),
        ("experiment = model-trajectory\nt_end = inf\n", "bad value for 't_end'"),
        ("experiment = model-trajectory\noutput_stride = 0\n", "bad value for 'output_stride'"),
        ("experiment = model-trajectory\noutput_stride = -3\n", "bad value for 'output_stride'"),
        ("experiment = info-rate-moments\nt = 1.01\n",
         "time 1.01 is not a point of the grid of step 0.0125"),
        ("experiment = filtering-comparison\nshape = nan\n", "bad value for 'shape'"),
        ("experiment = filtering-comparison\nshape = inf\n", "bad value for 'shape'"),
        ("experiment = filtering-comparison\nhalf_width = -1\n", "bad value for 'half_width'"),
        ("experiment = fisher-bias-vs-n\nn = 0\n", "bad value for 'n'"),
        ("experiment = theory-vs-mc\nn = 0\n", "bad value for 'n'"),
        ("experiment = model-trajectory\nN = 0\n", "bad value for 'N'"),
        ("experiment = model-trajectory\nN = -3\n", "bad value for 'N'"),
        ("experiment = fisher-bias-vs-n\nreplications = 1\n", "bad value for 'replications'"),
        ("experiment = fisher-bias-vs-t\ncount = 1\n", "bad value for 'count'"),
        ("experiment = model-trajectory\nell = 0\n", "bad value for 'ell'"),
        ("experiment = elbow-scan\nell = 0,4,5,6\n", "bad value for 'ell'"),
        ("experiment = elbow-scan\ngroups = 9,0\n", "bad value for 'groups'"),
        ("experiment = model-trajectory\nN = 3\ngamma = nan,1,1,1\n",
         "bad value for 'gamma': 'nan,1,1,1' (entry 0 = nan must be finite and at least 0)"),
        ("experiment = model-trajectory\nepsilon = 1,1,-1,1,1,1,1,1,1,1\n",
         "bad value for 'epsilon'"),
        ("experiment = model-trajectory\nN = 1\ni0 = 0.05,inf\n", "bad value for 'i0'"),
        ("experiment = model-trajectory\ngamma = 1,2\n",
         "bad value for 'gamma': '1,2' (2 entries for N + 1 = 10 variants)"),
        ("experiment = model-trajectory\ns0 = nan\n", "bad value for 's0'"),
        ("experiment = model-trajectory\nr0 = -1\n", "bad value for 'r0'"),
        ("experiment = fisher-bias-vs-n\nt = inf\n", "bad value for 't'"),
        ("experiment = elbow-scan\nt = nan\n", "bad value for 't'"),
        ("experiment = elbow-scan\nt = 20\n",
         "bad value for 't': t must lie on the model grid (time 20.0 outside"),
        ("experiment = elbow-scan\nt = 1.01\n",
         "bad value for 't': t must lie on the model grid (time 1.01 is not a point"),
        ("experiment = fisher-bias-vs-t\nt0 = -1\n", "bad value for 't0'"),
        ("experiment = theory-vs-mc\nt = 100\n", "time 100.0 outside trajectory domain"),
        ("experiment = fisher-bias-vs-t\nt0 = 1.9\n",
         "bad value for 't0': 1.9 is less than one step dt = 0.25 before t_end = 2.0"),
        ("experiment = model-trajectory\nt0 = 3\n", "bad value for 't0'"),
        ("experiment = model-trajectory\ns0 = 1\n",
         "bad value for 's0': s0 = 1.0 and r0 = 0.0 leave no initial infected fraction"),
        ("experiment = model-trajectory\ns0 = 0.5\nr0 = 0.5\n",
         "bad value for 's0': s0 = 0.5 and r0 = 0.5"),
        ("experiment = model-trajectory\ngroups = 2,2\ns0 = 1\n",
         "bad value for 's0': s0 = 1.0 and r0 = 0.0"),
        ("experiment = elbow-scan\ns0 = 0.5\nr0 = 0.5\n",
         "bad value for 's0': s0 = 0.5 and r0 = 0.5"),
        ("experiment = model-trajectory\ngroups = 2,2\ngamma = 1,2,3,4\n",
         "keys 'groups' and 'gamma' cannot both be set"),
        ("experiment = elbow-scan\ngroups = 9,9\nN = 20\n",
         "keys 'groups' and 'N' cannot both be set"),
        ("experiment = theory-vs-mc\ngroups = 2,2\ni0 = 0.1,0.1,0.1,0.1\n",
         "keys 'groups' and 'i0' cannot both be set"),
        ("experiment = elbow-scan\nN = 3\n",
         "bad value for 'ell': 5 clusters for 4 variants"),
        ("experiment = elbow-scan\nell = 4,5,6\n", "bad value for 'ell'"),
        ("experiment = elbow-scan\nell = 4,6,5,7\n", "bad value for 'ell'"),
        ("experiment = elbow-scan\ngroups = 2,2,2\nell = 4,5,6,7\n",
         "bad value for 'ell': 7 clusters for 6 variants"),
        ("experiment = info-rate-moments\nN = 3\nell = 5\n",
         "bad value for 'ell': 5 clusters for 4 variants"),
        ("experiment = distance-moments\np = 1\n", "bad value for 'p'"),
        ("experiment = theory-vs-mc\np = 1\n", "bad value for 'p'"),
        ("experiment = fisher-bias-vs-n\nt = 0\n", "bad value for 't'"),
        ("experiment = info-rate-moments\nt = 2\n", "bad value for 't'"),
        ("experiment = fisher-bias-vs-t\ncount = 100\n",
         "bad value for 'count': 100 instants from t0 = 0.0 at step dt = 0.25 end at 24.75"),
        ("experiment = model-trajectory\nt0 = 1\ncount = 6\n", "bad value for 'count'"),
        ("experiment = distance-moments\np = 0.5,0.6\n",
         "bad value for 'p': '0.5,0.6' (probabilities sum to 1.1, not 1)"),
        ("experiment = theory-vs-mc\np = 0.2,0.3,0.5000001\n", "bad value for 'p'"),
        ("experiment = fisher-bias-vs-t\nfine_step = 0.002\n",
         "bad value for 'fine_step': dt/2 = 0.125 (dt = 0.25) is not a whole number of fine "
         "steps 0.002"),
        ("experiment = filtering-comparison\nt0 = 0.5\ncount = 5\nfine_step = 0.002\n",
         "bad value for 'fine_step': dt/2 = 0.125 (dt = 0.25)"),
        ("experiment = fisher-bias-vs-n\nfine_step = 0.002\n",
         "bad value for 'fine_step': dt/2 = 0.125 (dt = 0.25)"),
        ("experiment = info-rate-moments\nt = 1\nfine_step = 0.002\n",
         "bad value for 'fine_step': dt/2 = 0.125 (dt = 0.25)"),
        ("experiment = theory-vs-mc\nt = 1\ndt = 0.5\nfine_step = 0.1\n",
         "bad value for 'fine_step': dt/2 = 0.25 (dt = 0.5) is not a whole number of fine "
         "steps 0.1"),
        ("experiment = model-trajectory\nfine_step = 0.03\n",
         "bad value for 'fine_step': dt = 0.25 is not a whole number of fine steps 0.03"),
        ("experiment = elbow-scan\nfine_step = 0.03\n",
         "bad value for 'fine_step': dt = 0.25 is not a whole number of fine steps 0.03"),
        ("experiment = fisher-bias-vs-t\nfine_step = 0.03\n",
         "bad value for 'fine_step': dt/2 = 0.125 (dt = 0.25)"),
        ("experiment = model-trajectory\nfine_step = 0.5\n",
         "bad value for 'fine_step': dt = 0.25 is not a whole number of fine steps 0.5"),
        ("experiment = fisher-bias-vs-t\nt0 = 0.01\n",
         "bad value for 't0': t0 must lie on the model grid (time 0.01 is not a point"),
        ("experiment = model-trajectory\nt0 = 0.01\n", "bad value for 't0'"),
        ("experiment = filtering-comparison\nt0 = 0.01\ncount = 5\n", "bad value for 't0'"),
        ("experiment = distance-moments\nt = 3\n",
         "key 't' is not read by experiment 'distance-moments'"),
        ("experiment = model-trajectory\nn = 100\n",
         "key 'n' is not read by experiment 'model-trajectory'"),
        ("experiment = fisher-bias-vs-n\nell = 3\n",
         "key 'ell' is not read by experiment 'fisher-bias-vs-n'"),
        ("experiment = fisher-bias-vs-t\nt = 3\nell = 4\np = 0.5,0.5\nhalf_width = 2\n",
         "key 't' is not read by experiment 'fisher-bias-vs-t'"),
        ("experiment = info-rate-moments\np = 0.5,0.5\n",
         "key 'p' is not read by experiment 'info-rate-moments'"),
        ("experiment = filtering-comparison\nreplications = 10\n",
         "key 'replications' is not read by experiment 'filtering-comparison'"),
        ("experiment = elbow-scan\ncount = 5\n",
         "key 'count' is not read by experiment 'elbow-scan'"),
        ("experiment = theory-vs-mc\nt0 = 1\n",
         "key 't0' is not read by experiment 'theory-vs-mc'"),
        ("experiment = distance-moments\nn = 100,,1000\n",
         "bad value for 'n': '100,,1000' (empty entry"),
        ("experiment = theory-vs-mc\np = 0.5,0.5,\n", "bad value for 'p': '0.5,0.5,' (empty entry"),
        ("experiment = distance-moments\nn = 100\nn = 200\n",
         "line 3: key 'n' is already set on line 2"),
        ("experiment = elbow-scan\nt_end = 0.2\nt = 0.1\n",
         "bad value for 't_end': 0.2 is less than one sampling step dt = 0.25"),
        ("experiment = fisher-bias-vs-t\nt_end = 0.2\n",
         "bad value for 't_end': 0.2 is less than one sampling step dt = 0.25"),
    ])
    def test_bad_input_writes_no_artifact(self, tmp_path, capsys, text, error):
        if not text.startswith("experiment = distance-moments") and "t_end" not in text:
            text = "t_end = 2\n" + text  # a short model; distance-moments reads no t_end
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("cfg_seed, flag", [
        ("-1", None), ("18446744073709551616", None), ("1.5", None), ("1", "-1"),
    ])
    def test_seed_outside_u64_rejected(self, tmp_path, capsys, cfg_seed, flag):
        cfg = write_cfg(tmp_path, f"experiment = distance-moments\nseed = {cfg_seed}\n")
        out = tmp_path / "out"
        argv = ["--config", cfg, "--out", str(out)] + (["--seed", flag] if flag else [])
        assert cli.main(argv) == 2
        assert "bad value for 'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, "experiment = distance-moments\nn = 10\nreplications = 3\n")
        cli.run(cfg, str(tmp_path / "out"), seed_override=(1 << 64) - 1)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == (1 << 64) - 1


# A small config of every experiment, each key of which the experiment reads.
SMALL_CONFIGS = {
    "distance-moments": "p = 0.2,0.3,0.5\nn = 50,100\nreplications = 4\nseed = 3\n",
    "model-trajectory": ("N = 3\ndt = 0.25\nt_end = 1\nfine_step = 0.0125\nt0 = 0\ncount = 4\n"
                         "ell = 2\noutput_stride = 4\ns0 = 0.9\nr0 = 0.05\nseed = 3\n"),
    "fisher-bias-vs-n": ("N = 3\nt = 0.5\nt_end = 1\nn = 100,200\nreplications = 4\n"
                         "gamma = 1.5,1.8,2.1,2.5\nepsilon = 0.9,1,1,1.1\n"
                         "i0 = 0.01,0.01,0.02,0.01\ns0 = 0.95\n"),
    "fisher-bias-vs-t": "N = 3\nn = 100\nreplications = 4\nt0 = 0.25\ncount = 3\nt_end = 1\n",
    "info-rate-moments": "N = 3\nt = 0.5\nt_end = 1\nn = 100\nreplications = 4\nell = 2\n",
    "filtering-comparison": ("N = 3\nn = 1000\nt0 = 0.25\ncount = 5\nt_end = 2\n"
                             "half_width = 1\nshape = 0.5\n"),
    "elbow-scan": "groups = 3,3,2,2,2,2\nell = 4,5,6,7\nt = 0.5\nt_end = 2\n",
    "theory-vs-mc": ("N = 3\nt = 0.5\nt_end = 1\nn = 100\nreplications = 4\nell = 2\n"
                     "p = 0.2,0.3,0.5\n"),
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


# the sample size, replications and cluster count of a quick run, as far as
# the experiment reads them
SMALL_RUN_KEYS = {
    "fisher-bias-vs-t": "n = 1000\nreplications = 3\n",
    "info-rate-moments": "n = 1000\nreplications = 3\nell = 2\n",
    "model-trajectory": "ell = 2\n",
}


class TestExperiments:
    def test_fisher_bias_vs_n_layout(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = fisher-bias-vs-n\nn = 5000\nreplications = 40\nseed = 2\n",
        )
        out = tmp_path / "out"
        cli.run(cfg, str(out))
        rows = (out / "fisher_bias_vs_n.csv").read_text().strip().splitlines()
        assert rows[0] == "n,mc_mean,mc_se,theory_mean,theory_sd"
        assert len(rows) == 2
        values = rows[1].split(",")
        assert values[0] == "5000"
        assert float(values[1]) > 0

    def test_model_trajectory_artifacts(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = model-trajectory\nN = 4\nt_end = 4\nfine_step = 0.002\nell = 2\n",
        )
        out = tmp_path / "out"
        artifacts = cli.run(cfg, str(out))
        assert set(artifacts) == {"trajectory.csv", "clustering.csv", "fisher.csv", "manifest.json"}
        fisher = np.loadtxt(out / "fisher.csv", delimiter=",", skiprows=1)
        assert np.all(fisher[:, 1] >= fisher[:, 2] - 1e-12)  # g_tt >= g_f

    def test_elbow_scan_finds_constructed_groups(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = elbow-scan\nfine_step = 0.002\nseed = 1\n",
        )
        out = tmp_path / "out"
        cli.run(cfg, str(out))
        assert (out / "elbow_summary.csv").read_text() == "ell_star,6\n"

    def test_info_rate_moments_rows(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "experiment = info-rate-moments\nn = 3000\nreplications = 40\nell = 2\nseed = 4\n",
        )
        out = tmp_path / "out"
        cli.run(cfg, str(out))
        rows = (out / "info_rate_variants.csv").read_text().strip().splitlines()
        assert rows[0] == "n,idx,mc_mean,mc_se,mc_var,theory_mean,theory_var"
        assert len(rows) == 1 + 10
        clusters = (out / "info_rate_clusters.csv").read_text().strip().splitlines()
        assert len(clusters) == 1 + 2

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
            rows = (out / "fisher_bias_vs_t.csv").read_text().strip().splitlines()
            assert len(rows) == 1 + 40
            assert rows[-1].startswith("9.875,")

    @pytest.mark.parametrize("experiment", ["fisher-bias-vs-t", "model-trajectory"])
    def test_t0_without_count_ends_at_t_end(self, tmp_path, experiment):
        # the default grid runs from t0 to its last instant not after t_end
        cfg = write_cfg(tmp_path, f"experiment = {experiment}\nt0 = 1\nseed = 8\n"
                                  + SMALL_RUN_KEYS[experiment])
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        if experiment == "fisher-bias-vs-t":
            rows = (out / "fisher_bias_vs_t.csv").read_text().strip().splitlines()
            assert len(rows) == 1 + 36
            assert rows[1].startswith("1.125,") and rows[-1].startswith("9.875,")

    def test_off_grid_time_runs_on_a_finer_step(self, tmp_path, capsys):
        # 5.01 is no point of the default dt/20 grid, but one of a 0.001 grid
        text = ("experiment = info-rate-moments\nt = 5.01\nt_end = 6\nn = 1000\n"
                "replications = 5\nell = 2\n")
        out = tmp_path / "out"
        assert cli.main(["--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert "time 5.01 is not a point of the grid of step 0.0125" in capsys.readouterr().err
        cfg = write_cfg(tmp_path, text + "fine_step = 0.001\n")
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0

    @given(step=st.sampled_from([0.005, 0.01, 0.0125, 0.02]), stride=st.integers(1, 60),
           first=st.integers(0, 300), t_end=st.floats(0.5, 4.0))
    @example(step=0.0125, stride=20, first=7, t_end=3.1)  # t0 = 0.0875, dt = 0.25
    @example(step=0.01, stride=30, first=290, t_end=3.0)  # less than one dt before t_end
    @settings(max_examples=100, deadline=None)
    def test_grid_rows_are_the_rows_of_the_sampling_times(self, step, stride, first, t_end):
        # the float rule that the row arithmetic replaced: instants t0 + k dt,
        # as many as end by the rule of the model grid, each located by index_at;
        # t0, dt and t_end are decimals as a config gives them
        t0, dt, t_end = round(first * step, 10), round(stride * step, 10), round(t_end, 3)
        traj = cli.dyn.integrate_sir(cli.dyn.default_sir_params(2), t_end, step)
        if t0 + dt > traj.t_end + 1e-9:
            key = "t0" if t0 else "t_end"  # with t0 = 0, t_end is too short
            with pytest.raises(cli.ConfigError, match=f"bad value for '{key}'"):
                cli._grid(traj, dt, t0)
            return
        count = cli.dyn.grid_steps(traj.t_end - t0, dt) + 1
        want = [traj.index_at(t0 + k * dt) for k in range(count)]
        assert cli._grid(traj, dt, t0).tolist() == want
        assert cli._grid(traj, dt, t0, 2).tolist() == want[:2]

    def test_model_integrates_two_runs_per_grid_step(self, monkeypatch):
        # the mc-wide benchmark model: RK4 at dt/20 and dt/40 up to t_end = 6
        steps = []
        integrate = cli.dyn.integrate_sir

        def counted(params, t_end, step):
            steps.append(round(t_end / step))
            return integrate(params, t_end, step)

        monkeypatch.setattr(cli.dyn, "integrate_sir", counted)
        traj, dt = cli._model(cli.parse_config(
            "experiment = info-rate-moments\nN = 999\nt = 5\nt_end = 6\n"))
        assert steps == [480, 960]
        assert traj.times.size == 481 and traj.step == dt / 20


# one small config of each experiment that writes an mc_var cell, the file,
# and which rows of which column hold the variances
MC_VAR_CELLS = {
    "distance-moments": ("p = 0.2,0.3,0.5\nn = 50,100\nreplications = 4\n",
                         ["distance_moments.csv"], "mc_var"),
    "info-rate-moments": ("N = 3\nt = 0.5\nt_end = 1\nn = 100\nreplications = 4\nell = 2\n",
                          ["info_rate_variants.csv", "info_rate_clusters.csv"], "mc_var"),
    "theory-vs-mc": ("N = 3\nt = 0.5\nt_end = 1\nn = 100\nreplications = 4\nell = 2\n",
                     ["theory_vs_mc.csv"], "mc_value"),
}


def square_differs_from_pow():
    """A float64 x of a fixed stream whose product x * x differs from x ** 2
    (libm's pow) on the running platform; the first of the stream if there
    is none."""
    xs = np.random.default_rng(0).random(10**4)
    return next((x for x in xs if x ** 2 != x * x), xs[0])


class TestVarianceCells:
    @pytest.mark.parametrize("experiment", sorted(MC_VAR_CELLS))
    def test_mc_var_is_the_product_std_times_std(self, tmp_path, monkeypatch, experiment):
        # every Monte Carlo std is replaced by x; each variance cell must read
        # back as x * x, the correctly rounded square, not as pow(x, 2)
        x = square_differs_from_pow()
        monte_carlo = cli.smp.monte_carlo_components

        def fixed_std(*args):
            est = monte_carlo(*args)
            std = x if np.ndim(est.std) == 0 else np.full(est.std.shape, x)
            return cli.smp.MonteCarloEstimate(est.mean, std, est.standard_error,
                                              est.replications)

        monkeypatch.setattr(cli.smp, "monte_carlo_components", fixed_std)
        text, files, column = MC_VAR_CELLS[experiment]
        cli.run(write_cfg(tmp_path, f"experiment = {experiment}\n" + text), str(tmp_path / "o"))
        cells = []
        for name in files:
            header, *rows = [line.split(",") for line in
                             (tmp_path / "o" / name).read_text().splitlines()]
            j = header.index(column)
            cells += [row[j] for row in rows if header[0] != "quantity" or "_var" in row[0]]
        assert cells and all(float(cell) == x * x for cell in cells), (x, cells)


class TestShippedOutputs:
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
