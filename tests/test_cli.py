import hashlib
import json
import os
import pathlib

import numpy as np
import pytest

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
            "8128555344640f83635c31ca7860c7a7cf5045e56fda742322cca415187f74d1",
        "elbow_summary.csv":
            "0e938bd8fbe33387602074136906a7d08fa981dd412dbf9023bcfd239b5e1e72",
        "manifest.json":
            "b56e334398be0cd5e6f71f2d49644a3cb0a458f200c58efcd2473e76ea8fef9e",
    },
    "filtering_comparison": {
        "filtering_rmse.csv":
            "c0d4490e321415d1f379a4c1fd5e981d538168855b45c36433d2965bc97b0e1d",
        "manifest.json":
            "902ed301c52b11332fe9486e33eeac441589e14b37d0e364512629e3e134f102",
    },
    "fisher_bias_vs_n": {
        "fisher_bias_vs_n.csv":
            "509d472aa47897ed24fae2745d8b4b9bd51834391395dce44c81e8462e21820e",
        "manifest.json":
            "ee4bced645cc4604b1393ac41bfdb86389000c48cb5ccb9c9778ed544c6c5d46",
    },
    "fisher_bias_vs_t": {
        "fisher_bias_vs_t.csv":
            "657aad1c6766296eaa307eef479d21cc7cc84b90e71225e05d00936e6585406d",
        "manifest.json":
            "8b9482fcfddf325f3ff7510b10b23d05641bb6c931bbb2b944217908643a8a12",
    },
    "info_rate_moments": {
        "clustering.csv":
            "00db0bb382c9031b7a8030244035ddf5509914214c2dafb1096ea511eded49a7",
        "info_rate_clusters.csv":
            "a72f05159c964ddc62829a1e18825f1438e3f731b54b60c15c91c24b5fe891c7",
        "info_rate_variants.csv":
            "6bf335980a77a83512bb8b3276ebd1f3acfc26c39384c21a9e3b206091f59b23",
        "manifest.json":
            "457f1c4284ce822a110d0a4cd6c6b18da55b967efb37ce32caefd1e072b9a0b7",
    },
    "model_trajectory": {
        "clustering.csv":
            "00db0bb382c9031b7a8030244035ddf5509914214c2dafb1096ea511eded49a7",
        "fisher.csv":
            "1ed25555c8aea9f797854ad89fac411f26479d778c7519ca53cbbd0742935fe3",
        "manifest.json":
            "cf425660d5aea4afaeb65c1bddb30b704838aec20db92393f544e431e2fedffd",
        "trajectory.csv":
            "39a8a0191e4b4af129e35b980e1b250115603c9a73b79e493fba16b7904a88fb",
    },
    "theory_vs_mc": {
        "manifest.json":
            "736b5ff19274d3c86c6545ac3aedfbf91a73c37a2c9b2e01c2dea38bc3beeda7",
        "theory_vs_mc.csv":
            "86fffe58175f1fa793b8b4858d11530bc9e34a9321b870a2c895f574cd87cf14",
    },
}


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
        assert cli._int_list("10, 20,") == [10, 20]
        assert cli._float_list("0.5,0.5") == [0.5, 0.5]
        for conv in (cli._int_list, cli._float_list):
            with pytest.raises(ValueError, match="empty"):
                conv(" , ")

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_is_valid(self, path):
        cfg = cli.parse_config(path.read_text())  # rejects unknown keys
        assert set(cfg) <= cli.KNOWN_KEYS
        assert cfg["experiment"] in cli.EXPERIMENTS

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
    ])
    def test_bad_input_writes_no_artifact(self, tmp_path, capsys, text, error):
        cfg = write_cfg(tmp_path, text + "t_end = 2\n")
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert list(out.iterdir()) == []


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
        cfg = write_cfg(
            tmp_path,
            f"experiment = {experiment}\nt_end = 10.2\nfine_step = 0.01\nn = 1000\n"
            "replications = 3\nell = 2\nseed = 8\n",
        )
        out = tmp_path / "out"
        assert cli.main(["--config", cfg, "--out", str(out)]) == 0
        if experiment == "fisher-bias-vs-t":
            rows = (out / "fisher_bias_vs_t.csv").read_text().strip().splitlines()
            assert len(rows) == 1 + 40
            assert rows[-1].startswith("9.875,")


class TestShippedOutputs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_outputs_match_pinned_digests(self, tmp_path, path):
        cli.run(str(path), str(tmp_path))
        got = {name: hashlib.sha256(blob).hexdigest() for name, blob in read_all(tmp_path).items()}
        assert got == SHIPPED_DIGESTS[path.stem], (
            f"{path.name} no longer writes the pinned bytes.  The digests assume numpy's "
            f"binomial sampler as in numpy 2.4.6 (this is numpy {np.__version__}); under the "
            "same numpy, a declared output change must update SHIPPED_DIGESTS and say so in "
            "CHANGES.md.")
