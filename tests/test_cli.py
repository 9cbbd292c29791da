import json
import os
import pathlib

import numpy as np
import pytest

from infodyn import cli

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"


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
