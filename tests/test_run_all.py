import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_all.py"
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.cfg"))


def run_script(*args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, str(SCRIPT), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_every_shipped_config_writes_a_manifest(tmp_path):
    done = run_script("--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert len(CONFIGS) == 7
    for cfg in CONFIGS:
        assert (tmp_path / cfg.stem / "manifest.json").is_file(), cfg.stem


def test_bad_seed_exits_2_without_a_traceback(tmp_path):
    done = run_script("--out", str(tmp_path / "out"), "--seed", "-1")
    assert done.returncode == 2
    assert done.stderr == "error: bad value for 'seed': '-1' (must lie in [0, 2**64))\n"
    assert not (tmp_path / "out").exists()
