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
    assert len(CONFIGS) == 6
    for cfg in CONFIGS:
        assert (tmp_path / cfg.stem / "manifest.json").is_file(), cfg.stem


def test_bad_seed_exits_2_without_a_traceback(tmp_path):
    done = run_script("--out", str(tmp_path / "out"), "--seed", "-1")
    assert done.returncode == 2
    assert done.stderr == "error: bad value for 'seed': '-1' (must lie in [0, 2**64))\n"
    assert not (tmp_path / "out").exists()


def test_shipped_configs_do_not_load_numpy_ma(tmp_path):
    # numpy.ma costs about 15 ms to import, and np.unique without index or
    # count outputs imports it lazily; no run needs it.  Nor does a run load
    # a test-only package: numpy is the one runtime dependency
    # (pyproject.toml), and an import of another would pass wherever the
    # test extras are installed
    code = ("import runpy, sys\n"
            "sys.argv = [sys.argv[1], '--out', sys.argv[2]]\n"
            "try:\n"
            "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert not exc.code, exc.code\n"
            "print(sorted(name for name in ('numpy.ma', 'scipy', 'mpmath', 'sympy',\n"
            "                               'hypothesis', 'pytest') if name in sys.modules))\n")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", code, str(SCRIPT), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert all((tmp_path / cfg.stem / "manifest.json").is_file() for cfg in CONFIGS)
