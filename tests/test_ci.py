"""The CI workflow installs every test dependency that pyproject.toml lists,
and runs every benchmark workload, so that a new one cannot land in only
one of the two places, and the large-M benchmark script; it compares the
shipped configs' outputs at one and two BLAS threads; the tests job has a
timeout; and, under pyproject.toml's warning filters, a failing property
test does not end the test session.  No line of the program, its scripts
or its tests is wider than 100 characters."""

import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def project(requirement):
    """The project name of a requirement such as `numpy==2.4.6`."""
    return re.split(r"[<>=!~\[; ]", requirement, maxsplit=1)[0]


def test_workflow_installs_every_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extras = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    workflow = WORKFLOW.read_text()
    line = re.search(r"pip install (numpy==.*)$", workflow, re.M).group(1)
    installed = line.split()
    # the pinned output digests assume numpy 2.4.6's binomial sampler
    assert "numpy==2.4.6" in installed
    assert {project(extra) for extra in extras} - {project(token) for token in installed} == set()


def test_workflow_runs_every_benchmark_workload():
    # perfbench/ is not a package: its workloads module is loaded by path
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    step = re.search(r"- name: Benchmark workloads\n(?:\s+.*\n)*?\s+for workload in (.*); do$",
                     WORKFLOW.read_text(), re.M)
    assert step is not None, "no 'for workload in ...' loop in the Benchmark workloads step"
    assert set(workloads.WORKLOADS) - set(step.group(1).split()) == set()


def test_workflow_runs_the_large_m_benchmark():
    # scripts/bench_large_m.py calls the model API directly, outside the
    # tests: a step runs it once, so that an API change cannot break it unseen
    assert (ROOT / "scripts" / "bench_large_m.py").is_file()
    step = re.search(r"^\s+run: python scripts/bench_large_m\.py --repeats 1$",
                     WORKFLOW.read_text(), re.M)
    assert step is not None, "no step runs 'python scripts/bench_large_m.py --repeats 1'"


def test_workflow_compares_outputs_at_two_threads():
    # README says the outputs are byte-identical at one and two OpenBLAS
    # threads: a step reruns every shipped config at two and diffs the trees
    workflow = WORKFLOW.read_text()
    one = re.search(r"^\s+python scripts/run_all\.py --out (\S+)$", workflow, re.M)
    assert one is not None, "no step runs 'python scripts/run_all.py' at the default thread"
    step = re.search(r"^\s+OPENBLAS_NUM_THREADS=2 python scripts/run_all\.py --out (\S+)\n"
                     r"\s+diff -r (\S+) (\S+)$", workflow, re.M)
    assert step is not None, "no step reruns run_all.py at two threads and diffs the outputs"
    assert {step.group(2), step.group(3)} == {one.group(1), step.group(1)}
    assert one.start() < step.start()


def test_tests_job_has_a_timeout():
    # a hung test fails the job within its timeout, not GitHub's 6-hour default
    job = re.search(r"^  tests:\n((?:    .*\n|\n)*)", WORKFLOW.read_text(), re.M)
    assert job is not None, "no 'tests' job in the workflow"
    minutes = re.search(r"^    timeout-minutes: (\d+)$", job.group(1), re.M)
    assert minutes is not None, "the 'tests' job sets no timeout-minutes"
    assert 1 <= int(minutes.group(1)) <= 60


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis reports a failing example through libcst, whose
    # DeprecationWarning filterwarnings = error turns into an INTERNALERROR
    # that skips every later test, unless pyproject.toml ignores it
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert re.search(r"^1 failed, 1 passed", done.stdout, re.M), done.stdout


def test_no_line_is_wider_than_100_characters():
    # src/, scripts/ and tests/ keep one width; perfbench/ is not checked
    wide = [f"{path.relative_to(ROOT)}:{lineno} ({len(line)})"
            for top in ("src", "scripts", "tests")
            for path in sorted((ROOT / top).rglob("*"))
            if path.suffix in {".py", ".cfg"}
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > 100]
    assert wide == []
