"""The CI workflow installs every test dependency that pyproject.toml lists,
and runs every benchmark workload, so that a new one cannot land in only
one of the two places, and the large-M benchmark script."""

import importlib.util
import pathlib
import re

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
