"""The CI workflow installs every test dependency that pyproject.toml lists,
so a new one cannot land in only one of the two places."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def project(requirement):
    """The project name of a requirement such as `numpy==2.4.6`."""
    return re.split(r"[<>=!~\[; ]", requirement, maxsplit=1)[0]


def test_workflow_installs_every_test_extra():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extras = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    line = re.search(r"pip install (numpy==.*)$", workflow, re.M).group(1)
    installed = line.split()
    # the pinned output digests assume numpy 2.4.6's binomial sampler
    assert "numpy==2.4.6" in installed
    assert {project(extra) for extra in extras} - {project(token) for token in installed} == set()
