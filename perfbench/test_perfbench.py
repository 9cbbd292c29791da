"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker._load_infodyn(ROOT)


def _small_invocations(tmp_path):
    """The warm-up configs cover every experiment the workloads run.

    Their 2 replications are too few for the z check, so they get 30.
    """
    out = []
    for i, (experiment, cfg) in enumerate(workloads.WARMUP.items()):
        if "replications" in cfg:
            cfg = dict(cfg, replications=30)
        text = workloads.config_text(cfg, 100 + i)
        out.append((experiment, 100 + i, worker._write_config(str(tmp_path), f"c{i}", text)))
    return out


def test_self_times_sum_to_traced_wall_and_artifacts_match(tmp_path):
    invocations = _small_invocations(tmp_path)
    plain = worker.run_invocations(cli, invocations, str(tmp_path), "plain")
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced = worker.run_invocations(cli, invocations, str(tmp_path), "traced")
    finally:
        undo()
    assert all(r["ok"] for r in plain + traced)
    result = dict(plain=plain, traced=traced, spans={
        name: [tracer.calls[name], tracer.self_s[name]] for name in tracing.span_names()})
    assert run.trace_problems(result) == []
    traced_wall = sum(r["seconds"] for r in traced)
    assert sum(tracer.self_s.values()) == pytest.approx(traced_wall, abs=1e-3 * len(traced))
    assert tracer.calls["cli.run"] == len(invocations)
    # every traced function the package still defines, except the two that
    # only distance-moments and theory-vs-mc call, is reached
    present = {name for name, _ in tracing._targets()}
    assert present - {"sampling.monte_carlo", "sampling.clustered_fisher_hat"} == \
        {name for name in present if tracer.calls[name] > 0}


def test_traced_artifacts_that_differ_fail_the_invocation():
    def record(digest):
        return dict(ok=True, problems=[], seconds=1.0, digests={"a.csv": digest})
    result = dict(plain=[record("x")], traced=[record("y")], spans={"cli.run": [1, 1.0]})
    assert run.trace_problems(result) == []
    assert not result["traced"][0]["ok"] and result["traced"][0]["problems"]


def test_every_binding_is_traced_and_restored():
    from infodyn import clustering, sampling
    original = clustering.aggregate
    assert sampling.aggregate is original
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert clustering.aggregate is sampling.aggregate is not original
        f = clustering.Clustering([1, 1, 2])
        clustering.aggregate([1, 2, 3], f)
        sampling.aggregate([1, 2, 3], f)
    finally:
        undo()
    assert clustering.aggregate is sampling.aggregate is original
    assert tracer.calls["clustering.aggregate"] == 2


def test_missing_name_reports_zero_calls(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "rng", tracing.TRACED["rng"] + ("removed_fn",))
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    undo()
    assert "rng.removed_fn" in tracing.span_names()
    assert tracer.calls["rng.removed_fn"] == 0


def test_checks_flag_missing_nonfinite_and_far_rows(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"artifacts": ["a.csv", "gone.csv"]}))
    far = checks.Z_MAX * 2
    (tmp_path / "a.csv").write_text(
        "n,mc_mean,mc_se,theory_mean\n"
        "1,1.0,0.5,1.0\n"
        f"2,{1 + far},1.0,1.0\n"
        "3,nan,1.0,1.0\n")
    result = checks.check_outputs(str(tmp_path), ["a.csv"])
    assert not result.ok
    text = "\n".join(result.problems)
    assert "gone.csv" in text and "non-finite" in text and "|z|" in text
    assert result.z_rows == 2 and result.z_abs_max == pytest.approx(far)


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.invocations(name, 3, 2) == workloads.invocations(name, 3, 2)
        assert workloads.invocations(name, 3, 2) != workloads.invocations(name, 4, 2)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
