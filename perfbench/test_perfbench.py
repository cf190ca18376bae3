"""Smoke and tracer tests for the benchmark; run with ``pytest perfbench``.

Every workload runs at a tiny size through the same code path as a full
run: argument parsing, set-up and passes in child interpreters, gates and
the JSON result line.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest
import run  # sets the BLAS thread variables and the paths first
import tracer as tr

run._load_library()

import weakdet  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
NAMES = {trace: [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
         for trace in (0, 1)}


def _weakdet_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "weakdet" or name.startswith("weakdet.")
        for attr, value in vars(module).items()
        if callable(value)
    }


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_prints_every_metric(workload, trace, capsys):
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--size", "tiny",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == NAMES[trace]
    assert any(line.startswith("env ") for line in lines)
    if trace:
        record_path = os.path.join(run.OUT, "results", f"{workload}-seed3-trace1.json")
        with open(record_path) as fh:
            assert json.load(fh)["missing_layer_metrics"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_pass_keeps_trajectory_and_restores_bindings(tmp_path):
    from weakdet import evalmetrics, igcl, trainer

    wl = workloads.make("train_full", "tiny")
    inp = wl.setup(5, str(tmp_path))
    before = _weakdet_bindings()
    plain = wl.run_pass(inp, 0)

    tracer = tr.Tracer()
    tracer.install()
    try:
        original_iou = before[("weakdet.evalmetrics", "iou")]
        for module in (igcl, trainer, evalmetrics, weakdet):
            assert module.iou is not original_iou
        assert trainer.filter_proposals is not before[("weakdet.datamodel", "filter_proposals")]
        tracer.run_id = 1
        traced = wl.run_pass(inp, 0)
    finally:
        tracer.uninstall()

    assert traced.outputs["param_sha256"] == plain.outputs["param_sha256"]
    after = _weakdet_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    layers = tracer.layer_metrics([1])
    assert layers["trainer.forward_losses.calls"] == wl.epochs * wl.n_train
    assert layers["igcl.build_instance_graph.distinct_ratio"] == pytest.approx(1 / wl.epochs)
    assert layers["numerics.backward.calls"] == wl.epochs * wl.n_train
    assert layers["numerics.op.matmul.bwd_s"] > 0.0
    assert layers["evalmetrics.iou.calls"] > 0


def test_self_time_subtracts_children():
    tracer = tr.Tracer()
    tracer.run_id = 1
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    a = tracer.arrays()
    outer, inner = 1, 2
    assert a["self"][outer] == pytest.approx(a["dur"][outer] - a["dur"][inner])
    assert a["parent"][inner] == outer


def test_audit_bags_keep_clear_of_relu_kinks():
    """Seed 58's first draw of bag 1 has a relu input 1.8e-4 from zero, so
    central differences cross the kink there; it is drawn again, and the
    audit still catches a wrong gradient on the bag that replaces it."""
    from weakdet import gradcheck

    inp = workloads.make("gradcheck_audit").load(58, "")
    assert inp["redrawn"] == 1
    for bag, state, cfg in inp["items"]:
        assert workloads.relu_margin(bag, state, cfg) >= workloads.KINK_MARGIN
    bag, state, cfg = inp["items"][1]
    assert all(r.passed for r in gradcheck.check_bag(bag, state, cfg))
    assert not all(r.passed for r in gradcheck.check_bag(bag, state, cfg, corrupt=True))


def test_fails_without_the_library(tmp_path):
    """A directory holding only the benchmark files exits non-zero, silently."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert set(run.ALIASES) == set(run.WORKLOAD_NAMES)
