"""Smoke runs of every workload: clean, complete, and as BENCHMARK.json says."""

import json
import shutil
import subprocess
import sys

import pytest

import run
from record import ROOT, load_spec

SPEC = load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]

OWN_LAYERS = {
    "table2-sweep": ["dram.controller.issue_calls", "core.lowering.calls", "dram.burst.calls",
                     "table2.BERTs1.cycles", "ladder.tfaw.gpu_speedup", "model_err_pct"],
    "serve-trace": ["serving.gateway.self_s", "serving.replica.batch_s",
                    "dram.fastpath.replay_calls", "p99_cycles", "max_load", "goodput_frac"],
    "models-e2e": ["core.datapath.self_s", "core.datapath.macs_per_s", "host.runtime.self_s",
                   "host.runtime.load_s"],
    "decode-session": ["host.graph_runtime.self_s", "host.graph_runtime.store_s",
                       "host.graph_runtime.open_s", "host.graph_runtime.fused_frac",
                       "host.graph_runtime.kv_bytes_saved", "step_p99_cycles"],
}
"""Per-layer metrics each workload must exercise (nonzero)."""


@pytest.fixture(scope="module", params=NAMES)
def untraced(request):
    return run.measure(request.param, 3, 0, smoke=True)


@pytest.fixture(scope="module", params=NAMES)
def traced(request):
    return run.measure(request.param, 3, 0, smoke=True, trace=True)


def test_untraced_record_has_every_end_to_end_metric(untraced):
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    line = json.loads(run.result_line(untraced, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_record_has_every_per_layer_metric(traced):
    assert traced["correct"] and traced["failed"] == 0
    line = json.loads(run.result_line(traced, SPEC))
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    values = {name: m["value"] for name, m in line["metrics"].items()}
    assert all(values[name] > 0 for name in OWN_LAYERS[traced["workload"]]), values


def test_timing_only_workloads_never_touch_the_datapath(traced):
    if traced["workload"] in ("table2-sweep", "serve-trace"):
        assert traced["layers"]["core.datapath.self_s"] == 0.0


def test_simulated_results_repeat_exactly():
    first = run.measure("table2-sweep", 5, 0, smoke=True)
    second = run.measure("table2-sweep", 6, 0, smoke=True)
    assert first["sim"] == second["sim"]
    assert first["metrics"]["sim_cycles"] == second["metrics"]["sim_cycles"]


def test_refuses_to_run_without_the_package(tmp_path):
    """A directory holding only BENCHMARK.json and bench/ cannot run the
    benchmark: it must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    command = ["--workload", "table2-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(
        [sys.executable, "bench/run.py", *command],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
