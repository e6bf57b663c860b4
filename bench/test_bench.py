"""Tests of the benchmark itself, on a tiny configuration of each workload.

    python3 -m pytest -q bench/test_bench.py

They show that correct outputs pass every check, that a corrupted output
counts as a failed operation, that the traced round reports every
per-layer metric of BENCHMARK.json, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
from inputs import read_gdm, write_gdm

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny_run(tmp_path, workload, trace=False):
    return bench.Run(workload, seed=7, seconds=0, trace=trace, work=tmp_path / "work", tiny=True)


def checked_round(tmp_path, workload):
    run = tiny_run(tmp_path, workload)
    run.make_inputs()
    result = run.round(1)
    run.check_round(result)
    assert run.failed == 0, run.ops
    return run, result, Path(result["dir"])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_workload_is_correct(tmp_path, workload):
    run = tiny_run(tmp_path, workload)
    metrics, details = run.measure()
    assert run.failed == 0, [op for op in run.ops if op["fails"]]
    per_round = len(run.commands(tmp_path))
    assert len(run.ops) == bench.SETUP_LAUNCHES + per_round * len(details["rounds"])
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_round_reports_every_per_layer_metric(tmp_path, workload):
    run = tiny_run(tmp_path, workload, trace=True)
    metrics, details = run.measure()
    assert run.failed == 0, [op for op in run.ops if op["fails"]]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    names = {s["name"] for s in details["spans"]}
    assert {"subspace.report", "conflict.report", "subspace.cca"} <= names


def test_swapped_group_is_a_failed_plan(tmp_path):
    run, result, out = checked_round(tmp_path, "plan-wide")
    plan_path = out / "plan" / "plan.json"
    plan = json.loads(plan_path.read_text())
    a, b = plan["grouping"]["groups"]
    a[0], b[0] = b[0], a[0]
    plan_path.write_text(json.dumps(plan))
    run.check_round(result)
    failed = {op["op"]: op["fails"] for op in run.ops if op["fails"]}
    assert "planted partition" in failed["round1-plan-0"][0]
    # decompose followed the plan the command wrote, not the corrupted file
    assert "routing" in failed["round1-decompose-1"][0]


def test_wrong_delta_is_a_failed_plan(tmp_path):
    run, result, out = checked_round(tmp_path, "plan-deep")
    report_path = out / "plan" / "report.json"
    report = json.loads(report_path.read_text())
    report["conflict"]["layers"][1]["delta"] += 1e-6
    report_path.write_text(json.dumps(report))
    run.check_round(result)
    failed = [op for op in run.ops if op["fails"]]
    assert [op["op"] for op in failed] == ["round1-plan-0"]
    assert "delta" in failed[0]["fails"][0]


def test_wrong_shared_factor_is_a_failed_decompose(tmp_path):
    run, result, out = checked_round(tmp_path, "plan-wide")
    path = out / "ffn" / "shared_up.gdm"
    write_gdm(path, read_gdm(path) * np.float32(1.001))
    run.check_round(result)
    assert [op["op"] for op in run.ops if op["fails"]] == ["round1-decompose-1"]


def test_unified_win_is_a_failed_simulate(tmp_path):
    run, result, out = checked_round(tmp_path, "simulate")
    path = out / "sim80" / "summary.json"
    summary = json.loads(path.read_text())
    for r in summary["runs"][:2]:
        r["unified"]["final_mean_loss"] = r["specialized"]["final_mean_loss"] / 2
    path.write_text(json.dumps(summary))
    run.check_round(result)
    assert [op["op"] for op in run.ops if op["fails"]] == ["round1-simulate-0"]


def test_unreadable_output_is_a_failed_operation(tmp_path):
    run, result, out = checked_round(tmp_path, "plan-wide")
    (out / "plan" / "report.json").write_text("{}")
    run.check_round(result)
    assert [op["op"] for op in run.ops if op["fails"]] == ["round1-plan-0"]


def test_changed_artifact_in_a_later_round_is_failed(tmp_path):
    run, first, _ = checked_round(tmp_path, "plan-wide")
    hashes = run.artifacts(Path(first["dir"]))
    second = run.round(2)
    ffn_meta = Path(second["dir"]) / "ffn" / "ffn.json"
    ffn_meta.write_text(ffn_meta.read_text() + " ")
    run.check_repeat(second, first, hashes)
    assert [op["op"] for op in run.ops if op["fails"]] == ["round2-decompose-1"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "simulate", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
