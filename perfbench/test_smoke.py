"""Smoke test of the benchmark harness, with no timing gate.

    python -m pytest perfbench

Runs every workload in its micro-size smoke mode, untraced and traced, and
checks the result line against BENCHMARK.json: the exact keys, every metric
with its unit, all outputs correct. A broken harness fails here before a
performance change relies on it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# layers whose metrics must hold a measurement in every traced run
MEASURED = (
    "tensor.nodes_per_step",
    "tensor.matmul.fwd_ms",
    "moe.routed_rows_per_step",
    "train.bwd_ms",
    "trace.write_ms_per_step",
    "trace.read_records_per_s.bin",
    "analytics.count_routing_ms",
    "placement.evaluate_workload_ms",
    "gradcheck.end_to_end_s",
)


def run_bench(root: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    result = result_of(run_bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if trace:
        assert all(values[name] > 0 for name in MEASURED), {name: values[name] for name in MEASURED}
    else:
        assert all(v > 0 for v in values.values()), values


def test_counts_repeat_exactly():
    first, second = (result_of(run_bench(ROOT, "train-short-seq", 1))["metrics"] for _ in range(2))
    counts = [k for k, v in first.items() if v["unit"] in ("count", "B") or "flop_imbalance" in k]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
