"""Smoke test of the benchmark itself.

Runs every workload of ``BENCHMARK.json`` at a tiny scale factor, untraced
and traced, and checks that each prints every named metric with its unit
and that every answer matched the CPU reference.  Run from the
repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@functools.cache
def result(workload: str, trace: int) -> dict:
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit(workload, trace, section):
    doc = result(workload, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1  # failed_frac == 0
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(doc["metrics"]) == set(units)
    for name, unit in units.items():
        metric = doc["metrics"][name]
        assert metric["unit"] == unit, name
        assert isinstance(metric["value"], (int, float)), name
        if section == "end_to_end":
            assert metric["value"] > 0, name


def test_traced_layers_see_their_workloads():
    hot = result("tpch-hot", 1)["metrics"]
    assert hot["core.buffer_manager.hit_ratio"]["value"] == 1.0
    assert hot["core.buffer_manager.spilled_bytes"]["value"] == 0
    # factorize_keys is reached through kernels.groupby / kernels.join.
    assert hot["kernels.factorize_keys_s"]["value"] > 0
    assert hot["sched.estimates"]["value"] == 0
    ooc = result("tpch-ooc-cold", 1)["metrics"]
    assert ooc["core.fused_kernels"]["value"] > 0
    assert ooc["core.buffer_manager.cold_loads"]["value"] > 0
    fleet = result("fleet-param", 1)["metrics"]
    assert fleet["fleet.result_cache_hit_ratio"]["value"] < 0.5
    assert fleet["fleet.plan_cache_hit_ratio"]["value"] > 0
    assert fleet["sched.estimates"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
