"""Smoke test of the benchmark itself: every workload at tiny size.

    PYTHONPATH=src python -m pytest perfbench -q -p no:cacheprovider

Uses the repository's ``spark`` fixture (``conftest.py``). Each workload
runs traced, which also yields the end-to-end figures: one warm-up batch
and two timed ones (one untraced, one traced).
"""
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import bench

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_tiny(spark, name):
    w = replace(bench.WORKLOADS[name], sf=0.001, fixed_batches=2)
    out = bench.run(spark, w, seed=3, seconds=0, trace=True, root=ROOT)
    assert out["correct"], out["failures"]
    assert out["failed"] == 0 and out["attempted"] == 3
    assert out["end_to_end"]["error_rate"] == 0
    for group in ("end_to_end", "per_layer"):
        for m in SPEC[group]:
            assert math.isfinite(out[group][m["name"]]), m["name"]
    assert out["per_layer"]["planner.b_vec"] * \
        out["per_layer"]["planner.b_dim"] == 4
    assert out["spans"], "traced run recorded no spans"


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sift-b16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
