"""Experiment harness: table row generators produce the paper's shapes,
the shape checks reject rows that break the paper's claims, and
``python -m repro.experiments`` writes the tables."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments.runner import DatasetBundle, ExperimentConfig, qps
from repro.experiments.tables import (
    EXPERIMENTS,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    ClaimFailed,
    fig6_rows,
    fig7_rows,
    fig9_rows,
    format_table,
    table2_rows,
    table3_row,
    table4_row,
    table5_row,
)

CFG = ExperimentConfig(sf=0.002, nlist=16, nprobe=6, k=5,
                       prewarm_per_cluster=8)


@pytest.fixture(scope="module")
def bundle(spark):
    b = DatasetBundle(spark, "sift1m", CFG)
    yield b
    b.close()


def test_paper_constants_cover_eight_small_sets():
    assert len(PAPER_TABLE3) == len(PAPER_TABLE4) == len(PAPER_TABLE5) == 8
    assert len(PAPER_TABLE2) == 10


def test_table2_rows_complete():
    rows = table2_rows(CFG)
    assert len(rows) == 10
    for r in rows:
        assert r["dim"] == r["paper_dim"]  # dims preserved exactly
        assert 0 < r["size"] < r["paper_size"]
        assert 16 <= r["queries"] <= 256


def test_table3_row_shape(bundle):
    row = table3_row(bundle)
    assert row["slice1"] == 0.0
    slices = [row[f"slice{i}"] for i in range(1, 5)]
    assert all(0 <= s <= 100 for s in slices)
    assert slices == sorted(slices)  # later slices prune more
    assert row["average"] == pytest.approx(np.mean(slices))


def test_table4_row_shape(bundle):
    row = table4_row(bundle)
    # distributed per-node memory ~ 1/4 of the single-node index
    for col in ("vector_mb", "dimension_mb", "harmony_mb"):
        assert row[col] < row["faiss_mb"] / 2
    # dimension partitioning carries the accumulator overhead
    assert row["dimension_mb"] > row["vector_mb"]
    # harmony sits near the fixed modes (paper: within a few % of them)
    assert row["harmony_mb"] <= row["dimension_mb"] * 1.05
    assert row["harmony_mb"] >= row["vector_mb"] * 0.90


def test_table5_row_shape(bundle):
    row = table5_row(bundle)
    # dimension partitioning always carries the largest peak (partial
    # buffers + accumulators); harmony sits with the fixed modes
    assert row["vector_mb"] <= row["dimension_mb"]
    assert row["vector_mb"] * 0.95 <= row["harmony_mb"]
    assert row["harmony_mb"] <= row["dimension_mb"] * 1.05


def test_fig6_rows(bundle):
    rows = fig6_rows(bundle, nprobes=(2, CFG.nlist))
    assert len(rows) == 2
    # recall grows with nprobe; full probe is exact
    assert rows[1]["recall"] >= rows[0]["recall"]
    assert rows[1]["recall"] > 0.99
    for r in rows:
        for col in ("faiss_qps", "vector_qps", "dimension_qps",
                    "harmony_qps"):
            assert r[col] > 0


def test_fig6_distributed_beats_single_node(bundle):
    rows = fig6_rows(bundle, nprobes=(CFG.nlist,))
    r = rows[0]
    best = max(r["vector_qps"], r["dimension_qps"], r["harmony_qps"])
    assert best > r["faiss_qps"]


def test_fig7_vector_degrades_dimension_stable(bundle):
    rows = fig7_rows(bundle, fracs=(0.0, 0.9))
    v0, v9 = rows[0]["vector_qps"], rows[1]["vector_qps"]
    d0, d9 = rows[0]["dimension_qps"], rows[1]["dimension_qps"]
    assert v9 < v0  # traditional vector partitioning collapses
    assert abs(d9 - d0) / d0 < 0.25  # dimension stays stable
    assert rows[1]["load_std"] > rows[0]["load_std"]


def test_fig7_harmony_stable(bundle):
    rows = fig7_rows(bundle, fracs=(0.0, 0.9))
    h0, h9 = rows[0]["harmony_qps"], rows[1]["harmony_qps"]
    assert abs(h9 - h0) / h0 < 0.35


def test_fig9_speedups_positive(bundle):
    (row,) = fig9_rows(bundle)
    for c in ("balanced_load_speedup", "pipeline_async_speedup",
              "pruning_speedup"):
        assert row[c] > 0.8  # each technique never badly hurts


def test_qps_helper():
    assert qps(10, 2.0) == 5.0
    assert qps(10, 0.0) == float("inf")


def test_format_table_renders():
    s = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123}])
    assert "a" in s and "10" in s and "0.12" in s
    assert format_table([]) == "(no rows)"


def test_bundle_caches_searchers(bundle):
    s1 = bundle.searcher("vector")
    s2 = bundle.searcher("vector")
    assert s1 is s2


def test_imbalanced_workload_properties(bundle):
    w = bundle.imbalanced_workload(0.5)
    assert w.shape == bundle.queries.shape
    # tail (natural) queries untouched
    np.testing.assert_array_equal(
        w[len(w) // 2 + 1:], bundle.queries[len(w) // 2 + 1:]
    )
    assert not np.array_equal(w[0], bundle.queries[0])
    np.testing.assert_array_equal(
        bundle.imbalanced_workload(0.0), bundle.queries
    )


def _run_cli(tmp_path, *args):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_RESULTS=str(tmp_path), PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )


def test_cli_writes_table2(tmp_path):
    proc = _run_cli(tmp_path, "table2", "--sf", "0.002")
    assert proc.returncode == 0, proc.stderr
    rows = table2_rows(ExperimentConfig(sf=0.002))
    assert (tmp_path / "table2.txt").read_text() == (
        f"{EXPERIMENTS['table2'].title}\n\n{format_table(rows)}\n"
    )


def test_cli_rejects_unknown_experiment(tmp_path):
    proc = _run_cli(tmp_path, "table9")
    assert proc.returncode == 2 and "table9" in proc.stderr
    assert not list(tmp_path.iterdir())


#: One row that holds every per-row claim; each case breaks one of them.
ROW = {"dataset": "d", "slice1": 0.0, "slice2": 1.0, "slice3": 2.0,
       "slice4": 2.0, "faiss_mb": 8.0, "vector_mb": 2.0, "dimension_mb": 2.1,
       "faiss_qps": 1.0, "vector_qps": 1.0, "dimension_qps": 1.0,
       "harmony_qps": 2.0, "balanced_load_speedup": 1.0,
       "pipeline_async_speedup": 0.9, "pruning_speedup": 1.0,
       "harmony_speedup": 2.0}


def _rows(*overrides):
    return [{**ROW, **o} for o in overrides]


#: (experiment, rows that hold its claim, rows that break it); for fig6
#: and fig7 only each dataset's last row carries the claim.
CLAIM_CASES = [
    ("table2", [ROW] * len(PAPER_TABLE2), [ROW]),
    ("table3", [ROW], _rows({"slice1": 0.5})),
    ("table3", [ROW], _rows({"slice2": 2.5})),
    ("table4", [ROW], _rows({"vector_mb": 4.0, "dimension_mb": 4.1})),
    ("table4", [ROW], _rows({"dimension_mb": 2.0})),
    ("table5", [ROW], _rows({"vector_mb": 2.2})),
    ("fig6", _rows({"harmony_qps": 1.0}, {}), _rows({}, {"harmony_qps": 1.0})),
    ("fig7", _rows({"vector_qps": 1.8}, {}), _rows({}, {"vector_qps": 1.8})),
    ("fig9", [ROW], _rows({"pruning_speedup": 0.7})),
    ("fig11", _rows({"harmony_speedup": 1.9}, {}),
     _rows({}, {"harmony_speedup": 1.9})),
]


def test_every_experiment_has_claim_cases():
    assert {name for name, _, _ in CLAIM_CASES} == set(EXPERIMENTS)


@pytest.mark.parametrize("name,good,bad", CLAIM_CASES)
def test_shape_check(name, good, bad):
    EXPERIMENTS[name].check(good)
    with pytest.raises(ClaimFailed):
        EXPERIMENTS[name].check(bad)
