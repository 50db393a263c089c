"""Distributed layout: cell placement, storage accounting."""
import numpy as np
import pytest

from repro.core.searcher import HarmonyConfig, HarmonySearcher
from repro.ivf.index import build_ivf
from repro.vectors.generate import base_numpy, base_spark


def _cells(searcher):
    """Collect (partition_index, CellStore) pairs from the index RDD."""
    return searcher.dindex.rdd.mapPartitionsWithIndex(
        lambda i, it: [(i, c) for c in it]
    ).collect()


@pytest.mark.parametrize("mode", ["harmony", "vector", "dimension"])
def test_cells_on_prescribed_nodes(built, mode):
    # Cell (v, b) must sit exactly on partition plan.cell_node(v, b) —
    # partition i IS simulated node i.
    s = built[mode]
    plan = s.dindex.plan
    for part_idx, cell in _cells(s):
        assert part_idx == plan.cell_node(cell.vblock, cell.dimblock)


@pytest.mark.parametrize("mode", ["harmony", "vector", "dimension"])
def test_one_cell_per_node(built, mode):
    s = built[mode]
    cells = _cells(s)
    assert len(cells) == s.dindex.plan.n_nodes
    assert len({(c.vblock, c.dimblock) for _, c in cells}) == len(cells)


def test_no_replication_total_bytes(built, ds):
    # §4.3 space complexity: the distributed cells together hold exactly
    # NB x D floats — no duplication.
    for mode in ("harmony", "vector", "dimension"):
        s = built[mode]
        total = float(s.dindex.node_index_bytes.sum())
        assert total == pytest.approx(len(ds["x"]) * ds["spec"].dim * 4)


def test_cell_rows_are_id_sorted_slices(built, ds):
    # Worker rows must align with the driver routing table: row p of a
    # cell's cluster matrix is vector cluster_ids[c][p]'s dim slice.
    s = built["dimension"]
    x = ds["x"]
    plan = s.dindex.plan
    for _, cell in _cells(s):
        lo, hi = plan.dim_bounds[cell.dimblock]
        for c, mat in cell.clusters.items():
            ids = s.dindex.cluster_ids[c]
            np.testing.assert_array_equal(mat, x[ids, lo:hi])


def test_cluster_ids_cover_dataset(built, ds):
    s = built["harmony"]
    all_ids = np.concatenate(s.dindex.cluster_ids)
    assert sorted(all_ids) == list(range(len(ds["x"])))


def _assert_same_clustering(di, ivf):
    np.testing.assert_array_equal(di.centroids, ivf.centroids)
    for c in range(ivf.nlist):
        np.testing.assert_array_equal(di.cluster_ids[c], ivf.cluster_ids[c])


def test_cluster_assignment_matches_driver_ivf(spark, built, ds):
    # Every build trains and assigns with build_ivf's code, so every mode
    # shares faiss_lite's clustering (§6.1) — also on a corpus of more
    # than 65,536 rows (sift1m at SF 0.07 has 70,000).
    _assert_same_clustering(built["harmony"].dindex, ds["ivf"])
    spec = ds["spec"]
    cfg = HarmonyConfig(n_nodes=4, nlist=8, prewarm_per_cluster=4)
    s = HarmonySearcher.build(spark, base_spark(spark, spec, 0.07), cfg)
    try:
        _assert_same_clustering(
            s.dindex, build_ivf(base_numpy(spec, 0.07), 8, seed=cfg.seed)
        )
    finally:
        s.dindex.unpersist()


def test_prewarm_rows_are_cluster_prefixes(built, ds):
    s = built["harmony"]
    x = ds["x"]
    for c, rows in s.dindex.prewarm_rows.items():
        ids = s.dindex.cluster_ids[c][: len(rows)]
        np.testing.assert_array_equal(rows, x[ids])
        assert len(rows) <= 8  # prewarm_per_cluster in conftest
        # A copy, not a view: the searcher must not keep the corpus alive.
        assert rows.base is None


def test_accumulator_bytes_only_for_dim_partitioned(built):
    assert built["vector"].dindex.node_accumulator_bytes().sum() == 0
    dim_acc = built["dimension"].dindex.node_accumulator_bytes()
    assert np.all(dim_acc > 0)


def test_node_memory_is_index_plus_accumulators(built):
    s = built["dimension"]
    np.testing.assert_allclose(
        s.dindex.node_memory_bytes(),
        s.dindex.node_index_bytes + s.dindex.node_accumulator_bytes(),
    )


def test_dimension_split_balances_bytes(built):
    # Pure dimension partitioning stores the same rows everywhere, so
    # per-node bytes differ only via uneven dim-block widths.
    s = built["dimension"]
    b = s.dindex.node_index_bytes
    assert b.max() / b.min() < 1.2


def test_build_seconds_recorded(built):
    for mode in ("harmony", "vector", "dimension"):
        bs = built[mode].dindex.build_seconds
        assert set(bs) == {"train", "add", "preassign"}
        assert all(v >= 0 for v in bs.values())
        assert bs["preassign"] > 0
