"""HarmonySearcher build path: modes, plans, config validation."""
import numpy as np
import pytest

from repro.core.searcher import MODES, HarmonyConfig, HarmonySearcher
from tests.conftest import TEST_K, TEST_NPROBE


def test_invalid_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        HarmonyConfig(mode="hybrid-ish")


def test_modes_constant():
    assert MODES == ("harmony", "vector", "dimension")


def test_vector_mode_grid(built):
    plan = built["vector"].dindex.plan
    assert (plan.b_vec, plan.b_dim) == (4, 1)
    assert plan.mode == "vector"


def test_dimension_mode_grid(built):
    plan = built["dimension"].dindex.plan
    assert (plan.b_vec, plan.b_dim) == (1, 4)
    assert plan.mode == "dimension"


def test_harmony_mode_chose_cost_optimal_grid(built):
    s = built["harmony"]
    assert s.planned_cost is not None
    assert s.dindex.plan.b_vec * s.dindex.plan.b_dim == 4


def test_fixed_modes_have_no_planned_cost(built):
    assert built["vector"].planned_cost is None
    assert built["dimension"].planned_cost is None


def test_with_engine_shares_index(built):
    s = built["harmony"]
    s2 = s.with_engine(use_pruning=False)
    assert s2.dindex is s.dindex
    assert s2.engine.use_pruning is False
    assert s.engine.use_pruning is True


def test_with_engine_overrides_schedule_and_waves(built):
    s2 = built["dimension"].with_engine(schedule="static", n_waves=1)
    assert s2.engine.schedule == "static"
    assert s2.engine.n_waves == 1


def test_search_delegates(built, ds, baseline_ref):
    res = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    np.testing.assert_allclose(
        res.dists, baseline_ref.dists, rtol=1e-4, atol=1e-4
    )


@pytest.mark.parametrize("bad", [
    lambda df: df.selectExpr("id + 1 AS id", "vec"),
    lambda df: df.union(df),
    lambda df: df.where("id % 2 = 0"),
    lambda df: df.limit(0),
], ids=["shifted", "duplicated", "gaps", "empty"])
def test_build_rejects_ids_other_than_range(spark, ds, bad):
    # Row p of every cell is vector cluster_ids[c][p]; that holds only
    # for ids exactly 0..n-1, as base_spark produces.
    with pytest.raises(ValueError, match="0..n-1"):
        HarmonySearcher.build(spark, bad(ds["df"]), HarmonyConfig(nlist=4))


def test_build_with_uniform_profile(spark, ds):
    # No profile queries → uniform planner profile; still builds/searches.
    cfg = HarmonyConfig(n_nodes=2, mode="harmony", nlist=8,
                        prewarm_per_cluster=4)
    s = HarmonySearcher.build(spark, ds["df"], cfg)
    try:
        res = s.search(ds["q"][:4], k=3, nprobe=2)
        assert res.ids.shape == (4, 3)
    finally:
        s.dindex.unpersist()


def test_build_two_nodes_dimension(spark, ds):
    cfg = HarmonyConfig(n_nodes=2, mode="dimension", nlist=8,
                        prewarm_per_cluster=4)
    s = HarmonySearcher.build(spark, ds["df"], cfg)
    try:
        assert s.dindex.plan.b_dim == 2
        res = s.search(ds["q"][:4], k=3, nprobe=8)
        from repro.baseline.faiss_lite import search_ivf_flat
        from repro.ivf.index import build_ivf

        ref = search_ivf_flat(build_ivf(ds["x"], 8), ds["q"][:4], 3, 8)
        np.testing.assert_allclose(res.dists, ref.dists, rtol=1e-4,
                                   atol=1e-4)
    finally:
        s.dindex.unpersist()


def _with_value(v):
    def f(q):
        q = q.copy()
        q[1, 2] = v
        return q
    return f


@pytest.mark.parametrize("queries,k,nprobe,match", [
    (lambda q: q, 0, TEST_NPROBE, "k and nprobe"),
    (lambda q: q, -1, TEST_NPROBE, "k and nprobe"),
    (lambda q: q, TEST_K, 0, "k and nprobe"),
    (lambda q: q[0], TEST_K, TEST_NPROBE, "shape"),
    (lambda q: q[None], TEST_K, TEST_NPROBE, "shape"),
    (lambda q: q[:, :-1], TEST_K, TEST_NPROBE, "shape"),
    (_with_value(np.nan), TEST_K, TEST_NPROBE, "finite"),
    (_with_value(np.inf), TEST_K, TEST_NPROBE, "finite"),
], ids=["k0", "k-negative", "nprobe0", "1d", "3d", "wrong-dim", "nan",
        "inf"])
def test_search_rejects_bad_input(built, ds, queries, k, nprobe, match):
    with pytest.raises(ValueError, match=match):
        built["harmony"].search(queries(ds["q"]), k=k, nprobe=nprobe)


def test_nprobe_above_nlist_probes_every_cluster(built, ds):
    from repro.baseline.faiss_lite import search_ivf_flat

    nlist = built["harmony"].dindex.nlist
    res = built["harmony"].search(ds["q"], k=TEST_K, nprobe=nlist + 5)
    ref = search_ivf_flat(ds["ivf"], ds["q"], k=TEST_K, nprobe=nlist)
    np.testing.assert_allclose(res.dists, ref.dists, rtol=1e-4, atol=1e-4)
