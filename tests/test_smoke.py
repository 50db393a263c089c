"""End-to-end smoke: build each mode on a tiny dataset, check exactness
against the single-node baseline and brute force."""
import numpy as np
import pytest

from repro.baseline.exact import exact_knn, recall_at_k
from repro.baseline.faiss_lite import search_ivf_flat
from repro.core.searcher import HarmonyConfig, HarmonySearcher
from repro.ivf.index import build_ivf
from repro.vectors.generate import base_numpy, base_spark, queries_numpy
from repro.vectors.specs import get_spec


@pytest.fixture(scope="module")
def tiny(spark):
    spec = get_spec("sift1m")
    sf = 0.0008  # 800 vectors
    x = base_numpy(spec, sf)
    q = queries_numpy(spec, sf)[:12]
    df = base_spark(spark, spec, sf)
    return spec, x, q, df


@pytest.mark.parametrize("mode", ["harmony", "vector", "dimension"])
def test_modes_match_baseline(spark, tiny, mode):
    spec, x, q, df = tiny
    cfg = HarmonyConfig(n_nodes=4, mode=mode, nlist=16, prewarm_per_cluster=8)
    s = HarmonySearcher.build(spark, df, cfg)
    res = s.search(q, k=5, nprobe=4)
    ref = search_ivf_flat(build_ivf(x, 16), q, k=5, nprobe=4)
    np.testing.assert_allclose(res.dists, ref.dists, rtol=1e-4, atol=1e-4)
    s.dindex.unpersist()


def test_full_probe_equals_exact(spark, tiny):
    spec, x, q, df = tiny
    cfg = HarmonyConfig(n_nodes=4, mode="harmony", nlist=16)
    s = HarmonySearcher.build(spark, df, cfg)
    res = s.search(q, k=5, nprobe=16)
    tids, tdists = exact_knn(x, q, k=5)
    np.testing.assert_allclose(res.dists, tdists, rtol=1e-4, atol=1e-4)
    assert recall_at_k(res.ids, tids) > 0.99
    s.dindex.unpersist()
