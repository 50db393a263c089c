"""Pipelined engine (Algorithm 1): exactness, pruning, metering."""
import numpy as np
import pytest

from repro.baseline.faiss_lite import search_ivf_flat
from repro.cluster.machine import MachineModel
from tests.conftest import TEST_K, TEST_NPROBE, assert_same_distances


@pytest.mark.parametrize("mode", ["harmony", "vector", "dimension"])
def test_exact_vs_baseline(built, baseline_ref, ds, mode):
    # Core invariant: every mode returns the same distances as a full
    # single-node scan of the same probed clusters — pruning is lossless.
    res = built[mode].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert_same_distances(res.dists, baseline_ref.dists)


@pytest.mark.parametrize("schedule", ["static", "rotate", "load_aware"])
def test_exact_under_all_schedules(built, baseline_ref, ds, schedule):
    s = built["dimension"].with_engine(schedule=schedule)
    res = s.search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert_same_distances(res.dists, baseline_ref.dists)


@pytest.mark.parametrize("n_waves", [1, 2, 4, 7])
def test_exact_under_wave_counts(built, baseline_ref, ds, n_waves):
    s = built["dimension"].with_engine(n_waves=n_waves)
    res = s.search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert_same_distances(res.dists, baseline_ref.dists)


def test_exact_with_pruning_disabled(built, baseline_ref, ds):
    s = built["dimension"].with_engine(use_pruning=False)
    res = s.search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert_same_distances(res.dists, baseline_ref.dists)


@pytest.mark.parametrize("k,nprobe", [(1, 1), (3, 2), (10, 16)])
def test_exact_across_k_nprobe(built, ds, k, nprobe):
    ref = search_ivf_flat(ds["ivf"], ds["q"], k=k, nprobe=nprobe)
    for mode in ("harmony", "vector", "dimension"):
        res = built[mode].search(ds["q"], k=k, nprobe=nprobe)
        assert_same_distances(res.dists, ref.dists)


def test_result_shape_and_order(built, ds):
    res = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert res.ids.shape == (len(ds["q"]), TEST_K)
    assert np.all(np.diff(res.dists, axis=1) >= -1e-12)
    assert np.all(res.ids >= 0)  # enough candidates at this scale


def test_pruning_reduces_ops(built, ds):
    on = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    off = built["dimension"].with_engine(use_pruning=False).search(
        ds["q"], k=TEST_K, nprobe=TEST_NPROBE
    )
    assert (
        on.report.metrics.node_ops().sum()
        < off.report.metrics.node_ops().sum()
    )


def test_pruning_ratios_monotone_and_first_zero(built, ds):
    res = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    r = res.report.pruning_ratios()
    assert len(r) == 4
    assert r[0] == 0.0
    assert np.all(np.diff(r) >= 0)
    assert r[-1] <= 1.0


def test_no_pruning_means_zero_skipped(built, ds):
    res = built["dimension"].with_engine(use_pruning=False).search(
        ds["q"], k=TEST_K, nprobe=TEST_NPROBE
    )
    assert res.report.skipped_at_position.sum() == 0


def test_pairs_total_counts_probed_candidates(built, ds):
    res = built["dimension"].with_engine(use_pruning=False).search(
        ds["q"], k=TEST_K, nprobe=TEST_NPROBE
    )
    from repro.ivf.index import probe_clusters

    probes = probe_clusters(ds["ivf"].centroids, ds["q"], TEST_NPROBE)
    sizes = ds["ivf"].cluster_sizes()
    want = 0
    for qi in range(len(ds["q"])):
        for c in probes[qi]:
            want += sizes[c]
            if c == probes[qi, 0]:  # prewarm rows already scored
                want -= min(8, sizes[c])
    assert res.report.pairs_total == want


def test_vector_mode_minimal_upstream_bytes(built, ds):
    # Harmony-vector workers reduce to local top-k: upstream traffic is
    # k results per (query, node), far below the dimension mode's
    # per-candidate partial sums (paper Fig. 8).
    rv = built["vector"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    rd = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    up_v = sum(s.bytes_up.sum() for s in rv.report.metrics.stages)
    up_d = sum(s.bytes_up.sum() for s in rd.report.metrics.stages)
    assert up_v < up_d


def test_dimension_mode_uses_all_nodes(built, ds):
    res = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert np.all(res.report.metrics.node_ops() > 0)


def test_static_single_wave_serializes_nodes(built, ds):
    # Non-pipelined ablation: with static order and one wave, each stage
    # busies exactly one node (everyone scans block s together).
    res = built["dimension"].with_engine(
        schedule="static", n_waves=1
    ).search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    for st in res.report.metrics.stages:
        assert (st.ops > 0).sum() == 1


def test_rotate_keeps_nodes_busy_first_stage(built, ds):
    res = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    # with 16 queries rotated over 4 blocks, stage 0 busies all 4 nodes
    st0 = res.report.metrics.stages[0]
    assert (st0.ops > 0).sum() == 4


def test_pipeline_speedup_vs_serialized(built, ds):
    m = MachineModel(blocking=True)
    fast = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    slow = built["dimension"].with_engine(
        schedule="static", n_waves=1
    ).search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert (
        fast.report.simulated_seconds(m)
        < slow.report.simulated_seconds(m)
    )


def test_metrics_messages_and_buffers_positive(built, ds):
    res = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert res.report.metrics.total_msgs() > 0
    assert res.report.metrics.peak_buffer_bytes.max() > 0


def test_client_ops_include_centroid_assignment(built, ds):
    res = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    assert (
        res.report.metrics.client_ops
        >= len(ds["q"]) * ds["ivf"].nlist * ds["spec"].dim
    )


def test_simulated_seconds_positive_and_blocking_slower(built, ds):
    res = built["dimension"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    nb = res.report.simulated_seconds(MachineModel(blocking=False))
    b = res.report.simulated_seconds(MachineModel(blocking=True))
    assert 0 < nb <= b


def test_search_is_deterministic(built, ds):
    a = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    b = built["harmony"].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_allclose(a.dists, b.dists)


def test_single_query(built, ds, baseline_ref):
    res = built["harmony"].search(ds["q"][:1], k=TEST_K, nprobe=TEST_NPROBE)
    assert_same_distances(res.dists, baseline_ref.dists[:1])


def _search_counting_jobs(spark, searcher, q, group):
    """``(result, Spark jobs the search ran)``, with the search in its
    own job group."""
    sc = spark.sparkContext
    sc.setJobGroup(group, "job count")
    try:
        res = searcher.search(q, k=TEST_K, nprobe=TEST_NPROBE)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    # Job events reach the status tracker through the listener bus.
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return res, len(sc.statusTracker().getJobIdsForGroup(group))


@pytest.mark.parametrize("mode,use_pruning,fused", [
    ("vector", True, True),
    ("dimension", False, True),
    ("dimension", True, False),
], ids=["vector", "dimension-no-pruning", "dimension-pruning"])
def test_spark_jobs_per_search(spark, built, ds, mode, use_pruning, fused):
    # No pruning decision waits on a stage of a B_dim = 1 grid or of a
    # search without pruning, so all its stages run as one Spark job;
    # with pruning on a B_dim > 1 grid, each global stage is one job.
    # The metered stages are the same either way.
    s = built[mode].with_engine(use_pruning=use_pruning)
    plan = s.dindex.plan
    res, jobs = _search_counting_jobs(
        spark, s, ds["q"], f"test-jobs-{mode}-{use_pruning}"
    )
    stages = len(res.report.metrics.stages)
    if plan.b_dim == 1:
        assert stages == plan.b_vec
    else:
        assert stages == plan.b_dim + s.engine.n_waves - 1
    assert jobs == (1 if fused else stages)


def test_search_restores_job_description(spark, built, ds):
    sc = spark.sparkContext
    for mode in ("vector", "dimension"):
        sc.setJobDescription("caller")
        try:
            built[mode].search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
            assert sc.getLocalProperty("spark.job.description") == "caller"
        finally:
            sc.setLocalProperty("spark.job.description", None)


@pytest.mark.parametrize("use_pruning", [False, True])
@pytest.mark.parametrize("n_waves", [1, 4])
@pytest.mark.parametrize("mode", ["harmony", "vector", "dimension"])
def test_metered_ops_cover_candidate_pairs(built, ds, mode, n_waves,
                                           use_pruning):
    # Every candidate pair is scanned over each dimension exactly once
    # unless pruning skips the rest of it, whether its stages ran as one
    # Spark job or one job each.
    res = built[mode].with_engine(
        use_pruning=use_pruning, n_waves=n_waves
    ).search(ds["q"], k=TEST_K, nprobe=TEST_NPROBE)
    ops = res.report.metrics.node_ops().sum()
    full = res.report.pairs_total * ds["spec"].dim
    if use_pruning:
        assert ops <= full
    else:
        assert ops == full
