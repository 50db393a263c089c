"""Search benchmark for the ``harmony`` engine on both clocks.

One run builds a ``harmony``-mode index for one workload and drives a
closed loop of query batches from a single client thread: the next batch
is sent only when the previous one has returned. It reports

* the wall clock — what this PySpark code costs (``wall_qps``, batch
  latency, ``setup_s``, driver memory);
* the simulated clock — the paper's claim: metered ops, bytes and
  messages put through ``MachineModel`` (``sim_qps``);

and checks every batch against the single-node ``faiss_lite`` scan of the
same probed clusters, plus recall against exact search.

With ``trace=True`` the timed batches alternate between untraced and
traced (see :mod:`spans`), and the run reports per-layer figures from the
traced ones and the tracing overhead from the pair.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyspark

from repro.baseline.exact import exact_knn, recall_at_k
from repro.baseline.faiss_lite import search_ivf_flat
from repro.cluster.machine import MachineModel
from repro.core.searcher import HarmonyConfig, HarmonySearcher
from repro.experiments.runner import DatasetBundle, ExperimentConfig
from repro.vectors.generate import queries_numpy
from repro.vectors.specs import get_spec

from spans import Tracer, batch_layers, build_layers, median_of

#: Grid size, nlist, k, nprobe and scale factor of every workload; the
#: values the repo's experiments use (4 nodes, nlist 48, k 10, nprobe 8).
BASE = ExperimentConfig()

#: Distinct queries drawn per run; batches sample from this pool.
POOL = 512

#: Timed builds per run; ``setup_s`` is their median.
BUILDS = 2

#: Untimed batches searched before the timed loop. After the warm-up
#: build the first batch runs within a few percent of later ones.
WARMUP_BATCHES = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a dataset analog and a batch stream."""

    name: str
    dataset: str
    batch: int
    #: Batches 0..fixed_batches-1 set ``sim_qps`` and ``recall_at_10``,
    #: so both repeat exactly for a seed whatever the loop reaches.
    fixed_batches: int
    skew: float = 0.0
    schedule: str = "rotate"
    sf: float = BASE.sf


WORKLOADS = {
    w.name: w
    for w in [
        # 128-d; the planner picks a 4x1 vector grid: 4 Spark jobs of
        # little work per batch, so per-stage dispatch dominates. The only
        # workload on the worker-local top-k (B_dim = 1) path.
        Workload("sift-b16", "sift1m", 16, fixed_batches=6),
        # 200-d near-isotropic; 1x4 grid (7 jobs per batch) and weak
        # pruning, so per-candidate driver and kernel work is a large
        # share. Not in BENCHMARK.json: a run of it takes ~60 s, and a
        # third workload would take the benchmark's repeated runs (tens
        # per workload) past an hour.
        Workload("glove-b256", "glove1.2m", 256, fixed_batches=3),
        # 1024-d steep spectrum; skewed queries, load-aware routing, 1x4
        # grid: the strongest pruning, heaviest kernel and heaviest build.
        # At 0.8 of the base scale factor (6,588 rows) a run takes ~65 s
        # instead of ~73 s, and the planner still picks 1x4 (2x2 below
        # 0.7).
        Workload("star-skew-b32", "star", 32, fixed_batches=4, skew=1.0,
                 schedule="load_aware", sf=0.8 * BASE.sf),
    ]
}


def query_pool(w: Workload, seed: int) -> np.ndarray:
    """``POOL`` queries of ``w``'s distribution, drawn from ``seed``.

    Streams are offset from generator seed 1, which draws the profile
    queries the planner sees at build time.
    """
    spec = get_spec(w.dataset)
    parts, i = [], 0
    while sum(len(p) for p in parts) < POOL:
        parts.append(queries_numpy(spec, 1.0, seed=2 + 64 * seed + i,
                                   skew=w.skew))
        i += 1
    return np.concatenate(parts)[:POOL]


def batch_queries(pool: np.ndarray, seed: int, i: int, size: int):
    """Batch ``i`` of the stream: ``size`` distinct pool queries."""
    g = np.random.default_rng([seed, i])
    return pool[g.choice(len(pool), size=size, replace=False)]


def tail(lat_ms: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the latency tail.

    The tail is the highest percentile with at least ten samples beyond
    it. A run of fewer than 40 batches has too few for that, and takes the
    highest percentile with a quarter of its samples (rounded down) beyond
    it instead: from 4 batches on, one stray batch does not set the tail.
    """
    s = sorted(lat_ms)
    n = len(s)
    beyond = min(10, n // 4)
    return s[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def empty_job_ms(sc, rdd) -> float:
    """Median wall time of three empty stage jobs: a ``mapPartitions``
    over the index's cells that reads a broadcast and computes nothing,
    and its ``collect``. The broadcast itself is not timed; the traced run
    reports it as ``spark.broadcast_ms``."""
    out = []
    for _ in range(3):
        bc = sc.broadcast(None)
        try:
            t0 = time.perf_counter()
            # Read every cell as a stage does: a Python worker that leaves
            # its input unread is not reused, which would slow the job.
            rdd.mapPartitions(
                lambda cells: [bc.value is None, sum(1 for _ in cells)]
            ).collect()
            out.append((time.perf_counter() - t0) * 1e3)
        finally:
            bc.unpersist()
    return statistics.median(out)


def environment(spark, root: Path) -> dict:
    """What a later run needs to tell a dispatch-floor change from a
    code change."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        digest.update(p.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "spark_master": spark.sparkContext.master,
        "SPARK_DRIVER_MEM": os.environ.get("SPARK_DRIVER_MEM"),
        "pyspark": pyspark.__version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run(spark, w: Workload, seed: int, seconds: float, trace: bool,
        root: Path) -> dict:
    """One benchmark run of ``w``; returns every figure it measured."""
    sc = spark.sparkContext
    phases: dict[str, float] = {}  # wall seconds of each step of the run
    last = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal last
        now = time.perf_counter()
        phases[name], last = now - last, now

    cfg = ExperimentConfig(sf=w.sf)
    bundle = DatasetBundle(spark, w.dataset, cfg)
    hcfg = HarmonyConfig(
        n_nodes=cfg.n_nodes, mode="harmony", nlist=cfg.nlist,
        seed=cfg.seed, schedule=w.schedule,
        prewarm_per_cluster=cfg.prewarm_per_cluster, machine=cfg.machine,
        alpha=cfg.alpha, nprobe_hint=cfg.nprobe, k_hint=cfg.k,
    )
    # The planner profiles the repo's fixed query sample (generator
    # seed 1); the timed stream comes from the run's seed.
    profile = bundle.workload(w.skew)
    tracer = Tracer()
    groups: dict[str, str] = {}  # span batch id -> Spark job group

    def build() -> HarmonySearcher:
        return HarmonySearcher.build(spark, bundle.df, hcfg,
                                     profile_queries=profile)

    # Untimed throwaway build: the first build in a fresh JVM pays query
    # compilation, JIT and Python worker start-up (2-3x a warm build).
    phase("data")
    build().dindex.unpersist()
    phase("warmup_build")
    setup, searcher = [], None
    for b in range(BUILDS):
        if searcher is not None:
            searcher.dindex.unpersist()
        bid = f"build{b}"
        with _traced(trace, tracer, sc, groups, "layout.build", bid):
            t0 = time.perf_counter()
            searcher = build()
            setup.append(time.perf_counter() - t0)

    phase("timed_builds")
    pool = query_pool(w, seed)
    results: dict[int, object] = {}
    failed: dict[int, str] = {}

    def search(i: int, traced: bool = False) -> float:
        q = batch_queries(pool, seed, i, w.batch)
        t0 = time.perf_counter()
        try:
            with _traced(traced, tracer, sc, groups, "engine.search",
                         f"batch{i}"):
                results[i] = searcher.search(q, k=cfg.k, nprobe=cfg.nprobe)
        except Exception:  # a failed batch is counted, not fatal
            failed[i] = traceback.format_exc()
            print(failed[i], file=sys.stderr)
        return time.perf_counter() - t0

    warm = [search(i) for i in range(WARMUP_BATCHES)]
    phase("warmup_batches")
    floor_ms = empty_job_ms(sc, searcher.dindex.rdd)
    phase("calibration")

    # Timed closed loop. In a traced run odd batches are traced.
    lat = {False: [], True: []}
    i = WARMUP_BATCHES
    t_loop = time.perf_counter()
    while True:
        traced = trace and (i - WARMUP_BATCHES) % 2 == 1
        lat[traced].append(search(i, traced))
        i += 1
        if (time.perf_counter() - t_loop >= seconds
                and (lat[True] or not trace)):
            break
    loop_s = time.perf_counter() - t_loop
    for j in range(i, w.fixed_batches):  # untimed top-up, rarely needed
        search(j)
    n_batches = max(i, w.fixed_batches)
    phase("loop")

    # ---- output check --------------------------------------------------
    ivf = bundle.ivf
    same_centroids = np.array_equal(ivf.centroids, searcher.dindex.centroids)
    if not same_centroids:
        print("faiss_lite centroids differ from the Spark-trained ones",
              file=sys.stderr)
    faiss_s, hits, fixed = 0.0, 0.0, []
    for j, res in sorted(results.items()):
        q = batch_queries(pool, seed, j, w.batch)
        t0 = time.perf_counter()
        ref = search_ivf_flat(ivf, q, k=cfg.k, nprobe=cfg.nprobe)
        faiss_s += time.perf_counter() - t0
        if not (same_centroids and res.dists.shape == ref.dists.shape
                and np.allclose(res.dists, ref.dists, rtol=1e-4,
                                atol=1e-4)):
            failed[j] = "dists differ from faiss_lite on the probed clusters"
        if j < w.fixed_batches:
            fixed.append(res.report)
            true_ids, _ = exact_knn(bundle.x, q, cfg.k)
            hits += recall_at_k(res.ids, true_ids) * len(q)
    fixed_q = w.batch * len(fixed)
    sim_s = sum(r.simulated_seconds(MachineModel()) for r in fixed)

    phase("check")
    untraced = lat[False]
    timed_q = w.batch * len(untraced)
    tail_ms, tail_pct, tail_n = tail([x * 1e3 for x in untraced])
    end_to_end = {
        "wall_qps": (timed_q / sum(untraced) if trace
                     else timed_q / loop_s),
        "batch_p50_ms": statistics.median(untraced) * 1e3,
        "batch_tail_ms": tail_ms,
        "sim_qps": fixed_q / sim_s if sim_s > 0 else 0.0,
        "recall_at_10": hits / fixed_q if fixed_q else 0.0,
        "error_rate": len(failed) / n_batches,
        "setup_s": statistics.median(setup),
        "driver_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    out = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {**environment(spark, root),
                        "spark.empty_job_ms": floor_ms},
        "correct": same_centroids and not failed,
        "attempted": n_batches,
        "failed": len(failed),
        "failures": {str(k): v for k, v in failed.items()},
        "end_to_end": end_to_end,
        "tail": {"percentile": tail_pct, "samples": tail_n},
        "batch_ms": {"warmup": [x * 1e3 for x in warm],
                     "untraced": [x * 1e3 for x in lat[False]],
                     "traced": [x * 1e3 for x in lat[True]]},
        "setup_runs_s": setup,
        "phase_s": phases,
    }
    if trace:
        out["per_layer"] = _per_layer(
            tracer, sc, groups, searcher, fixed, floor_ms, lat,
            w.batch, w.batch * len(results) / faiss_s if faiss_s else 0.0,
        )
        out["spans"] = tracer.to_json()
    return out


@contextlib.contextmanager
def _traced(enabled: bool, tracer: Tracer, sc, groups: dict, name: str,
            bid: str):
    """Trace the body as root span ``name`` of batch ``bid``, with its
    Spark jobs in their own job group; a no-op when not ``enabled``."""
    if not enabled:
        yield
        return
    groups[bid] = f"perfbench-{bid}"
    sc.setJobGroup(groups[bid], name)
    try:
        with tracer.installed(), tracer.span(name, bid):
            yield
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


def _per_layer(tracer, sc, groups, searcher, reps, floor_ms, lat, batch,
               faiss_qps) -> dict[str, float]:
    """Per-layer figures of a traced run.

    Span-derived figures are medians over traced batches (or timed
    builds); figures from the search reports are means over the fixed
    batches, so they repeat exactly for a seed.
    """
    st = sc.statusTracker()  # read last: job events arrive asynchronously
    jobs = {b: len(st.getJobIdsForGroup(g)) for b, g in groups.items()}
    out = median_of([batch_layers(tracer, b, jobs[b], floor_ms)
                     for b in groups if b.startswith("batch")])
    out.update(median_of([build_layers(tracer, b, jobs[b])
                          for b in groups if b.startswith("build")]))
    model = MachineModel()

    def mean(f) -> float:
        return statistics.fmean(f(r) for r in reps)

    def per_q(f) -> float:
        return mean(f) / batch

    ops = sum(r.metrics.node_ops() for r in reps)
    predicted = searcher.planned_cost.node_loads
    traced_qps = batch * len(lat[True]) / sum(lat[True])
    untraced_qps = batch * len(lat[False]) / sum(lat[False])
    out.update({
        "spark.empty_job_ms": floor_ms,
        "engine.stages_per_batch": mean(lambda r: len(r.metrics.stages)),
        "engine.pairs_per_query": per_q(lambda r: r.pairs_total),
        "pruning.skip_ratio": (
            sum(r.skipped_at_position.sum() for r in reps)
            / max(1, sum(r.pairs_total * r.b_dim for r in reps))
        ),
        "sim.ops_per_query": per_q(lambda r: r.metrics.node_ops().sum()),
        "sim.client_ops_per_query": per_q(lambda r: r.metrics.client_ops),
        "sim.bytes_per_query": per_q(lambda r: r.metrics.total_bytes()),
        "sim.msgs_per_query": per_q(lambda r: r.metrics.total_msgs()),
        "sim.comp_s": mean(
            lambda r: r.metrics.breakdown(model)["computation"]),
        "sim.comm_s": mean(
            lambda r: r.metrics.breakdown(model)["communication"]),
        "sim.imbalance_cv": mean(
            lambda r: r.metrics.node_ops().std()
            / r.metrics.node_ops().mean()),
        "planner.b_vec": searcher.dindex.plan.b_vec,
        "planner.b_dim": searcher.dindex.plan.b_dim,
        "planner.load_share_err": float(
            np.abs(predicted / predicted.sum() - ops / ops.sum()).max()),
        "baseline.faiss_lite_qps": faiss_qps,
        "trace.untraced_wall_qps": untraced_qps,
        "trace.traced_wall_qps": traced_qps,
        "trace.slowdown": untraced_qps / traced_qps,
    })
    return out
