"""Shared experiment harness: dataset bundles + searcher builds.

Every evaluation table and figure check goes through this module,
so the workload (scale factor, node count, nlist, nprobe, K) is defined
in exactly one place and each dataset's builds are cached in its bundle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession

from repro.cluster.machine import MachineModel
from repro.core.searcher import HarmonyConfig, HarmonySearcher
from repro.ivf.index import IVFIndex, build_ivf, probe_clusters
from repro.vectors.generate import base_numpy, base_spark, queries_numpy
from repro.vectors.specs import DatasetSpec, get_spec


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale/quality knobs common to all table reproductions.

    The paper runs ~1M vectors, 4 worker nodes, high-recall IVF settings;
    we default to SF=0.01 (~10K vectors per dataset) which keeps every
    table regenerable in minutes on a laptop-class Spark while preserving
    the comparisons' shape.
    """

    sf: float = 0.01
    n_nodes: int = 4
    nlist: int = 48
    k: int = 10
    nprobe: int = 8
    prewarm_per_cluster: int = 16
    seed: int = 0
    alpha: float = 1.0
    machine: MachineModel = field(default_factory=MachineModel)
    #: Datasets whose dims make SF=0.01 heavy get an extra shrink factor.
    heavy_shrink: float = 0.6

    def sf_for(self, spec: DatasetSpec) -> float:
        """Per-dataset scale factor (shrinks very high-dim sets)."""
        return self.sf * self.heavy_shrink if spec.dim > 1500 else self.sf


class DatasetBundle:
    """One dataset's materialized artifacts, built lazily and cached.

    Holds the numpy base/query arrays, the Spark vector DataFrame, the
    single-node IVF index (the "Faiss" baseline) and one built
    :class:`HarmonySearcher` per mode.
    """

    def __init__(self, spark: SparkSession, name: str, cfg: ExperimentConfig):
        self.spark = spark
        self.cfg = cfg
        self.spec = get_spec(name)
        self.name = name
        sf = cfg.sf_for(self.spec)
        self.x = base_numpy(self.spec, sf)
        self.queries = queries_numpy(self.spec, sf)
        self.df = base_spark(spark, self.spec, sf)
        self._ivf: IVFIndex | None = None
        self._searchers: dict[tuple, HarmonySearcher] = {}

    @property
    def ivf(self) -> IVFIndex:
        """Single-node IVF index (baseline), built once."""
        if self._ivf is None:
            self._ivf = build_ivf(self.x, self.cfg.nlist, seed=self.cfg.seed)
        return self._ivf

    def searcher(
        self,
        mode: str,
        schedule: str = "rotate",
        profile_queries: np.ndarray | None = None,
        tag: str = "",
        **overrides,
    ) -> HarmonySearcher:
        """Build (or fetch) a searcher for ``mode``.

        ``profile_queries`` is the sample workload the cost model plans
        against (harmony mode adapts to it; fixed modes ignore it for
        packing). ``tag`` disambiguates cached builds per workload.
        """
        key = (mode, schedule, tag, tuple(sorted(overrides.items())))
        if key not in self._searchers:
            cfg = HarmonyConfig(
                n_nodes=self.cfg.n_nodes,
                mode=mode,
                nlist=self.cfg.nlist,
                seed=self.cfg.seed,
                schedule=schedule,
                prewarm_per_cluster=self.cfg.prewarm_per_cluster,
                machine=self.cfg.machine,
                alpha=self.cfg.alpha,
                nprobe_hint=self.cfg.nprobe,
                k_hint=self.cfg.k,
                **overrides,
            )
            self._searchers[key] = HarmonySearcher.build(
                self.spark, self.df, cfg,
                profile_queries=(
                    self.queries if profile_queries is None
                    else profile_queries
                ),
            )
        return self._searchers[key]

    def workload(self, skew: float = 0.0) -> np.ndarray:
        """Query batch at the requested center-skew level (0 = natural)."""
        if skew == 0.0:
            return self.queries
        sf = self.cfg.sf_for(self.spec)
        return queries_numpy(self.spec, sf, skew=skew)

    def imbalanced_workload(self, frac: float, node: int = 0) -> np.ndarray:
        """Engineered skew (paper §6.2.2: "query sets are manipulated to
        ensure different load differences on each machine").

        A fraction ``frac`` of the natural queries is replaced by queries
        aimed at the clusters a traditional vector partition stores on
        ``node`` — so that node's shard absorbs ``frac`` of the probe
        load while the others idle. ``frac = 0`` is the balanced
        workload; ``frac → 1`` concentrates virtually all work on one
        node.
        """
        if frac <= 0:
            return self.queries
        sv = self.searcher("vector")
        plan, di = sv.dindex.plan, sv.dindex
        hot_clusters = plan.clusters_of_vblock(node % plan.b_vec)
        hot_set = set(int(c) for c in hot_clusters)
        sizes = di.cluster_sizes().astype(np.float64)
        q = self.queries.copy()
        n_hot = int(round(len(q) * frac))
        g = np.random.default_rng([77, int(frac * 1000)])
        # Rejection sampling: draw many candidates near the target
        # node's centroids and keep those whose probe load actually
        # lands on that node (IVF probe neighborhoods spread, so naive
        # centroid-aimed queries only mildly skew the load).
        n_cand = max(n_hot * 16, 64)
        cids = g.choice(hot_clusters, size=n_cand)
        cent = di.centroids[cids]
        jitter = 0.05 * np.abs(cent).mean()
        cand = cent + jitter * g.standard_normal(cent.shape).astype(
            np.float32
        )
        probes = probe_clusters(di.centroids, cand, self.cfg.nprobe)
        load = sizes[probes]
        on_node = np.isin(probes, list(hot_set))
        score = (load * on_node).sum(axis=1) / load.sum(axis=1)
        q[:n_hot] = cand[np.argsort(-score)[:n_hot]]
        return q

    def close(self) -> None:
        """Unpersist all built distributed indexes."""
        for s in self._searchers.values():
            s.dindex.unpersist()
        self._searchers.clear()


def qps(
    n_queries: int, seconds: float
) -> float:
    """Queries per second given simulated elapsed seconds."""
    return n_queries / seconds if seconds > 0 else float("inf")
