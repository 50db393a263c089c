"""User-facing Harmony searcher: build (train, add, plan, distribute)
and search.

Mirrors the paper's ``-Mode`` parameter: ``harmony`` (adaptive grid via
the cost model), ``vector`` (Harmony-vector, ``B_dim=1``) and
``dimension`` (Harmony-dimension, ``B_vec=1``), plus the pruning /
scheduling / α knobs of §5 "Parameters".
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.cluster.layout import DistributedIndex, distribute
from repro.cluster.machine import MachineModel
from repro.core.cost_model import (
    CostBreakdown,
    CostParams,
    QueryProfile,
    choose_plan,
)
from repro.core.engine import HarmonyEngine, SearchResult
from repro.core.partition import make_plan
from repro.ivf.index import assign_vectors, train_centroids

#: Valid ``-Mode`` values (paper §5).
MODES = ("harmony", "vector", "dimension")


def _collect_vectors(df: DataFrame) -> np.ndarray:
    """All vectors of ``df`` as an id-ordered ``(n, dim)`` float32 array,
    in one Spark job. Raises ``ValueError`` unless the ids are exactly
    ``0..n-1``."""
    pdf = df.select("id", "vec").toPandas()
    ids = pdf["id"].to_numpy(np.int64)
    order = np.argsort(ids)
    if not len(ids) or not np.array_equal(ids[order], np.arange(len(ids))):
        raise ValueError(
            "HarmonySearcher.build needs a non-empty DataFrame whose ids "
            "are exactly 0..n-1"
        )
    return np.stack(pdf["vec"].to_numpy()[order]).astype(np.float32)


@dataclass(frozen=True)
class HarmonyConfig:
    """Build/search configuration (the paper's CLI parameters).

    ``n_nodes`` = ``-NMachine``; ``use_pruning`` =
    ``-Pruning_Configuration``; ``nlist`` = indexing parameter; ``alpha``
    = the cost model's imbalance weight; ``mode`` = ``-Mode``.
    """

    n_nodes: int = 4
    mode: str = "harmony"
    nlist: int = 64
    seed: int = 0
    schedule: str = "rotate"
    use_pruning: bool = True
    prewarm_per_cluster: int = 32
    machine: MachineModel = field(default_factory=MachineModel)
    alpha: float = 1.0
    balanced: bool = True
    #: Planner hints when no profile queries are supplied.
    nprobe_hint: int = 8
    k_hint: int = 10

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode {self.mode!r} not in {MODES}")


@dataclass
class HarmonySearcher:
    """A built distributed index plus its engine and planning record."""

    dindex: DistributedIndex
    config: HarmonyConfig
    engine: HarmonyEngine
    planned_cost: CostBreakdown | None = None

    @classmethod
    def build(
        cls,
        spark: SparkSession,
        df: DataFrame,
        config: HarmonyConfig = HarmonyConfig(),
        profile_queries: np.ndarray | None = None,
    ) -> "HarmonySearcher":
        """Train, add, plan and pre-assign the index (Fig. 10 stages).

        ``df`` holds ``(id, vec)`` rows with ids exactly ``0..n-1``, as
        :func:`repro.vectors.generate.base_spark` produces; anything else
        raises ``ValueError``. ``profile_queries`` — an optional sample
        workload the cost model profiles for skew; without it a uniform
        profile is assumed.
        """
        t0 = time.perf_counter()
        x = _collect_vectors(df)
        centroids = train_centroids(x, config.nlist, config.seed)
        train_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        ivf = assign_vectors(x, centroids)
        sizes = ivf.cluster_sizes().astype(np.float64)
        add_s = time.perf_counter() - t0

        dim = ivf.dim
        if profile_queries is not None:
            profile = QueryProfile.from_queries(
                centroids, sizes, np.asarray(profile_queries, np.float32),
                config.nprobe_hint, config.k_hint,
            )
        else:
            profile = QueryProfile.uniform(
                len(centroids), dim, sizes,
                n_queries=100, nprobe=config.nprobe_hint,
                k=config.k_hint,
            )
        cost = None
        # Fixed modes model the *traditional* distribution: clusters are
        # packed by size alone, blind to the query workload (paper §6.1's
        # Harmony-vector / Harmony-dimension baselines). Only adaptive
        # harmony packs by expected load (probe-weighted).
        if config.mode == "vector":
            plan = make_plan(config.n_nodes, config.n_nodes, 1, dim,
                             sizes, config.balanced)
        elif config.mode == "dimension":
            plan = make_plan(config.n_nodes, 1, config.n_nodes, dim,
                             sizes, config.balanced)
        else:
            plan, cost = choose_plan(
                config.n_nodes, profile,
                CostParams(
                    config.machine, config.alpha,
                    pruning_prior=0.6 if config.use_pruning else 0.0,
                ),
                balanced=config.balanced,
            )
        di = distribute(spark.sparkContext, ivf, plan,
                        config.prewarm_per_cluster)
        di.build_seconds.update(train=train_s, add=add_s)
        engine = HarmonyEngine(
            di, schedule=config.schedule, use_pruning=config.use_pruning,
        )
        return cls(di, config, engine, cost)

    def search(
        self, queries: np.ndarray, k: int = 10, nprobe: int = 8
    ) -> SearchResult:
        """Run one query batch through the pipelined engine.

        ``queries`` is a finite ``(Q, dim)`` array; ``k`` and ``nprobe``
        are at least 1 (``nprobe > nlist`` probes every cluster). Anything
        else raises ``ValueError``.
        """
        if k < 1 or nprobe < 1:
            raise ValueError(
                f"k and nprobe must be at least 1, got k={k}, "
                f"nprobe={nprobe}"
            )
        queries = np.asarray(queries, dtype=np.float32)
        dim = self.dindex.dim
        if queries.ndim != 2 or queries.shape[1] != dim:
            raise ValueError(
                f"queries must have shape (Q, {dim}), got {queries.shape}"
            )
        if not np.isfinite(queries).all():
            raise ValueError("queries must be finite (no NaN or inf)")
        return self.engine.search(queries, k=k, nprobe=nprobe)

    def with_engine(self, **overrides) -> "HarmonySearcher":
        """A sibling searcher sharing the built index but with engine
        knobs overridden (schedule, pruning, waves, machine) — used by
        the ablation experiments without re-distributing the index."""
        n_waves = overrides.pop("n_waves", 4)
        cfg = replace(self.config, **{
            k: v for k, v in overrides.items()
            if k in ("schedule", "use_pruning", "machine")
        })
        eng = HarmonyEngine(
            self.dindex, schedule=cfg.schedule,
            use_pruning=cfg.use_pruning, n_waves=n_waves,
        )
        return HarmonySearcher(self.dindex, cfg, eng, self.planned_cost)
