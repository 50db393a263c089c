"""Distributed index layout on Spark (the paper's "Pre-assign" stage).

One simulated worker node = one Spark RDD partition. The driver slices a
built :class:`~repro.ivf.index.IVFIndex` into grid cells ``(v, b)``
(vector shard ``v`` × dimension block ``b``) and places them with one
``parallelize`` call in node order, so partition ``i`` holds exactly the
cell of node ``i = plan.cell_node(v, b)`` — the Spark analog of Harmony
assigning index blocks to MPI ranks. Each partition holds a
:class:`CellStore` with its clusters' vector rows restricted to its
dimension block; the driver keeps the client-side routing table
(centroids, per-cluster id lists, prewarm sample).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from pyspark import SparkContext

from repro.core.partition import PartitionPlan
from repro.ivf.index import IVFIndex

#: Bytes per element of the per-node partial-distance accumulator that
#: dimension-partitioned layouts pre-allocate (8B float64 running sum +
#: 4B int32 survivor slot) — the "initialize intermediate results" space
#: the paper attributes to the Pre-assign stage (§6.4.1, Table 4 note).
ACCUM_BYTES_PER_VECTOR = 12


@dataclass
class CellStore:
    """One grid cell's storage on its worker node.

    ``clusters[c]`` is the ``(size_c, block_dims)`` float32 matrix of
    cluster ``c``'s vectors restricted to this cell's dimension block,
    rows sorted by ascending vector id (the canonical order shared with
    the driver's routing table, so row positions line up)."""

    vblock: int
    dimblock: int
    clusters: dict[int, np.ndarray] = field(repr=False)

    def nbytes(self) -> int:
        """Bytes of vector data stored in this cell."""
        return int(sum(m.nbytes for m in self.clusters.values()))


@dataclass
class DistributedIndex:
    """A plan-laid-out IVF index: worker cells on Spark + client metadata."""

    plan: PartitionPlan
    centroids: np.ndarray
    #: Per-cluster vector ids, ascending — row ``p`` of a cell's cluster
    #: matrix is the vector ``cluster_ids[c][p]`` (client routing table).
    cluster_ids: list[np.ndarray]
    #: Client-side prewarm sample: first rows of each cluster, full dims.
    prewarm_rows: dict[int, np.ndarray]
    rdd: object  # RDD[CellStore], one partition per node
    node_index_bytes: np.ndarray
    build_seconds: dict[str, float]

    @property
    def nlist(self) -> int:
        """Number of IVF clusters."""
        return len(self.centroids)

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return int(self.centroids.shape[1])

    def cluster_sizes(self) -> np.ndarray:
        """Per-cluster vector counts."""
        return np.array([len(i) for i in self.cluster_ids])

    def node_accumulator_bytes(self) -> np.ndarray:
        """Pre-allocated partial-result buffer per node (0 when
        ``B_dim = 1`` — vector partitioning needs no accumulators)."""
        out = np.zeros(self.plan.n_nodes)
        if self.plan.b_dim == 1:
            return out
        sizes = self.cluster_sizes()
        shard_count = np.zeros(self.plan.b_vec)
        for c, v in enumerate(self.plan.cluster_to_vblock):
            shard_count[v] += sizes[c]
        for n in range(self.plan.n_nodes):
            v, _ = self.plan.node_cell(n)
            out[n] = ACCUM_BYTES_PER_VECTOR * shard_count[v]
        return out

    def node_memory_bytes(self) -> np.ndarray:
        """Per-node resident index memory: cell data + accumulators.
        ``max()`` of this is the Table 4 per-method figure."""
        return self.node_index_bytes + self.node_accumulator_bytes()

    def unpersist(self) -> None:
        """Release the cached worker cells."""
        self.rdd.unpersist()


def distribute(
    sc: SparkContext,
    ivf: IVFIndex,
    plan: PartitionPlan,
    prewarm_per_cluster: int = 32,
) -> DistributedIndex:
    """Lay a built IVF index out on the simulated cluster.

    Slices every cluster of vector shard ``v`` to dimension block ``b``
    on the driver and places the cells with ``parallelize`` in node
    order, one per partition, cached on the workers. Also keeps the client-side routing table
    and a prewarm sample: copies of each cluster's first rows, so the
    searcher does not keep the corpus alive. Timed as the "Pre-assign"
    stage.
    """
    t0 = time.perf_counter()
    cells = []
    for n in range(plan.n_nodes):
        v, b = plan.node_cell(n)
        lo, hi = plan.dim_bounds[b]
        cells.append(CellStore(v, b, {
            int(c): np.ascontiguousarray(ivf.cluster_vectors[c][:, lo:hi])
            for c in plan.clusters_of_vblock(v)
        }))
    prewarm_rows = {
        c: rows[:prewarm_per_cluster].copy()
        for c, rows in enumerate(ivf.cluster_vectors)
        if len(rows)
    }
    rdd = sc.parallelize(cells, plan.n_nodes)
    # A parallelized partition travels inside every task that reads it.
    # Caching the cells and cutting that lineage keeps each search
    # stage's tasks small.
    rdd.localCheckpoint()
    rdd.count()
    return DistributedIndex(
        plan=plan,
        centroids=ivf.centroids,
        cluster_ids=ivf.cluster_ids,
        prewarm_rows=prewarm_rows,
        rdd=rdd,
        node_index_bytes=np.array([float(c.nbytes()) for c in cells]),
        build_seconds={"preassign": time.perf_counter() - t0},
    )
