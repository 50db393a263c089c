"""Flexible pipelined execution engine (paper §4.3, Algorithm 1).

The driver plays the client/master node: it assigns centroids, prewarms
the top-K heaps, and orchestrates the two pipelines —

* **vector pipeline** (Alg. 1 ``VectorPipeline``): queries are split into
  ``B_vec`` groups; in round ``r`` group ``g`` visits vector shard
  ``(g+r) mod B_vec`` (Fig. 5a), and the heaps/thresholds tighten between
  rounds;
* **dimension pipeline** (Alg. 1 ``DimensionPipeline``): within a round,
  each query's candidates are split into ``n_waves`` staggered waves that
  flow through the ``B_dim`` dimension blocks exactly as Fig. 5b's
  staggered stages: at global stage ``t``, wave ``w`` computes its
  dimension block number ``t - w`` (per-query block order from the
  scheduler), so all nodes stay busy and — crucially — early waves
  *complete* and tighten ``τ²`` while later waves are still mid-flight.
  The driver accumulates partial sums ``S²`` and prunes candidates with
  ``S² > τ²`` between stages (strict monotone test → exact w.r.t. the
  probed clusters).

Every global stage is metered: per-node ops, bytes down (query slices +
survivor sets), bytes up (partial sums / local top-k results), messages,
transient buffers. A stage is executed as a ``mapPartitions`` job over the
distributed cells. A stage waits for the previous one only when a pruning
decision can depend on it: on ``B_dim = 1`` grids (worker-local top-k,
no driver pruning) or with pruning off, no stage's work depends on an
earlier stage's results, so the whole search runs as *one* Spark job and
its stages are folded in order afterwards; otherwise each global stage
is its own job.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.layout import DistributedIndex
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import ClusterMetrics
from repro.core.cost_model import (
    BYTES_PER_PARTIAL,
    BYTES_PER_POSITION,
    BYTES_PER_RESULT,
    BYTES_PER_SCALAR,
)
from repro.core.pruning import TopK, prune_mask
from repro.core.router import (
    assign_query_groups,
    dim_order,
    queries_per_vblock,
)
from repro.ivf.index import probe_clusters

#: Relative slack on τ² before pruning. S² adds per-block float32 sums,
#: so it rounds differently from the full-vector distances that fill the
#: heap (prewarm) and that faiss_lite computes. Pruning only above
#: τ²·(1 + PRUNE_MARGIN) keeps a rounding difference in the last bits
#: from dropping a candidate that belongs in the top-k, so the search
#: stays exact with respect to a full scan of the probed clusters.
PRUNE_MARGIN = 1e-5


@dataclass
class SearchReport:
    """Everything measured during one :meth:`HarmonyEngine.search` call."""

    metrics: ClusterMetrics
    #: Candidate rows that entered the staged scan (prewarm excluded).
    pairs_total: int
    #: ``skipped[s]`` — candidate rows already pruned when their pipeline
    #: position ``s`` executed (Table 3 numerators; position 0 is 0).
    skipped_at_position: np.ndarray
    b_dim: int

    def pruning_ratios(self) -> np.ndarray:
        """Table 3 per-slice pruning ratios (fraction of distance
        calculations skipped at each pipeline position)."""
        if self.pairs_total == 0:
            return np.zeros(self.b_dim)
        return self.skipped_at_position / self.pairs_total

    def simulated_seconds(self, model: MachineModel) -> float:
        """Simulated elapsed seconds under ``model``."""
        return self.metrics.simulated_seconds(model)


@dataclass
class SearchResult:
    """Top-K answer plus the search report: ``ids``/``dists`` are
    ``(Q, k)`` arrays, distance-ascending, padded with ``(-1, inf)``."""

    ids: np.ndarray
    dists: np.ndarray
    report: SearchReport


def _stage_worker(payload_bc):
    """Worker closure for a list of global pipeline stages run as one job.

    ``payload_bc`` broadcasts ``(stages, finalize_k)`` where ``stages[i]``
    is ``{(vblock, dimblock): [(tag, qslice, [(cluster, positions)])]}``
    (``tag`` identifies the (query, wave) the work belongs to). Every
    result row starts with its stage index ``i``.

    * ``finalize_k is None``: nodes return partial squared-L2 sums
      ``(i, tag, cluster, None, partials)`` for the master to accumulate.
    * ``finalize_k = k`` (full-dimension cells, ``B_dim = 1``): the node
      holds whole vectors, so — like a real Harmony-vector worker — it
      reduces to its *local top-k* per task and ships only ``k`` results
      ``(i, tag, cluster, positions_subset, dists_subset)``.
    """

    def fn(cells):
        out = []
        stages, finalize_k = payload_bc.value
        for cell in cells:
            key = (cell.vblock, cell.dimblock)
            for i, tasks_by_cell in enumerate(stages):
                for tag, qslice, cl_list in tasks_by_cell.get(key, ()):
                    per_t = []
                    for c, pos in cl_list:
                        mat = cell.clusters.get(int(c))
                        if mat is None or len(pos) == 0:
                            continue
                        diff = mat[pos] - qslice
                        d = (diff * diff).sum(axis=1).astype(np.float64)
                        per_t.append((int(c), pos, d))
                    if finalize_k is None:
                        out.extend((i, tag, c, None, d) for c, _, d in per_t)
                    elif per_t:
                        all_d = np.concatenate([d for _, _, d in per_t])
                        kk = min(finalize_k, len(all_d))
                        cut = np.partition(all_d, kk - 1)[kk - 1]
                        for c, pos, d in per_t:
                            keep = d <= cut
                            out.append((i, tag, c, pos[keep], d[keep]))
        return out

    return fn


@dataclass
class _Stage:
    """One planned global stage: its worker payload and, per task tag,
    the ``(wave, pipeline position)`` the results fold into."""

    label: str
    payload: dict
    waves: dict


class _Wave:
    """One staggered candidate wave of one query within a round."""

    __slots__ = ("q", "v", "w", "entries")

    def __init__(self, q: int, v: int, w: int, entries: list):
        self.q = q  # query id
        self.v = v  # vector shard of this round
        self.w = w  # wave index (stagger offset)
        self.entries = entries  # [[cluster, positions, S²], ...]

    def alive(self) -> int:
        return sum(len(e[1]) for e in self.entries)


class HarmonyEngine:
    """Drives distributed top-K search over a :class:`DistributedIndex`."""

    def __init__(
        self,
        dindex: DistributedIndex,
        schedule: str = "rotate",
        use_pruning: bool = True,
        n_waves: int = 4,
    ):
        self.di = dindex
        self.schedule = schedule
        self.use_pruning = use_pruning
        #: Candidate waves per round; 1 disables intra-round pipelining
        #: (the "w/o pipeline" ablation of Fig. 9 uses static + 1 wave).
        self.n_waves = n_waves

    # -----------------------------------------------------------------
    def search(
        self, queries: np.ndarray, k: int = 10, nprobe: int = 8
    ) -> SearchResult:
        """Approximate top-``k`` over the probed clusters of each query.

        Exact within the probed clusters: pruning uses the strict
        monotone test, so results match a full scan of the same clusters.
        """
        di = self.di
        plan = di.plan
        b_vec, b_dim = plan.b_vec, plan.b_dim
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        n_q = len(queries)
        sizes = di.cluster_sizes()
        metrics = ClusterMetrics(plan.n_nodes)
        n_waves = 1 if b_dim == 1 else max(1, self.n_waves)

        # Client: centroid assignment (§4.2.2 step 1).
        probes = probe_clusters(di.centroids, queries, nprobe)
        metrics.client_ops += n_q * di.nlist * di.dim

        # Prewarm (Alg. 1 lines 1-5): score each query's nearest-cluster
        # sample on the client to seed the heap / initial τ².
        topk = TopK(n_q, k)
        done: dict[tuple[int, int], int] = {}
        for q in range(n_q):
            c0 = int(probes[q, 0])
            pw = di.prewarm_rows.get(c0)
            if pw is None or not len(pw):
                continue
            diff = pw - queries[q]
            d = (diff * diff).sum(axis=1).astype(np.float64)
            topk.update(q, di.cluster_ids[c0][: len(pw)], d)
            done[(q, c0)] = len(pw)
            metrics.client_ops += len(pw) * di.dim

        per_v = queries_per_vblock(plan, probes)
        groups = assign_query_groups(n_q, b_vec)
        skipped = np.zeros(b_dim)
        pairs_total = 0
        # Stage results feed a pruning decision only on B_dim > 1 grids
        # with pruning on; otherwise no stage waits for the one before,
        # and every stage runs in one Spark job at the end.
        defer = b_dim == 1 or not self.use_pruning
        pending: list[_Stage] = []

        for r in range(b_vec):  # vector pipeline rounds (Fig. 5a)
            waves = self._build_waves(r, per_v, groups, done, sizes, n_waves)
            if not waves:
                continue
            wave_pairs = {id(wv): wv.alive() for wv in waves}
            pairs_total += sum(wave_pairs.values())

            # Per-(query, wave) dimension-block orders (scheduler,
            # §4.3). An order is fixed when the wave *starts*, so the
            # load-aware policy sees live node loads — later work defers
            # the overloaded node's block to its final stages, exactly
            # the paper's dynamic reordering example (Fig. 5b, Q2/D1).
            orders: dict[tuple[int, int], list[int]] = {}

            for t in range(b_dim + n_waves - 1):  # global stages
                active = [
                    (wv, t - wv.w) for wv in waves if 0 <= t - wv.w < b_dim
                ]
                if not active:
                    continue
                node_loads = metrics.node_ops()
                for wv, s in active:
                    if (wv.q, wv.w) not in orders:
                        orders[(wv.q, wv.w)] = dim_order(
                            self.schedule,
                            wv.q,
                            b_dim,
                            np.array(
                                [
                                    node_loads[plan.cell_node(wv.v, b)]
                                    for b in range(b_dim)
                                ]
                            ),
                        )
                for wv, s in active:
                    skipped[s] += wave_pairs[id(wv)] - wv.alive()
                stage = self._plan_stage(
                    f"r{r}t{t}", active, orders, queries, k, metrics
                )
                if stage is None:
                    continue
                if defer:
                    pending.append(stage)
                else:
                    (rows,) = self._execute([stage], k)
                    self._fold(stage, rows, topk)

        if pending:
            for stage, rows in zip(pending, self._execute(pending, k)):
                self._fold(stage, rows, topk)

        ids, dists = topk.result()
        report = SearchReport(
            metrics=metrics,
            pairs_total=pairs_total,
            skipped_at_position=skipped,
            b_dim=b_dim,
        )
        return SearchResult(ids=ids, dists=dists, report=report)

    # -----------------------------------------------------------------
    def _build_waves(
        self, r, per_v, groups, done, sizes, n_waves
    ) -> list[_Wave]:
        """Candidate waves for round ``r``: group ``g`` visits shard
        ``(g+r) mod B_vec``; each query's candidate rows are split into
        ``n_waves`` contiguous chunks (stagger offsets 0..n_waves-1)."""
        plan = self.di.plan
        waves: list[_Wave] = []
        for g in range(plan.b_vec):
            v = (g + r) % plan.b_vec
            for q in np.nonzero(groups == g)[0]:
                cl = per_v[v].get(int(q))
                if cl is None:
                    continue
                per_wave: list[list] = [[] for _ in range(n_waves)]
                for c in cl:
                    start = done.get((int(q), int(c)), 0)
                    if sizes[c] <= start:
                        continue
                    pos = np.arange(start, sizes[c], dtype=np.int64)
                    for w, chunk in enumerate(
                        np.array_split(pos, n_waves)
                    ):
                        if len(chunk):
                            per_wave[w].append(
                                [int(c), chunk, np.zeros(len(chunk))]
                            )
                for w, entries in enumerate(per_wave):
                    if entries:
                        waves.append(_Wave(int(q), v, w, entries))
        return waves

    # -----------------------------------------------------------------
    def _plan_stage(
        self, label, active, orders, queries, k, metrics
    ) -> _Stage | None:
        """Build one global stage's payload and meter it; ``None`` when
        no active wave has candidates left."""
        plan = self.di.plan
        b_dim = plan.b_dim
        payload: dict = {}
        tag_to_wave: dict[int, tuple[_Wave, int]] = {}
        ops = np.zeros(plan.n_nodes)
        down = np.zeros(plan.n_nodes)
        up = np.zeros(plan.n_nodes)
        n_tasks = np.zeros(plan.n_nodes)
        for tag, (wv, s) in enumerate(active):
            b = orders[(wv.q, wv.w)][s]
            lo, hi = plan.dim_bounds[b]
            node = plan.cell_node(wv.v, b)
            cl_list = [(c, pos) for c, pos, _ in wv.entries if len(pos)]
            if not cl_list:
                continue
            tag_to_wave[tag] = (wv, s)
            payload.setdefault((wv.v, b), []).append(
                (tag, queries[wv.q, lo:hi], cl_list)
            )
            npairs = sum(len(p) for _, p in cl_list)
            n_tasks[node] += 1
            ops[node] += npairs * (hi - lo)
            down[node] += (hi - lo) * BYTES_PER_SCALAR
            if s > 0:  # survivor sets resent after pruning
                down[node] += npairs * BYTES_PER_POSITION
            if b_dim == 1:  # worker-local top-k reduction
                up[node] += k * BYTES_PER_RESULT
            else:
                up[node] += npairs * BYTES_PER_PARTIAL
        if not payload:
            return None
        # One request + one response message per (query, wave) task.
        msgs = 2.0 * n_tasks
        metrics.record_stage(
            label, ops, down, up, msgs, buffer_bytes=down + up
        )
        return _Stage(label, payload, tag_to_wave)

    def _execute(self, stages: list[_Stage], k) -> list[list]:
        """Run ``stages`` as one Spark job; returns each stage's result
        rows, in collected partition order."""
        di = self.di
        sc = di.rdd.context
        finalize_k = k if di.plan.b_dim == 1 else None
        labels = stages[0].label
        if len(stages) > 1:
            labels += ".." + stages[-1].label
        bc = sc.broadcast(([st.payload for st in stages], finalize_k))
        # The caller (e.g. a benchmark) may have described its own job.
        prev = sc.getLocalProperty("spark.job.description")
        try:
            sc.setJobDescription(f"harmony {labels}")
            results = di.rdd.mapPartitions(_stage_worker(bc)).collect()
        finally:
            sc.setLocalProperty("spark.job.description", prev)
            bc.unpersist()
        rows: list[list] = [[] for _ in stages]
        for i, *row in results:
            rows[i].append(row)
        return rows

    def _fold(self, stage: _Stage, rows, topk) -> None:
        """Fold one stage's result rows into the heaps and prune."""
        di = self.di
        b_dim = di.plan.b_dim
        if b_dim == 1:
            # Vector-partitioned round: workers returned their local
            # top-k directly; fold it into the heaps and consume.
            for tag, c, pos_sub, d_sub in rows:
                wv, _ = stage.waves[tag]
                topk.update(wv.q, di.cluster_ids[c][pos_sub], d_sub)
            for wv, _ in stage.waves.values():
                for e in wv.entries:
                    e[1] = e[1][:0]
            return
        margin = 1.0 + PRUNE_MARGIN
        res_map = {(tag, c): p for tag, c, _, p in rows}
        for tag, (wv, s) in stage.waves.items():
            tau2 = topk.threshold(wv.q) * margin
            do_prune = (
                self.use_pruning and s < b_dim - 1 and np.isfinite(tau2)
            )
            for e in wv.entries:
                c, pos, s2 = e
                if not len(pos):
                    continue
                s2 = s2 + res_map[(tag, c)]
                if do_prune:
                    keep = prune_mask(s2, tau2)
                    e[1], e[2] = pos[keep], s2[keep]
                else:
                    e[1], e[2] = pos, s2
        # Completed waves feed the heap → tighter τ² for the waves still
        # in flight (the pipeline's pruning win).
        for wv, s in stage.waves.values():
            if s == b_dim - 1:
                for c, pos, s2 in wv.entries:
                    if len(pos):
                        topk.update(wv.q, di.cluster_ids[c][pos], s2)
                for e in wv.entries:
                    e[1] = e[1][:0]
