"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Tracer.installed`
swaps a few public functions and methods of ``repro`` and ``pyspark`` for
timing wrappers and puts the originals back when it exits, so untraced
batches run the unmodified code. Each span holds its name, start, end,
the index of its parent span and the id of the batch (or build) it
belongs to. Spans stay in :attr:`Tracer.spans` until the run writes them
out.
"""
from __future__ import annotations

import contextlib
import os
import statistics
import time
from dataclasses import dataclass

import pyspark

import repro.core.engine as engine_mod
import repro.core.searcher as searcher_mod
from repro.core.pruning import TopK


@dataclass
class Span:
    """One timed call. ``size`` is rows collected or bytes broadcast."""

    name: str
    start: float
    end: float
    parent: int | None
    batch: str | None
    size: int = 0

    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _broadcast_bytes(bc) -> int:
    # pyspark pickles a broadcast value to a driver-side file; its size is
    # the payload shipped to the workers.
    path = getattr(bc, "_path", None)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


#: (owner, attribute, span name, size of the result). Names are
#: ``<layer>.<call>``; layers are the ``repro`` modules plus Spark.
PATCHES = (
    (pyspark.SparkContext, "broadcast", "spark.broadcast", _broadcast_bytes),
    (pyspark.RDD, "collect", "spark.collect", len),
    (engine_mod, "probe_clusters", "ivf.probe", None),
    (engine_mod, "queries_per_vblock", "router.queries_per_vblock", None),
    (engine_mod, "assign_query_groups", "router.assign_query_groups", None),
    (engine_mod, "dim_order", "router.dim_order", None),
    (TopK, "update", "pruning.topk_update", None),
    (TopK, "threshold", "pruning.topk_threshold", None),
    (TopK, "result", "pruning.topk_result", None),
    (searcher_mod, "train_centroids", "layout.train", None),
    (searcher_mod, "assign_vectors", "layout.assign", None),
    (searcher_mod, "choose_plan", "planner.choose_plan", None),
    (searcher_mod, "make_plan", "planner.make_plan", None),
    (searcher_mod, "distribute", "layout.preassign", None),
)


class Tracer:
    """Collects spans; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: Id shared by every span of the current batch or build.
        self.batch: str | None = None

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.batch)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: Span) -> None:
        rec.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, batch: str):
        """A root span that tags every span under it with ``batch``."""
        self.batch = batch
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)
            self.batch = None

    def _wrap(self, fn, name, size):
        def wrapper(*args, **kwargs):
            rec = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(rec)
            if size is not None:
                rec.size = size(out)
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper of :data:`PATCHES`; restore on exit."""
        saved = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in PATCHES]
        try:
            for (owner, attr, name, size), (_, _, orig) in zip(
                PATCHES, saved
            ):
                setattr(owner, attr, self._wrap(orig, name, size))
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    # ---- analysis -----------------------------------------------------

    def of_batch(self, batch: str) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.batch == batch]

    def to_json(self) -> list[list]:
        """Spans as ``[name, start, end, parent, batch, size]`` rows."""
        return [[s.name, s.start, s.end, s.parent, s.batch, s.size]
                for s in self.spans]


def _sum_ms(spans, prefix: str) -> float:
    return sum(s.ms() for _, s in spans if s.name.startswith(prefix))


def batch_layers(tracer: Tracer, batch: str, jobs: int,
                 empty_job_ms: float) -> dict[str, float]:
    """Per-layer figures of one traced search batch.

    The root span is the ``engine.search`` call; ``engine.self_ms`` is its
    duration minus its direct children, which run one after another on
    the single client thread and so never overlap.
    """
    spans = tracer.of_batch(batch)
    root_i, root = spans[0]
    children = sum(s.ms() for _, s in spans if s.parent == root_i)
    collects = [s for _, s in spans if s.name == "spark.collect"]
    bcasts = [s for _, s in spans if s.name == "spark.broadcast"]
    collect_ms = sum(s.ms() for s in collects)
    return {
        "spark.jobs_per_batch": jobs,
        "spark.broadcast_ms": sum(s.ms() for s in bcasts),
        "spark.broadcast_mb": sum(s.size for s in bcasts) / 1e6,
        "spark.collect_ms": collect_ms,
        "spark.result_rows": sum(s.size for s in collects),
        "spark.collect_over_floor_ms": collect_ms - jobs * empty_job_ms,
        "engine.self_ms": root.ms() - children,
        "ivf.probe_ms": _sum_ms(spans, "ivf."),
        "router.ms": _sum_ms(spans, "router."),
        "router.dim_order_calls": sum(
            s.name == "router.dim_order" for _, s in spans),
        "pruning.topk_ms": _sum_ms(spans, "pruning.topk"),
        "pruning.topk_update_calls": sum(
            s.name == "pruning.topk_update" for _, s in spans),
    }


def build_layers(tracer: Tracer, build: str, jobs: int) -> dict[str, float]:
    """Per-layer figures of one traced ``HarmonySearcher.build``.

    ``assign_vectors`` only defines a lazy DataFrame; the add stage runs
    when ``build`` counts cluster sizes right after it, so ``layout.add_s``
    spans from the assign call to the first planner call.
    """
    spans = tracer.of_batch(build)
    by = {}
    for _, s in spans:
        by.setdefault(s.name, s)
    plan_start = min(s.start for _, s in spans
                     if s.name.startswith("planner."))
    return {
        "layout.train_s": by["layout.train"].ms() / 1e3,
        "layout.add_s": plan_start - by["layout.assign"].start,
        "layout.preassign_s": by["layout.preassign"].ms() / 1e3,
        "layout.build_spark_jobs": jobs,
        "planner.plan_ms": _sum_ms(spans, "planner."),
    }


def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median over per-batch (or per-build) dicts."""
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
