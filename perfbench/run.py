"""Run one workload of the search benchmark and print its result.

    python3 perfbench/run.py --workload sift-b16 --seed 1 --seconds 6 --trace 0

Run from the repository root. Each call is one driver process with one
client thread, so ``driver_peak_rss_mb`` belongs to that workload alone.
The metrics and their units come from ``BENCHMARK.json``: ``--trace 0``
reports the ``end_to_end`` ones, ``--trace 1`` the ``per_layer`` ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (query batches) and ``metrics``;
the full record, with the environment and, when traced, every span, goes
to ``.perfbench/results/``.

Spark runs locally at ``min(nproc, 4)`` cores (the index has 4 simulated
nodes), with ``SPARK_DRIVER_MEM`` (default 2g) for the driver JVM, and
keeps its temporary files under ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench"


def _configure_spark_env() -> None:
    """Environment the Spark JVM and its Python workers start with."""
    tmp = RUN_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(RUN_DIR / "spark-local")
    cores = min(4, len(os.sched_getaffinity(0)))
    os.environ["SPARK_MASTER"] = f"local[{cores}]"
    os.environ.setdefault("SPARK_DRIVER_MEM", "2g")
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    # The launcher JVM of spark-submit would write /tmp/hsperfdata_*.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--driver-memory", os.environ["SPARK_DRIVER_MEM"],
        "--driver-java-options", shlex.quote(java_opts),
        "--conf", shlex.quote(
            f"spark.sql.warehouse.dir={RUN_DIR / 'warehouse'}"),
        "pyspark-shell",
    ])


def _stop(spark) -> None:
    """Stop Spark, then end the gateway JVM and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()  # also stops the JVM's Python worker daemons
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"no repro sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    _configure_spark_env()

    import bench
    from repro.sparkutil import get_session

    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choices: "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    spark = get_session("perfbench")
    spark.sparkContext.setLogLevel("ERROR")
    try:
        out = bench.run(spark, bench.WORKLOADS[args.workload], args.seed,
                        args.seconds, bool(args.trace), ROOT)
    finally:
        _stop(spark)

    figures = out["per_layer"] if args.trace else out["end_to_end"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(figures[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    out["metrics"] = metrics
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps(out))

    print(f"environment: {json.dumps(out['environment'])}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {out['end_to_end']['error_rate']:.6g} fraction "
          f"({out['failed']} of {out['attempted']} batches)")
    print(f"batch_tail_ms is p{out['tail']['percentile']:.4g} of "
          f"{out['tail']['samples']} timed batches")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
