"""``python -m repro.experiments [name ...] [--sf --nodes --nlist --nprobe
--k --datasets]``: regenerate the paper's tables and figure checks.

Each named experiment (all of ``tables.EXPERIMENTS`` by default) writes
``results/<name>.txt`` (``REPRO_RESULTS`` names another directory), then
checks the paper claim its rows must hold. The exit status is 1, and
stderr names the claim, if any check fails.
"""
from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.runner import ExperimentConfig
from repro.experiments.tables import EXPERIMENTS, ClaimFailed, format_table
from repro.sparkutil import get_session


def write_table(name: str, rows: list[dict], title: str) -> str:
    """Write ``title`` and ``rows`` to ``<name>.txt``; return the text."""
    text = f"{title}\n\n{format_table(rows)}"
    out_dir = os.environ.get("REPRO_RESULTS", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.txt"), "w") as f:
        f.write(text + "\n")
    return text


def parse_args(argv=None) -> argparse.Namespace:
    d = ExperimentConfig()
    p = argparse.ArgumentParser(prog="python -m repro.experiments")
    p.add_argument("names", nargs="*", metavar="name",
                   help=f"default: all of {', '.join(EXPERIMENTS)}")
    p.add_argument("--sf", type=float, default=d.sf, help="scale factor")
    p.add_argument("--nodes", type=int, default=d.n_nodes)
    p.add_argument("--nlist", type=int, default=d.nlist)
    p.add_argument("--nprobe", type=int, default=d.nprobe)
    p.add_argument("--k", type=int, default=d.k)
    p.add_argument("--datasets", nargs="*", default=None,
                   help="default: each experiment's own")
    args = p.parse_args(argv)
    unknown = [n for n in args.names if n not in EXPERIMENTS]
    if unknown:  # exits with status 2, as argparse does for bad input
        p.error(f"unknown experiment {', '.join(unknown)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cfg = ExperimentConfig(sf=args.sf, n_nodes=args.nodes, nlist=args.nlist,
                           nprobe=args.nprobe, k=args.k)
    spark, failed = None, False
    try:
        for name in args.names or EXPERIMENTS:
            exp = EXPERIMENTS[name]
            if exp.datasets and spark is None:
                spark = get_session("experiments")
            rows = exp.rows(spark, cfg, args.datasets or exp.datasets)
            print(write_table(name, rows, exp.title.format(cfg=cfg)))
            try:
                exp.check(rows)
            except ClaimFailed as e:
                print(f"{name}: claim failed: {e}", file=sys.stderr)
                failed = True
    finally:
        if spark is not None:
            spark.stop()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
