"""The one SparkSession config of the repository.

The experiments CLI (``python -m repro.experiments``), the benchmark
(``perfbench/run.py``) and the tests' ``spark`` fixture (``conftest.py``)
all build their session here, so they see identical Spark behaviour
(shuffle partitions, Arrow, no auto-broadcast).
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app: str = "repro-job") -> SparkSession:
    """Create (or reuse) the local session with the repro settings."""
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
