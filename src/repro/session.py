"""The one Spark session setup of the tests and the jobs, so their numbers
are comparable: broadcast joins off (joins take the shuffle path at
SF~=0.1), Arrow on, ``SPARK_SHUFFLE_PARTITIONS`` shuffle partitions
(default 64). Master and driver memory are read once, at JVM launch,
from ``PYSPARK_SUBMIT_ARGS``, which ``get_spark`` sets unless it is set.
"""
from __future__ import annotations

import os
from pathlib import Path

from pyspark.sql import SparkSession

_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def _driver_memory() -> tuple[str, str]:
    """A driver heap and where it came from: ~75% of the cgroup v2/v1
    memory limit, else half of physical memory clamped to 2-8 GiB. A
    missing or unbounded limit (v1's ~9.2e18 "unlimited") counts as
    absent, so the JVM is never handed an impossible heap."""
    for p in _CGROUP_LIMITS:
        try:
            raw = Path(p).read_text().strip()
            gib = int(raw) / (1 << 30)
        except (OSError, ValueError):  # missing, or "max"
            continue
        if 1 <= gib <= 1024:
            return f"{max(1, int(gib * 0.75))}g", f"cgroup:{p}={raw}"
    half = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (2 << 30)
    return f"{min(8, max(2, half))}g", "physical/2"


def get_spark(app: str) -> SparkSession:
    """The session named ``app``, started on first use; the driver heap is
    ``SPARK_DRIVER_MEM`` if set, else ``_driver_memory()``."""
    if "SPARK_DRIVER_MEM" not in os.environ:
        os.environ["SPARK_DRIVER_MEM"], os.environ["_SPARK_DRIVER_MEM_SRC"] = _driver_memory()
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
