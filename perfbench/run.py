#!/usr/bin/env python3
"""Per-query, per-strategy benchmark of the predicate-transfer engine.

    python3 perfbench/run.py --workload q04 --seed 0 --seconds 25 --trace 0

Drives the program as a user does: ``tpch.generate`` builds the data,
``queries.build`` the query and ``run_query`` runs it. One workload is one
query, run under all four strategies in a closed loop with one client:
one ``run_query`` call at a time, from this process, on ``local[2]``.
Every result is compared with the DuckDB oracle outside the timed region.

``--trace 0`` prints the end-to-end metrics: the median wall-clock time of
one ``run_query`` call per strategy, the set-up time and the peak Spark
storage memory. ``--trace 1`` wraps the calls into each layer (see
``spans.py``) and prints the per-layer metrics named in BENCHMARK.json
instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from layers import STRATEGIES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # spans and Spark's scratch files; never committed

#: q04: a semi edge with a predicate on each side, so filters prune both
#: tables; q12: the control. README.md gives the reasons for each.
WORKLOADS = ("q04", "q12")
SF = 0.004  # lineitem gets several partitions from 0.0034 on
#: Spark's task slots and shuffle partitions, fixed whatever the host or the
#: environment says. A run_query call at this scale waits on Spark's job
#: and task hand-offs, not on computation, so more slots do not make it
#: faster; they only put more threads on the host's cores at once, and
#: the medians of q04 spread about half as widely from run to run on
#: ``local[2]`` as on ``local[4]`` (README.md gives the runs).
CORES = 2
SHUFFLE_PARTITIONS = CORES
DRIVER_MEMORY = "1g"
#: C1 only: a run is too short for C2 to finish compiling Spark's hot code,
#: and with C2 the run-to-run spread of the medians was up to 2.5 times
#: wider (q04, five seeds), for 5-15% faster runs. A fixed-size heap,
#: touched at start-up, keeps page faults and the collector's work from
#: changing as the heap grows during a run. The serial collector has no
#: threads of its own to wake; against G1 and a 2 GB heap, q04 seeds 0-4
#: ran 8-15% faster and their medians spread 0.08-0.11 instead of 0.14-0.21.
JAVA_OPTIONS = (
    f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch -XX:+UseSerialGC "
    "-XX:TieredStopAtLevel=1 -XX:-UsePerfData"
)
#: Rounds of timed runs, whatever --seconds says. Few, so that a slow host
#: stretches a run by little: past these, runs stop at --seconds.
MIN_ROUNDS = 3
SEED_STRIDE = 1000  # seed n shifts every generator's default seed by n * this
GENERATORS = (
    "lineitem_pdf",
    "orders_pdf",
    "customer_pdf",
    "part_pdf",
    "supplier_pdf",
    "partsupp_pdf",
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:  # numpy generator seeds must be non-negative
        ap.error("--seed must be >= 0")
    return args


# -- session and data ---------------------------------------------------


def prepare_env(tmp: Path) -> None:
    """Pin what the JVM and Python workers inherit, before the JVM starts."""
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(SRC))


def start_session(cores: int, tmp: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{cores}]")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} {JAVA_OPTIONS}")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark, then the JVM, and wait until the JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)


def generate(spark, seed: int):
    """``tpch.generate`` at ``SF`` with every seeded generator shifted by
    ``seed``; seed 0 leaves the defaults, so it is the program's own data."""
    from repro import synth_data, tpch

    saved = {name: getattr(synth_data, name) for name in GENERATORS}
    try:
        for name, fn in saved.items():
            default = inspect.signature(fn).parameters["seed"].default
            setattr(synth_data, name, functools.partial(fn, seed=default + SEED_STRIDE * seed))
        return tpch.generate(spark, sf=SF)
    finally:
        for name, fn in saved.items():
            setattr(synth_data, name, fn)


def storage_mb(spark) -> float:
    """Spark storage memory in use: the sum of ``memSize`` over
    ``getRDDStorageInfo``, in MB (10^6 bytes)."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(info.memSize() for info in infos) / 1e6


def host_info(spark, seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    return {
        "host_cores": len(os.sched_getaffinity(0)),
        "spark_cores": CORES,
        "mem_gib": round(mem, 1),
        "spark": spark.version,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sf": SF,
        "seed": seed,
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "commit": commit or "unknown (not a git checkout)",
    }


# -- oracle ---------------------------------------------------------------


def oracle_frame(sql: str, tables):
    """The DuckDB result of ``sql`` over the pandas tables, canonicalised."""
    import duckdb
    from repro.oracle import _canon

    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        return _canon(con.execute(sql).fetchdf())
    finally:
        con.close()


def matches_oracle(rr, expected) -> bool:
    """Compare the collected ``rr.rows`` with the oracle. Never touches
    ``rr.df``'s data: ``toPandas()`` would run the Spark plan again."""
    import pandas as pd
    from repro.oracle import _canon

    got = pd.DataFrame([tuple(r) for r in rr.rows], columns=rr.df.columns)
    if set(got.columns) != set(expected.columns):
        return False
    try:
        pd.testing.assert_frame_equal(_canon(got), expected, check_dtype=False)
    except AssertionError:
        return False
    return True


# -- runs -----------------------------------------------------------------


class Bench:
    """Runs one strategy at a time, times it from outside, checks it."""

    def __init__(self, spark, spec, expected):
        self.spark = spark
        self.spec = spec
        self.expected = expected
        self.base_mb = storage_mb(spark)
        self.peak_mb = self.base_mb
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, strategy: str, measure: bool = False, after=None) -> float:
        """One ``run_query`` call; returns its wall-clock time in seconds.

        ``after(rr, run_mb)`` sees the result before its ``cleanup()``;
        ``run_mb`` is the storage the run persisted beyond the base tables.
        """
        from repro.core import strategies

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            rr = strategies.run_query(self.spark, self.spec, strategy, measure=measure)
        except Exception as exc:  # a failed run is counted, not fatal
            self.failed += 1
            self.errors.append(f"{strategy}: {exc!r}"[:300])
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        try:
            if not matches_oracle(rr, self.expected):
                self.failed += 1
                self.errors.append(f"{strategy}: rows differ from the DuckDB oracle")
            mb = storage_mb(self.spark)
            self.peak_mb = max(self.peak_mb, mb)
            if after is not None:
                after(rr, mb - self.base_mb)
        finally:
            rr.cleanup()
        return elapsed


def warm_up(run) -> dict:
    """One untimed run per strategy. The first run of each strategy in a
    process pays JIT compilation and Python-worker start-up; the trend
    printed beside each median shows what warming is left after it."""
    return {s: run(s) for s in STRATEGIES}


def sample(seconds: float, run) -> dict:
    """Timed runs, in rounds of every strategy, until there are
    ``MIN_ROUNDS`` rounds and the runs add up to ``seconds``. Taking turns
    spreads any drift of the host over all strategies alike. From the
    second round on, a strategy runs again until its runs in the round add
    up to a third of the slowest strategy's median, so a fast strategy gets
    several samples a round for little time."""
    samples = {s: [] for s in STRATEGIES}

    def timed(s: str) -> float:
        samples[s].append(run(s))
        return samples[s][-1]

    rounds = 0
    while rounds < MIN_ROUNDS or sum(map(sum, samples.values())) < seconds:
        share = max((statistics.median(xs) for xs in samples.values() if xs), default=0.0) / 3
        for s in STRATEGIES:
            spent = timed(s)
            while spent < share:
                spent += timed(s)
        rounds += 1
    return samples


def trend(xs) -> str:
    if len(xs) < 2:
        return "-"
    return f"{(xs[-1] / xs[0] - 1) * 100:+.1f}%"


# -- modes ----------------------------------------------------------------


def end_to_end(bench: Bench, seconds: float, start_s: float) -> dict:
    warm = warm_up(bench.run)
    setup_s = start_s + sum(warm.values())
    samples = sample(seconds, bench.run)
    print("end-to-end (wall-clock of one run_query call, tracing off):")
    print(f"  {'metric':<24}{'median':>10}  {'n':>3}  {'min':>8}  {'max':>8}   trend  warm-up")
    metrics = {}
    for s in STRATEGIES:
        xs = samples[s]
        med = statistics.median(xs)
        metrics[f"{s}.total_s"] = {"value": med, "unit": "s"}
        print(
            f"  {s + '.total_s':<24}{med:>9.3f}s  {len(xs):>3}  {min(xs):>8.3f}  "
            f"{max(xs):>8.3f}  {trend(xs):>6}  {warm[s]:.2f}"
        )
    metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    metrics["cached_mb"] = {"value": bench.peak_mb, "unit": "MB"}
    ratio = metrics["no_pred_trans.total_s"]["value"] / metrics["pred_trans.total_s"]["value"]
    print(
        f"  {'setup_s':<24}{setup_s:>9.3f}s       (session start + generate "
        f"{start_s:.3f}s, warm-up {setup_s - start_s:.3f}s)"
    )
    print(f"  {'cached_mb':<24}{bench.peak_mb:>9.3f}MB (peak over {bench.attempted} runs)")
    print(
        f"  Figure-2 ratio no_pred_trans/pred_trans = {ratio:.3f} "
        "(for reading; not a metric)"
    )
    return metrics


def per_layer_catalogue() -> list:
    """(name, unit) of every per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def per_layer(bench: Bench, seconds: float, spec, data, workload: str, seed: int) -> dict:
    from spans import Tracer  # imports repro, so only once src/ is on the path

    # Table 1's HT/PR rows, from a measure=True run per strategy. These
    # untimed runs are also the warm-up.
    hp = {}
    for s in STRATEGIES:
        bench.run(
            s,
            measure=True,
            after=lambda rr, _mb, s=s: hp.update(
                {
                    f"{s}.executor.ht_rows": sum(m.ht_rows for m in rr.measures),
                    f"{s}.executor.pr_rows": sum(m.pr_rows for m in rr.measures),
                }
            ),
        )

    tracer = Tracer(bench.spark.sparkContext)
    per_run = {s: [] for s in STRATEGIES}

    def traced(s: str) -> float:
        first = len(tracer.spans)

        def after(rr, run_mb):
            tracer.count_jobs(first)
            spans = tracer.spans[first:]
            own = tracer.self_times()
            per_run[s].append(layers.run_metrics(spans, own, rr, run_mb))

        return bench.run(s, after=after)

    with tracer:
        samples = sample(seconds, traced)

    values = dict(hp)
    for runs in per_run.values():
        for name in runs[0] if runs else ():
            values[name] = statistics.median(r[name] for r in runs)
    values.update(layers.bloom_micro(layers.largest_key(spec.edges, data.pandas), 0.3))

    catalogue = per_layer_catalogue()
    names = [n for n, _u in catalogue]
    if sorted(names) != sorted(values):
        raise RuntimeError(
            "per-layer metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(values))}, unlisted {sorted(set(values) - set(names))}"
        )
    print("per-layer (median over traced runs; counts repeat exactly):")
    print("  traced runs: " + " ".join(f"{s}={len(samples[s])}" for s in STRATEGIES))
    for name, unit in catalogue:
        print(f"  {name:<42}{values[name]:>14.6g} {unit}")
    print("  (rows_kept = sum of reduced_sizes / sum of sizes over the query's tables)")

    WORK.mkdir(exist_ok=True)
    out = WORK / f"spans-{workload}-seed{seed}.json"
    out.write_text(json.dumps(tracer.to_json()))
    print(f"spans written to {out.relative_to(ROOT)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in catalogue}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}/repro", file=sys.stderr)
        return 2
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    prepare_env(tmp)
    from repro import queries

    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_session(CORES, tmp)
        data = generate(spark, args.seed)
        start_s = time.perf_counter() - t0

        info = host_info(spark, args.seed)
        print(f"perfbench workload={args.workload} trace={args.trace} seconds={args.seconds}")
        print("host: " + " ".join(f"{k}={v}" for k, v in info.items()))
        print(f"session start + generate: {start_s:.3f}s")

        spec = queries.build(args.workload, data.spark)
        expected = oracle_frame(spec.oracle_sql, data.pandas)
        if expected.empty:
            print(
                f"perfbench: the oracle result of {args.workload} is empty for seed "
                f"{args.seed}; choose another seed",
                file=sys.stderr,
            )
            return 3
        bench = Bench(spark, spec, expected)
        if args.trace:
            metrics = per_layer(bench, args.seconds, spec, data, args.workload, args.seed)
        else:
            metrics = end_to_end(bench, args.seconds, start_s)
        print(
            f"error_rate: {bench.failed}/{bench.attempted} runs failed or "
            "differed from the oracle"
        )
        for err in bench.errors:
            print(f"  {err}")
        print(
            json.dumps(
                {
                    "correct": bench.failed == 0,
                    "attempted": bench.attempted,
                    "failed": bench.failed,
                    "metrics": metrics,
                }
            )
        )
        return 0
    finally:
        if spark is not None:
            stop_session(spark)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
