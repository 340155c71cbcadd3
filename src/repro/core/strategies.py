"""The four join strategies from the paper's evaluation (§4.1), sharing
one join-phase executor:

- ``no_pred_trans`` — local predicates only, regular joins.
- ``bloom_join``    — one-hop: each join's build side (the incoming,
  locally-filtered table) builds a Bloom filter applied to the probe
  side immediately before that join. No transitive transfer.
- ``yannakakis``    — exact semi-join phase over a BFS join tree
  (forward + backward), then the join phase on the reduced tables.
- ``pred_trans``    — the paper's contribution: Bloom filters
  transferred across the whole join graph (forward + backward passes
  over the small→big DAG, each transfer that carries a predicate), then
  the join phase, whose scans apply the received filters (nothing is
  materialized in between).

``run_query`` is the "optimizer rule" of this reproduction: it takes
the logical block (``QuerySpec``) and emits/executes the rewritten
plan, timing the pre-filter phase and the join phase separately
(Figure 3's breakdown).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from functools import reduce as _reduce
from typing import Dict, List, Optional, Sequence

from py4j.protocol import Py4JError
from pyspark import StorageLevel
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

# Unused here; perfbench's tracer (spans.WRAPS) still wraps this name.
from repro.bloom.spark_bloom import build_blooms  # noqa: F401
from repro.core.executor import JoinMeasure, execute_join_phase
from repro.core.graph import order_steps
from repro.core.spec import QuerySpec, schema_problems, validate
from repro.core.transfer import TransferStats, bloom_sender, predicate_transfer, yannakakis_reduce

STRATEGIES = ("no_pred_trans", "bloom_join", "yannakakis", "pred_trans")

#: The Spark internals ``_cached_rows`` reads a cached table's row count through.
CACHE_MANAGER = "org.apache.spark.sql.execution.CacheManager"
CACHED_DATA = "org.apache.spark.sql.execution.CachedData"
IN_MEMORY_RELATION = "org.apache.spark.sql.execution.columnar.InMemoryRelation"
CACHE_BUILDER = "org.apache.spark.sql.execution.columnar.CachedRDDBuilder"


@dataclass
class RunResult:
    """Outcome of one strategy run: result + phase timings + diagnostics."""

    query: str
    strategy: str
    df: DataFrame
    rows: Optional[list] = None
    pre_s: float = 0.0  # sub-query blocks (executed first, §3.4)
    #: Pre-filter phase: the size count, then Bloom filter builds or the
    #: materialized semi-joins. Pred-Trans's ends at its last filter
    #: build; the probe of the filters each table received runs in the
    #: join phase's scans and is charged to ``join_s``.
    transfer_s: float = 0.0
    join_s: float = 0.0  # join phase incl. finalize + collect
    measures: List[JoinMeasure] = field(default_factory=list)
    scalars: Dict[str, float] = field(default_factory=dict)  # scalar sub-queries
    #: Rows after local predicates, only where read: every table under
    #: Pred-Trans (filter sizes and the small→big order; none for a
    #: block without edges), Bloom Join's senders; empty otherwise. A
    #: table that is a persisted, fully cached DataFrame (a base table, a
    #: sub-query output) takes its count from Spark's cache (``_sizes``).
    sizes: Dict[str, int] = field(default_factory=dict)
    transfer_stats: Optional[TransferStats] = None
    _persisted: List[DataFrame] = field(default_factory=list)
    #: Pred-Trans's lazy reduced tables, counted when ``reduced_sizes`` is read.
    _reduced: Dict[str, DataFrame] = field(default_factory=dict)

    @cached_property
    def reduced_sizes(self) -> Dict[str, int]:
        """Rows left after the pre-filter phase (Yannakakis and Pred-Trans;
        empty for the others). Yannakakis's come from the count that
        materializes its semi-joins. Pred-Trans's reduced tables are
        counted on the first read (``_sizes``: one action), not during
        the run; a read after ``cleanup()`` recomputes the sub-query
        outputs it released."""
        return _sizes(self._reduced)

    @property
    def total_s(self) -> float:
        return self.pre_s + self.transfer_s + self.join_s

    def cleanup(self) -> None:
        for df in self._persisted:
            df.unpersist()
        self._persisted.clear()


def _resolve_tables(
    spark: SparkSession,
    spec: QuerySpec,
    strategy: str,
    res: RunResult,
) -> Dict[str, DataFrame]:
    """Run sub-query blocks (same strategy), then apply local predicates."""
    sub_results: Dict[str, DataFrame] = {}
    scalars: Dict[str, float] = {}
    for sub in spec.subqueries:
        t0 = time.perf_counter()
        rr = run_query(spark, sub.spec, strategy, collect=sub.scalar)
        res._persisted.extend(rr._persisted)
        if sub.scalar:
            scalars[sub.name] = rr.rows[0][0]
        else:
            rr.df.persist()
            res._persisted.append(rr.df)
            rr.df.count()
            sub_results[sub.name] = rr.df
        res.pre_s += time.perf_counter() - t0
    res.scalars = scalars
    tables: Dict[str, DataFrame] = {}
    for name, ref in spec.tables.items():
        df = ref.df if ref.df is not None else sub_results[ref.subquery]
        if ref.predicate is not None:
            df = df.filter(ref.predicate)
        tables[name] = df
    return tables


def _count_all(tables: Dict[str, DataFrame]) -> Dict[str, int]:
    """Exact cardinality of every table in a *single* Spark action (a
    union of per-table count aggregates). One action instead of N: at
    small scale factors per-job scheduling overhead, not data volume, is
    the dominant cost of the pre-filter phase. Under AQE the action still
    runs more than one job (a shuffle stage, then the final aggregate)."""
    branches = [
        df.agg(F.count(F.lit(1)).alias("n")).select(F.lit(t).alias("t"), "n")
        for t, df in tables.items()
    ]
    return {r["t"]: r["n"] for r in _reduce(DataFrame.unionAll, branches).collect()}


def _cached_rows(df: DataFrame) -> Optional[int]:
    """``df``'s exact row count if ``df`` is itself a persisted plan with
    every partition cached, else ``None``. Spark's cache builder counts
    the rows as it caches them, so reading the count runs no job. A filter
    over a cached table is a plan of its own and gives ``None``; so does a
    table persisted but not (or only partly) materialized yet.

    Reads neither ``df``'s optimized plan nor its ``stats()``: both are
    computed once per Dataset, and may predate the cache."""
    try:
        cache = df.sparkSession._jsparkSession.sharedState().cacheManager()
        cached = cache.lookupCachedData(df._jdf)
        if cached.isEmpty():
            return None
        relation = cached.get().cachedRepresentation()
        if not relation.cacheBuilder().isCachedColumnBuffersLoaded():
            return None
        rows = relation.computeStats().rowCount()
        return None if rows.isEmpty() else int(rows.get())
    except (Py4JError, TypeError) as e:
        raise RuntimeError(
            f"Spark {df.sparkSession.version}: cannot read a cached row count through "
            f"{CACHE_MANAGER}.lookupCachedData, {CACHED_DATA}, {IN_MEMORY_RELATION} "
            f"and {CACHE_BUILDER}"
        ) from e


def _sizes(tables: Dict[str, DataFrame]) -> Dict[str, int]:
    """Exact row counts of ``tables``: from Spark's cache where it holds
    one (``_cached_rows``), the rest counted in one action, and no action
    at all when nothing is left to count."""
    sizes = {t: _cached_rows(df) for t, df in tables.items()}
    missed = {t: tables[t] for t, n in sizes.items() if n is None}
    return {**sizes, **(_count_all(missed) if missed else {})}


def _bloom_join_step_blooms(steps, tables, sizes):
    """One-hop blooms: each incoming table's filters for the tables
    already placed (``graph.order_steps``), built from its
    locally-filtered rows in one scan."""
    send = bloom_sender(sizes)
    return {t: send(t, tables[t], outs) for t, outs in steps}


def run_query(
    spark: SparkSession,
    spec: QuerySpec,
    strategy: str,
    *,
    join_order: Optional[Sequence[str]] = None,
    measure: bool = False,
    collect: bool = True,
) -> RunResult:
    """Execute ``spec`` under ``strategy``; the Yannakakis join tree is
    rooted at the first table of the join order. The caller should invoke
    ``result.cleanup()`` once done with ``result.df``; a run that raises
    releases what it persisted. Raises ``ValueError`` if the spec, with
    ``join_order`` in place of its own, is invalid: ``validate`` before
    any Spark job, ``schema_problems`` once the sub-queries (if any) have
    run, so that it sees their outputs' schemas. The run counts nothing
    for ``reduced_sizes`` beyond Yannakakis's materializing count:
    Pred-Trans's are counted when first read, ``collect=False`` or not."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    order = list(join_order or spec.join_order)
    if problems := validate(replace(spec, join_order=order)):
        raise ValueError(f"{spec.name}: " + "; ".join(problems))
    res = RunResult(query=spec.name, strategy=strategy, df=None)  # type: ignore[arg-type]
    try:
        tables = _resolve_tables(spark, spec, strategy, res)
        if problems := schema_problems(spec, tables):
            raise ValueError(f"{spec.name}: " + "; ".join(problems))

        t0 = time.perf_counter()
        reduced, step_blooms = tables, None
        # Exact filtered-input cardinalities (``RunResult.sizes``), read
        # here because they are planning work of the pre-filter phase: a
        # persisted table's from the cache, the rest in one count.
        if strategy == "pred_trans":
            res.sizes = _sizes(tables) if spec.edges else {}
            reduced, res.transfer_stats = predicate_transfer(
                tables, spec.edges, res.sizes, spec.filtered
            )
            res._reduced = reduced
        elif strategy == "bloom_join":
            steps = order_steps(spec.edges, order)
            res.sizes = _sizes({t: tables[t] for t, _ in steps})
            step_blooms = _bloom_join_step_blooms(steps, tables, res.sizes)
        elif strategy == "yannakakis":
            reduced, _ = yannakakis_reduce(tables, spec.edges, order[0])
            # Materialize the exact semi-join reductions, so the
            # pre-filter phase carries their cost (as the paper charges
            # it) and the join phase starts from them. One counting
            # action materializes every persisted table. A table that
            # received nothing is the caller's own DataFrame: one already
            # cached (a base table, a sub-query output) is not the run's
            # to persist or release, and its size comes from the cache.
            for df in reduced.values():
                if df.storageLevel == StorageLevel.NONE:
                    df.persist()
                    res._persisted.append(df)
            res.reduced_sizes = _sizes(reduced)
        res.transfer_s = time.perf_counter() - t0

        # Pred-Trans hands its lazy reduced tables (base ∧ local predicate
        # ∧ received filters) to the join phase, whose scans then apply
        # the filters.
        t1 = time.perf_counter()
        joined, res.measures = execute_join_phase(
            spec, reduced, join_order=order, step_blooms=step_blooms, measure=measure
        )
        res.df = spec.finalize(joined, res.scalars)
        if collect:
            res.rows = res.df.collect()
        res.join_s = time.perf_counter() - t1
    except BaseException:
        res.cleanup()  # the caller gets no result to clean up
        raise
    return res
