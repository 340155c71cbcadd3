"""TPC-H-lite dataset bundle: one call builds every base table twice —
as pandas (for the DuckDB oracle) and as Spark DataFrames built *from
the same pandas frames* (so both engines see identical bytes).

Also owns the session configuration that keeps the experiment clean:
Spark's own runtime bloom-filter / semi-join-reduction injection is
turned off, otherwise the No-Pred-Trans and Bloom-Join baselines would
be silently predicate-transferred by Catalyst itself, and generated
classes are shared across codegen stage ids (``configure_session``).
"""
from dataclasses import dataclass, field
from typing import Dict

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro import synth_data

def configure_session(spark: SparkSession) -> None:
    """Turn off Catalyst's built-in runtime filtering so the four
    strategies under test are the only source of pre-filtering.

    Also name generated classes without their whole-stage-codegen stage
    id, so equal code at another stage id (a plan with one more stage
    below it) reuses the compiled class: Spark keeps 100 compiled classes, and the four
    strategies sharing a session otherwise evicted each other's, each
    round of q04 runs (SF 0.004, local[2]) recompiling about 20."""
    spark.conf.set("spark.sql.optimizer.runtime.bloomFilter.enabled", "false")
    spark.conf.set(
        "spark.sql.optimizer.runtimeFilter.semiJoinReduction.enabled", "false"
    )
    spark.conf.set("spark.sql.codegen.useIdInClassName", "false")


@dataclass
class TPCHData:
    """Base tables at one scale factor, pandas + Spark views."""

    sf: float
    pandas: Dict[str, pd.DataFrame] = field(default_factory=dict)
    spark: Dict[str, DataFrame] = field(default_factory=dict)

    def unpersist(self) -> None:
        for df in self.spark.values():
            df.unpersist()


def generate(spark: SparkSession, *, sf: float) -> TPCHData:
    """Generate every base table at ``sf``; persist + force the Spark
    copies so repeated strategy runs do not re-pay Arrow conversion."""
    configure_session(spark)
    pdfs = {
        "lineitem": synth_data.lineitem_pdf(sf=sf),
        "orders": synth_data.orders_pdf(sf=sf),
        "customer": synth_data.customer_pdf(sf=sf),
        "part": synth_data.part_pdf(sf=sf),
        "supplier": synth_data.supplier_pdf(sf=sf),
        "partsupp": synth_data.partsupp_pdf(sf=sf),
        "nation": synth_data.nation_pdf(),
        "region": synth_data.region_pdf(),
    }
    par = spark.sparkContext.defaultParallelism
    sdfs = {}
    for name, pdf in pdfs.items():
        df = spark.createDataFrame(pdf)
        # Normalize the partition layout: Arrow conversion creates one
        # partition per ~10k-row batch (300 partitions for SF-0.5
        # lineitem), and tiny tables still get defaultParallelism
        # partitions — either way every narrow scan pays a task per
        # partition.
        if len(pdf) < 20_000:
            df = df.coalesce(1)
        elif df.rdd.getNumPartitions() > par:
            df = df.repartition(par)
        sdfs[name] = df
    for df in sdfs.values():
        df.persist()
        df.count()
    return TPCHData(sf=sf, pandas=pdfs, spark=sdfs)
