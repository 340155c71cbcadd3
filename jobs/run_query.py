"""Run one suite query under one strategy and print the result rows and
phase timings; optionally verify against the DuckDB oracle.

Usage: spark-submit jobs/run_query.py --query q05 --strategy pred_trans [--sf 0.1] [--verify]
"""
import argparse

from pyspark.sql import SparkSession

from repro import queries, tpch
from repro.core.strategies import STRATEGIES, run_query
from repro.session import get_spark


def run(spark: SparkSession, name: str, strategy: str, sf: float, verify: bool = False):
    data = tpch.generate(spark, sf=sf)
    spec = queries.build(name, data.spark)
    rr = run_query(spark, spec, strategy)
    if verify:
        from repro.oracle import assert_equivalent

        assert_equivalent(rr.df, spec.oracle_sql, **data.pandas)
    return rr, data


def format_sizes(rr) -> str:
    """One ``table: sizes → reduced_sizes`` line per table, ``?`` for a
    size the strategy does not record (Bloom Join reduces no table)."""
    tables = list(rr.sizes) or list(rr.reduced_sizes)
    return "\n".join(
        f"  {t}: {rr.sizes.get(t, '?')} → {rr.reduced_sizes.get(t, '?')}" for t in tables
    )


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--query", required=True, choices=queries.ALL)
    ap.add_argument("--strategy", default="pred_trans", choices=STRATEGIES)
    ap.add_argument("--sf", type=float, default=0.1)
    ap.add_argument("--verify", action="store_true")
    args = ap.parse_args(argv)
    spark = get_spark("run_query")
    rr, data = run(spark, args.query, args.strategy, args.sf, args.verify)
    print(f"{args.query} [{args.strategy}] rows={len(rr.rows)}")
    for row in rr.rows[:20]:
        print("  ", tuple(row))
    if len(rr.rows) > 20:
        print(f"   … {len(rr.rows) - 20} more")
    print(
        f"pre={rr.pre_s:.2f}s transfer={rr.transfer_s:.2f}s "
        f"join={rr.join_s:.2f}s total={rr.total_s:.2f}s"
        + (" (oracle: OK)" if args.verify else "")
    )
    if rr.sizes or rr.reduced_sizes:
        print("table: rows after local predicates → after the pre-filter phase")
        print(format_sizes(rr))
    rr.cleanup()
    data.unpersist()


if __name__ == "__main__":
    main()
