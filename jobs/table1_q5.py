"""Reproduce **Table 1** — "Join Table Size in Q5": the build-side (HT)
and probe-side (PR) input rows of each of Q5's five joins under the
four strategies.

Usage: spark-submit jobs/table1_q5.py [--sf 0.1]
"""
import argparse
from typing import Dict, List

from pyspark.sql import SparkSession

from repro import queries, tpch
from repro.core.strategies import STRATEGIES, run_query
from repro.session import get_spark

#: Paper's Table 1 (TPC-H SF1), for side-by-side printing.
PAPER_TABLE1 = {
    "no_pred_trans": [(10_000, 6_000_000), (228_000, 6_000_000), (150_000, 910_000), (25, 36_000), (1, 36_000)],
    "bloom_join": [(10_000, 6_000_000), (228_000, 103_000), (150_000, 44_000), (25, 36_000), (1, 7_000)],
    "yannakakis": [(2_000, 181_000), (133_000, 181_000), (69_000, 193_000), (5, 8_000), (1, 8_000)],
    "pred_trans": [(2_000, 63_000), (30_000, 56_000), (15_000, 39_000), (5, 7_000), (1, 7_000)],
}


def run(spark: SparkSession, sf: float) -> Dict[str, List[tuple]]:
    """Measure HT/PR per join per strategy; returns strategy → [(ht, pr)]."""
    data = tpch.generate(spark, sf=sf)
    spec = queries.build("q05", data.spark)
    out: Dict[str, List[tuple]] = {}
    for strategy in STRATEGIES:
        rr = run_query(spark, spec, strategy, measure=True)
        out[strategy] = [(m.ht_rows, m.pr_rows) for m in rr.measures]
        rr.cleanup()
    data.unpersist()
    return out


def format_table(measured: Dict[str, List[tuple]], sf: float) -> str:
    lines = [
        f"Table 1 — Join Table Size in Q5 (measured at SF={sf}; paper at SF=1)",
        f"{'join':6s} " + " | ".join(f"{s:>24s}" for s in STRATEGIES),
        f"{'':6s} " + " | ".join(f"{'HT':>11s} {'PR':>12s}" for _ in STRATEGIES),
    ]
    for i in range(len(next(iter(measured.values())))):
        row = f"Join {i+1} "
        row += " | ".join(
            f"{measured[s][i][0]:>11,d} {measured[s][i][1]:>12,d}" for s in STRATEGIES
        )
        lines.append(row)
    return "\n".join(lines)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.1)
    args = ap.parse_args(argv)
    spark = get_spark("table1_q5")
    measured = run(spark, args.sf)
    print(format_table(measured, args.sf))
    print("\nPaper (SF=1):")
    print(format_table(PAPER_TABLE1, 1.0))


if __name__ == "__main__":
    main()
