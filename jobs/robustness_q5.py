"""Reproduce **Figure 4 as a table** — Q5 runtime under three join
orders for each strategy. The paper's claim: Pred-Trans is fastest on
every order and has the smallest variance across orders.

Usage: spark-submit jobs/robustness_q5.py [--sf 0.1]
"""
import argparse
from typing import Dict

from pyspark.sql import SparkSession

from repro import queries, tpch
from repro.core.strategies import STRATEGIES, run_query
from repro.queries.q05 import JOIN_ORDERS
from repro.session import get_spark


def run(spark: SparkSession, sf: float) -> Dict[str, Dict[str, float]]:
    """order name → strategy → total seconds."""
    data = tpch.generate(spark, sf=sf)
    out: Dict[str, Dict[str, float]] = {}
    for order_name, order in JOIN_ORDERS.items():
        out[order_name] = {}
        for strategy in STRATEGIES:
            spec = queries.build("q05", data.spark)
            rr = run_query(spark, spec, strategy, join_order=order)
            out[order_name][strategy] = rr.total_s
            rr.cleanup()
    data.unpersist()
    return out


def format_table(results: Dict[str, Dict[str, float]], sf: float) -> str:
    lines = [
        f"Figure 4 as a table — Q5 runtime by join order at SF={sf} (seconds)",
        f"{'order':8s} " + " | ".join(f"{s:>14s}" for s in STRATEGIES)
        + "   (orders: " + "; ".join(f"{k}={'>'.join(v)}" for k, v in JOIN_ORDERS.items()) + ")",
    ]
    for order_name, row in results.items():
        lines.append(
            f"{order_name:8s} " + " | ".join(f"{row[s]:>13.2f}s" for s in STRATEGIES)
        )
    for s in STRATEGIES:
        vals = [results[o][s] for o in results]
        spread = max(vals) / min(vals)
        lines.append(f"{s}: max/min across orders = {spread:.2f}x")
    return "\n".join(lines)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=0.1)
    args = ap.parse_args(argv)
    spark = get_spark("robustness_q5")
    print(format_table(run(spark, args.sf), args.sf))


if __name__ == "__main__":
    main()
